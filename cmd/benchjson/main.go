// Command benchjson writes machine-readable perf records as JSON — the
// artifacts CI uploads and EXPERIMENTS.md quotes for the large-n runs.
//
// Every bench writes one envelope (see record and row):
//
//	{"bench", "scale", "generated",
//	 "env": {"go", "goos", "goarch", "gomaxprocs", "nproc"},
//	 "rows": [{"case": {params}, "seed", "reps": {side: n}, "ns": {side: ns},
//	           "values": {name: number}, "audit": {"kind", "equal"}}]}
//
// ns keeps each timed side's minimum wall time over its repetitions and
// reps counts the repetitions that side actually ran. Timed sides start
// after a forced collection. Booleans in values are 0/1. audit names the
// row's oracle: a failed check aborts the run, and every record passes
// parseRecord — the reader the committed BENCH_*.json files are tested
// with — before it is written, so a record can never carry equal: false.
//
// The benches, selected by -bench, with their sides and values:
//
//   - flood (default): the cut-set engine (flood.Run) against the
//     full-rescan reference (flood.RunReference) on identically seeded
//     warmed models — BENCH_flood.json. ns: warmup, engine, reference.
//     values: speedup (reference/engine), completed, completion_round,
//     final_informed, final_alive. audit: the two Results bit-for-bit.
//
//   - warmup: simulated core.WarmUp against direct stationary sampling
//     (core.SampleStationary), the -fastwarmup flags — BENCH_warmup.json.
//     ns: warmup, sample (at least 3 reps: sampling is cheap). values:
//     speedup, and snapshot sanity from each side's fastest rep —
//     warm_alive, sampled_alive, warm_live_out_mean, sampled_live_out_mean.
//     No oracle.
//
//   - floodpar: the sharded cut engine (flood.Options.Parallelism) swept
//     over case.par, serial first — BENCH_floodpar.json. case.op "flood":
//     ns build (core.SampleStationaryPar), flood; values as for flood.
//     case.op "wire-fill": graph.WireSnapshotEdgesPar alone, ns wire. Every
//     non-serial row adds speedup_vs_serial and is audited against the
//     serial row (the Result, or an adjacency hash with in-list order).
//
//   - edgerate: the OnEdge feed of the cut engine under PDGR with the
//     plain draw vs the hard inbound cap (F22, the Section 5 question) —
//     BENCH_edgerate.json. Policy models have no closed-form stationary
//     law, so warm-up is simulated (minutes at n = 10⁶) and every case runs
//     once whatever -reps says. ns: warmup, flood. values over case.window
//     time units: on_edge_events, births, deaths, events_per_unit,
//     regen_share (share fired by rule-3 regeneration), max_regen_burst and
//     mean_regen_burst (regenerations per death); then flood_completed and
//     completion_round of one engine broadcast. No oracle.
//
//   - expansion: the incremental witness tracker (expansion.Tracker)
//     against an expansion.Estimate search at every observation of a
//     case.window-round window — BENCH_expansion.json. ns: build, tracker
//     (attach, advance, observe), estimate (advance, search). values:
//     speedup, observations, tracked_sets, reseeds, tracker_par,
//     tracker_min, estimate_min. audit: every tracked set against a fresh
//     BoundarySize rescan at the first, middle and last observation.
//
//   - traffic: the multi-message plane (flood.Traffic), case.messages
//     broadcasts injected per a burst/staggered/poisson schedule over one
//     churn stream — BENCH_traffic.json. ns: build, traffic (the whole
//     plane run), oracle. values: steps, delivered, delivered_per_sec,
//     completed_in_round_<r> (delivered messages per completion round,
//     zero rounds left out), lanes, words_per_slot, informed_bytes_per_lane
//     and informed_bytes_per_lane_baseline (one graph.Marks per lane) with
//     informed_reduction_x their ratio, traffic_alloc_bytes, oracle_audited.
//     audit: each audited message replayed alone through flood.RunReference
//     on an identically seeded model.
//
//   - serve: the control-plane daemon (internal/serve) under concurrent
//     loopback-HTTP load — BENCH_serve.json. ns: seed (serve.New), elapsed
//     (the load phase). values: req_per_sec, p50_ns, p99_ns, the op mix
//     (reads, joins, leaves, steps, departed_410, backpressure_429),
//     max_queue_depth, snapshot_age_mean_ms, snapshot_age_max_ms,
//     final_alive. audit: serve.VerifySnapshot on a fresh publish.
//
// Usage (smoke scale runs in seconds and is what CI runs; large rebuilds
// the committed record, in minutes to hours):
//
//	benchjson -bench flood -out BENCH_flood.smoke.json
//	benchjson -bench flood -scale large -reps 2 -out BENCH_flood.json
//	benchjson -bench warmup -scale large -reps 1 -out BENCH_warmup.json
//
// and likewise -bench floodpar, edgerate, expansion, traffic or serve
// with -scale large -reps 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"os"
	"reflect"
	"runtime"
	"time"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/expansion"
	"github.com/dyngraph/churnnet/internal/flood"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

func main() {
	var (
		bench = flag.String("bench", "flood", "flood, warmup, floodpar, edgerate, expansion, traffic or serve (see the package comment)")
		out   = flag.String("out", "", "output path (- for stdout; default BENCH_<bench>.json)")
		scale = flag.String("scale", "smoke", "smoke (CI, seconds) or large (the committed record)")
		seed  = flag.Uint64("seed", 1, "deterministic seed")
		reps  = flag.Int("reps", 3, "timed repetitions per side (the minimum is reported)")
	)
	flag.Parse()
	if err := validateFlags(*reps); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	if *out == "" {
		*out = "BENCH_" + *bench + ".json"
	}
	rec, err := run(*bench, *scale, *seed, *reps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	write(*out, rec)
}

// validateFlags rejects invalid flag values; kept separate from main so
// the flag paths are regression-testable (see main_test.go).
func validateFlags(reps int) error {
	if reps < 1 {
		return errors.New("-reps must be >= 1")
	}
	return nil
}

// spec is one case of a bench's table. Each bench reads the fields it
// needs and records them in its rows' case.
type spec struct {
	kind core.Kind
	n, d int
	mode flood.Mode
	// window: flood and floodpar flood RunToMax over this many rounds
	// (0 runs to completion); edgerate measures this many time units.
	window int
	// floodpar: op "wire-fill" times the snapshot arena fill instead of a
	// flood, at every worker count in pars (serial first).
	op   string
	pars []int
	// par is the traffic plane's or the daemon's worker-shard count
	// (flood.Auto resolves it from GOMAXPROCS and n).
	par    int
	policy core.DegreePolicy // edgerate
	capped bool              // expansion: cap both searches so n = 10⁶ stays runnable
	// traffic: messages injected per schedule at spacing gap (rounds
	// between injections, or the poisson mean inter-arrival).
	messages, gap int
	schedule      string
	// serve: clients each issue reqs requests; publishMs is the snapshot
	// MinPublishInterval in milliseconds.
	clients, reqs, publishMs int
}

// bench is the function that measures one case into its rows, plus a
// case table per scale.
type bench struct {
	measure func(c spec, seed uint64, reps int) []row
	cases   map[string][]spec
}

var (
	floodparSmoke = []int{1, 2, 4}
	floodparLarge = []int{1, 2, 4, 8}
)

var benches = map[string]bench{
	"flood": {measureFlood, map[string][]spec{
		"smoke": {
			{kind: core.SDGR, n: 2000, d: 21, mode: flood.Discretized},
			{kind: core.SDGR, n: 2000, d: 21, mode: flood.Asynchronous},
			{kind: core.SDGR, n: 2000, d: 21, mode: flood.Discretized, window: 100},
			{kind: core.PDGR, n: 2000, d: 35, mode: flood.Discretized},
			{kind: core.PDGR, n: 2000, d: 35, mode: flood.Discretized, window: 100},
			{kind: core.SDG, n: 2000, d: 4, mode: flood.Discretized},
			{kind: core.PDG, n: 2000, d: 4, mode: flood.Discretized},
		},
		"large": {
			{kind: core.SDGR, n: 100000, d: 21, mode: flood.Discretized},
			{kind: core.SDGR, n: 100000, d: 21, mode: flood.Discretized, window: 100},
			{kind: core.PDGR, n: 100000, d: 35, mode: flood.Discretized, window: 100},
			{kind: core.SDGR, n: 1000000, d: 21, mode: flood.Discretized},
			{kind: core.SDGR, n: 1000000, d: 21, mode: flood.Discretized, window: 100},
		},
	}},
	"warmup": {measureWarmup, map[string][]spec{
		"smoke": {
			{kind: core.SDG, n: 2000, d: 21},
			{kind: core.SDGR, n: 2000, d: 21},
			{kind: core.PDG, n: 2000, d: 35},
			{kind: core.PDGR, n: 2000, d: 35},
			{kind: core.SDGR, n: 10000, d: 21},
			{kind: core.PDGR, n: 10000, d: 35},
		},
		"large": {
			{kind: core.SDGR, n: 10000, d: 21},
			{kind: core.SDGR, n: 100000, d: 21},
			{kind: core.SDGR, n: 1000000, d: 21},
			{kind: core.PDGR, n: 10000, d: 35},
			{kind: core.PDGR, n: 100000, d: 35},
			{kind: core.PDGR, n: 1000000, d: 35},
			{kind: core.SDG, n: 1000000, d: 21},
			{kind: core.PDG, n: 1000000, d: 35},
		},
	}},
	"floodpar": {measureFloodPar, map[string][]spec{
		"smoke": {
			{kind: core.SDGR, n: 2000, d: 21, pars: floodparSmoke},
			{kind: core.SDGR, n: 10000, d: 21, window: 50, pars: floodparSmoke},
			{kind: core.PDGR, n: 10000, d: 35, pars: floodparSmoke},
			{op: "wire-fill", n: 20000, d: 21, pars: floodparSmoke},
		},
		"large": {
			{kind: core.SDGR, n: 100000, d: 21, pars: floodparLarge},
			{kind: core.SDGR, n: 1000000, d: 21, pars: floodparLarge},
			{kind: core.SDGR, n: 1000000, d: 21, window: 100, pars: floodparLarge},
			{kind: core.SDGR, n: 10000000, d: 21, pars: floodparLarge},
			{op: "wire-fill", n: 100000, d: 21, pars: floodparLarge},
			{op: "wire-fill", n: 1000000, d: 21, pars: floodparLarge},
		},
	}},
	// d = 20 is the F22 out-degree; InCap 2d is its hard inbound cap.
	"edgerate": {measureEdgeRate, map[string][]spec{
		"smoke": {
			{kind: core.PDGR, n: 2000, d: 20, window: 200},
			{kind: core.PDGR, n: 2000, d: 20, window: 200, policy: core.DegreePolicy{InCap: 40}},
		},
		"large": {
			{kind: core.PDGR, n: 100000, d: 20, window: 2000},
			{kind: core.PDGR, n: 100000, d: 20, window: 2000, policy: core.DegreePolicy{InCap: 40}},
			{kind: core.PDGR, n: 1000000, d: 20, window: 2000},
			{kind: core.PDGR, n: 1000000, d: 20, window: 2000, policy: core.DegreePolicy{InCap: 40}},
		},
	}},
	// window: observe every round over an O(log n)-round window (the
	// horizon flooding completes in at these sizes).
	"expansion": {measureExpansion, map[string][]spec{
		"smoke": {
			{kind: core.SDGR, n: 2000, d: 21, window: 12},
			{kind: core.PDGR, n: 2000, d: 35, window: 12},
			{kind: core.SDG, n: 2000, d: 4, window: 12},
		},
		"large": {
			{kind: core.SDGR, n: 100000, d: 21, window: 12, capped: true},
			{kind: core.PDGR, n: 100000, d: 35, window: 12, capped: true},
			{kind: core.SDGR, n: 1000000, d: 21, window: 12, capped: true},
			{kind: core.PDGR, n: 1000000, d: 35, window: 12, capped: true},
		},
	}},
	"traffic": {measureTraffic, map[string][]spec{
		"smoke": {
			{kind: core.SDGR, n: 2000, d: 21, messages: 6, schedule: "burst", gap: 1, par: 1},
			{kind: core.SDGR, n: 2000, d: 21, messages: 6, schedule: "staggered", gap: 2, par: 2},
			{kind: core.PDGR, n: 2000, d: 35, messages: 6, schedule: "poisson", gap: 2, par: 1},
			// The M sweep: burst rows at message counts crossing the packed
			// bitset's word seams (1, 1, 4 and 16 words per slot).
			{kind: core.SDGR, n: 2000, d: 21, messages: 16, schedule: "burst", gap: 1, par: 2},
			{kind: core.SDGR, n: 2000, d: 21, messages: 64, schedule: "burst", gap: 1, par: 2},
			{kind: core.SDGR, n: 2000, d: 21, messages: 256, schedule: "burst", gap: 1, par: 2},
			{kind: core.SDGR, n: 2000, d: 21, messages: 1024, schedule: "burst", gap: 1, par: 2},
		},
		"large": {
			{kind: core.SDGR, n: 1000000, d: 21, messages: 16, schedule: "burst", gap: 1, par: flood.Auto},
			{kind: core.SDGR, n: 1000000, d: 21, messages: 16, schedule: "staggered", gap: 2, par: flood.Auto},
			{kind: core.PDGR, n: 1000000, d: 35, messages: 16, schedule: "poisson", gap: 2, par: flood.Auto},
			// The M sweep at n = 10^5: the node count steps down from the
			// headline rows to keep the sweep's wall time in the same band
			// as one n = 10^6 row while M grows 64-fold.
			{kind: core.SDGR, n: 100000, d: 21, messages: 16, schedule: "burst", gap: 1, par: flood.Auto},
			{kind: core.SDGR, n: 100000, d: 21, messages: 64, schedule: "burst", gap: 1, par: flood.Auto},
			{kind: core.SDGR, n: 100000, d: 21, messages: 256, schedule: "burst", gap: 1, par: flood.Auto},
			{kind: core.SDGR, n: 100000, d: 21, messages: 1024, schedule: "burst", gap: 1, par: flood.Auto},
		},
	}},
	// The 10⁶ rows rate-limit publication: each publish copies
	// multi-MB state, and the snapshot-age values report the staleness
	// actually served.
	"serve": {measureServe, map[string][]spec{
		"smoke": {
			{kind: core.SDGR, n: 2000, d: 3, clients: 4, reqs: 200, publishMs: 0, par: 1},
			{kind: core.PDGR, n: 10000, d: 20, clients: 8, reqs: 200, publishMs: 5, par: 2},
		},
		"large": {
			{kind: core.SDGR, n: 100000, d: 20, clients: 8, reqs: 1500, publishMs: 0, par: flood.Auto},
			{kind: core.SDGR, n: 100000, d: 20, clients: 16, reqs: 1500, publishMs: 10, par: flood.Auto},
			{kind: core.SDGR, n: 1000000, d: 20, clients: 16, reqs: 750, publishMs: 25, par: flood.Auto},
			{kind: core.PDGR, n: 1000000, d: 20, clients: 16, reqs: 750, publishMs: 25, par: flood.Auto},
		},
	}},
}

// params starts a row's case with the model triple.
func (c spec) params() map[string]any {
	return map[string]any{"model": c.kind.String(), "n": c.n, "d": c.d}
}

func (c spec) workload() string {
	if c.window > 0 {
		return fmt.Sprintf("window-%d", c.window)
	}
	return "to-completion"
}

func (c spec) floodOptions() flood.Options {
	opts := flood.Options{Mode: c.mode}
	if c.window > 0 {
		opts.MaxRounds, opts.RunToMax = c.window, true
	}
	return opts
}

func resultValues(v map[string]float64, res flood.Result) {
	v["completed"] = b2f(res.Completed)
	v["completion_round"] = float64(res.CompletionRound)
	v["final_informed"] = float64(res.FinalInformed)
	v["final_alive"] = float64(res.FinalAlive)
}

func warm(kind core.Kind, n, d int, seed uint64) core.Model {
	m := core.New(kind, n, d, rng.New(seed))
	core.WarmUp(m)
	return m
}

// measureFlood floods a freshly warmed model per repetition (flooding
// advances the network, so repetitions cannot share one) with the engine
// and with the reference; identical seeds give both the same churn stream
// and flooding consumes no randomness.
func measureFlood(c spec, seed uint64, reps int) []row {
	p := c.params()
	p["mode"], p["workload"] = c.mode.String(), c.workload()
	r := newRow(seed, p)
	opts := c.floodOptions()
	var eng, ref flood.Result
	for rep := 0; rep < reps; rep++ {
		repSeed := seed + uint64(rep)
		var m core.Model
		var engRes, refRes flood.Result
		r.timed("warmup", func() { m = warm(c.kind, c.n, c.d, repSeed) })
		r.timed("engine", func() { engRes = flood.Run(m, opts) })
		m = warm(c.kind, c.n, c.d, repSeed)
		r.timed("reference", func() { refRes = flood.RunReference(m, opts) })
		if rep == 0 {
			eng, ref = engRes, refRes
		}
	}
	resultValues(r.Values, eng)
	r.Values["speedup"] = ratio(r.NS["reference"], r.NS["engine"])
	r.audit("flood.RunReference", reflect.DeepEqual(eng, ref))
	return []row{r}
}

// measureWarmup times both constructions, keeping each side's fastest
// repetition's snapshot numbers: a speedup only counts if the sampled
// snapshot looks like the warmed one.
func measureWarmup(c spec, seed uint64, reps int) []row {
	r := newRow(seed, c.params())
	snapshot := func(prefix string, m core.Model) {
		g := m.Graph()
		r.Values[prefix+"_alive"] = float64(g.NumAlive())
		r.Values[prefix+"_live_out_mean"] = 0
		if g.NumAlive() > 0 {
			r.Values[prefix+"_live_out_mean"] = float64(g.NumEdgesLive()) / float64(g.NumAlive())
		}
	}
	for rep := 0; rep < reps; rep++ {
		var m core.Model
		if r.timed("warmup", func() { m = warm(c.kind, c.n, c.d, seed+uint64(rep)) }) {
			snapshot("warm", m)
		}
	}
	for rep := 0; rep < max(reps, 3); rep++ {
		var m core.Model
		if r.timed("sample", func() { m = core.SampleStationary(c.kind, c.n, c.d, rng.New(seed+uint64(rep))) }) {
			snapshot("sampled", m)
		}
	}
	r.Values["speedup"] = ratio(r.NS["warmup"], r.NS["sample"])
	return []row{r}
}

// sweepPars measures one row per worker count in c.pars. The first row is
// the serial baseline: every later row records its speedup on side and is
// audited (oracle kind) against what the serial row's measure returned.
func sweepPars(c spec, seed uint64, params map[string]any, side, kind string, measure func(r *row, par int) any) []row {
	var rows []row
	var serial any
	for _, par := range c.pars {
		r := newRow(seed, maps.Clone(params))
		r.Case["par"] = par
		got := measure(&r, par)
		if rows == nil {
			serial = got
		} else {
			r.Values["speedup_vs_serial"] = ratio(rows[0].NS[side], r.NS[side])
			r.audit(kind, reflect.DeepEqual(got, serial))
		}
		rows = append(rows, r)
	}
	return rows
}

// measureFloodPar builds models by stationary sampling (simulated warm-up
// would dominate at n = 10⁷, and the engine contract is
// warm-up-agnostic); identical seeds build identical models at every
// worker count, so the audit is exact.
func measureFloodPar(c spec, seed uint64, reps int) []row {
	if c.op == "wire-fill" {
		p := map[string]any{"op": c.op, "n": c.n, "d": c.d}
		return sweepPars(c, seed, p, "wire", "serial adjacency hash", func(r *row, par int) any {
			return wireFill(r, c.n, c.d, par, seed, reps)
		})
	}
	p := c.params()
	p["op"], p["workload"] = "flood", c.workload()
	return sweepPars(c, seed, p, "flood", "serial flood.Run", func(r *row, par int) any {
		opts := c.floodOptions()
		opts.Parallelism = par
		var first flood.Result
		for rep := 0; rep < reps; rep++ {
			var m core.Model
			var res flood.Result
			r.timed("build", func() { m = core.SampleStationaryPar(c.kind, c.n, c.d, rng.New(seed+uint64(rep)), par) })
			r.timed("flood", func() { res = flood.Run(m, opts) })
			if rep == 0 {
				first = res
			}
		}
		resultValues(r.Values, first)
		return first
	})
}

// wireFill times graph.WireSnapshotEdgesPar alone on a synthetic uniform
// d-out spec (the snapshot samplers' workload shape) and returns an
// adjacency hash covering out-target and in-source order, so a layout
// divergence can never hide behind a fast fill.
//
//churnvet:hookexempt microbenchmark times the bare fill; no hook subscriber exists in this process
func wireFill(r *row, n, d, workers int, seed uint64, reps int) uint64 {
	var hash uint64
	for rep := 0; rep < reps; rep++ {
		rn := rng.New(seed) // same spec every rep and every worker count
		starts := make([]int32, n+1)
		targets := make([]uint32, 0, n*d)
		for s := 0; s < n; s++ {
			for j := 0; j < d && n > 1; j++ {
				t := rn.Intn(n - 1)
				if t >= s {
					t++
				}
				targets = append(targets, uint32(t))
			}
			starts[s+1] = int32(len(targets))
		}
		g := graph.New(n, d)
		for i := 0; i < n; i++ {
			g.AddNode(float64(i))
		}
		r.timed("wire", func() { g.WireSnapshotEdgesPar(starts, targets, workers) })
		if rep == 0 {
			hash = adjacencyHash(g, n)
		}
	}
	return hash
}

// adjacencyHash folds every node's out-target and in-source sequences
// (order included) into one FNV-64 value.
func adjacencyHash(g *graph.Graph, n int) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 4)
	put := func(v uint32) {
		buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(buf)
	}
	for s := 0; s < n; s++ {
		hd := graph.Handle{Slot: uint32(s), Gen: 1}
		put(^uint32(0)) // node separator
		g.OutTargets(hd, func(x graph.Handle) bool { put(x.Slot); return true })
		put(^uint32(1))
		g.InSources(hd, func(x graph.Handle) bool { put(x.Slot); return true })
	}
	return h.Sum64()
}

// measureEdgeRate counts the OnEdge stream feeding the cut engine under
// PDGR dynamics with c.policy over a window of c.window time units, then
// floods the measured network once on the engine (the F22 engine-reuse
// signal at scale).
func measureEdgeRate(c spec, seed uint64, _ int) []row {
	p := c.params()
	p["policy"], p["window"] = c.policy.String(), c.window
	r := newRow(seed, p)
	m := core.NewPoissonVariant(c.n, c.d, true, c.policy, rng.New(seed))
	r.timed("warmup", m.WarmUp)

	g := m.Graph()
	var events, births, deaths, bursts, maxBurst int
	m.SetHooks(core.Hooks{
		OnBirth: func(graph.Handle) { births++ },
		OnDeath: func(h graph.Handle) {
			deaths++
			// The hook fires before removal: the live in-degree is exactly
			// the number of rule-3 regenerations this death triggers.
			b := g.InDegreeLive(h)
			bursts += b
			maxBurst = max(maxBurst, b)
		},
		OnEdge: func(u, v graph.Handle) { events++ },
	})
	m.AdvanceTime(float64(c.window))
	m.SetHooks(core.Hooks{})
	v := r.Values
	v["on_edge_events"], v["births"], v["deaths"] = float64(events), float64(births), float64(deaths)
	v["events_per_unit"] = float64(events) / float64(c.window)
	v["regen_share"], v["max_regen_burst"], v["mean_regen_burst"] = 0, float64(maxBurst), 0
	if events > 0 {
		v["regen_share"] = float64(events-c.d*births) / float64(events)
	}
	if deaths > 0 {
		v["mean_regen_burst"] = float64(bursts) / float64(deaths)
	}

	for !g.IsAlive(m.LastBorn()) {
		m.AdvanceRound()
	}
	var res flood.Result
	r.timed("flood", func() { res = flood.Run(m, flood.Options{Source: m.LastBorn()}) })
	v["flood_completed"], v["completion_round"] = b2f(res.Completed), float64(res.CompletionRound)
	return []row{r}
}

// expansionConfigs keeps the tracked families comparable to the rescan
// side's search: the same ladder and adversarial family kinds, fewer
// random draws per size — the tracker keeps its sets between
// observations, the search redraws them every time. Capped configs bound
// greedy growth (quadratic in its cap) on both sides.
func expansionConfigs(capped bool) (expansion.TrackerConfig, expansion.Config) {
	tc := expansion.TrackerConfig{
		Singletons:        8,
		RandomSetsPerSize: 2,
		BFSSeeds:          4,
		GreedySeeds:       2,
		ReseedEvery:       8, // once inside the 12-round window
		Parallelism:       flood.Auto,
	}
	if !capped {
		return tc, expansion.Config{}
	}
	tc.LadderStride, tc.MaxBFSSize, tc.MaxGreedySize = 2, 1<<16, 1024
	return tc, expansion.Config{SampleTrialsPerSize: 8, BFSSeeds: 4, GreedySeeds: 2, MaxGreedySize: 1024}
}

// measureExpansion tracks a churn window with an observation per round
// against a fresh witness search per observation on an identically seeded
// model. Models are built by stationary sampling (the tracker contract is
// warm-up-agnostic).
func measureExpansion(c spec, seed uint64, reps int) []row {
	p := c.params()
	p["window"] = c.window
	r := newRow(seed, p)
	trackerCfg, estimateCfg := expansionConfigs(c.capped)
	checkAt := map[int]bool{1: true, c.window / 2: true, c.window: true}
	rescanEqual := true
	for rep := 0; rep < reps; rep++ {
		repSeed := seed + uint64(rep)
		var m core.Model
		r.timed("build", func() { m = core.SampleStationary(c.kind, c.n, c.d, rng.New(repSeed)) })

		// Tracker side: the rescan audit at checkAt runs off the clock.
		runtime.GC()
		trackerMin := math.Inf(1)
		var trackerNs int64
		t0 := time.Now()
		tr := expansion.NewTracker(m, rng.New(repSeed^0xe1), trackerCfg)
		for round := 1; round <= c.window; round++ {
			m.AdvanceRound()
			trackerMin = min(trackerMin, tr.Observe().Min)
			if checkAt[round] {
				trackerNs += int64(time.Since(t0))
				rescanEqual = rescanEqual && expansion.VerifyTracker(m.Graph(), tr) == nil
				t0 = time.Now()
			}
		}
		trackerNs += int64(time.Since(t0))
		r.keepMin("tracker", trackerNs)
		if rep == 0 {
			r.Values["tracker_min"] = trackerMin
			r.Values["tracked_sets"] = float64(tr.NumSets())
			r.Values["reseeds"] = float64(tr.Reseeds())
			r.Values["tracker_par"] = float64(tr.Parallelism())
		}
		tr.Close()

		// Rescan side: identical model and advancement.
		m = core.SampleStationary(c.kind, c.n, c.d, rng.New(repSeed))
		estR := rng.New(repSeed ^ 0xe2)
		estimateMin := math.Inf(1)
		r.timed("estimate", func() {
			for round := 1; round <= c.window; round++ {
				m.AdvanceRound()
				got, _ := expansion.Estimate(m.Graph(), estR, estimateCfg).Min()
				estimateMin = min(estimateMin, got)
			}
		})
		if rep == 0 {
			r.Values["estimate_min"] = estimateMin
		}
	}
	r.Values["observations"] = float64(c.window)
	r.Values["speedup"] = ratio(r.NS["estimate"], r.NS["tracker"])
	r.audit("BoundarySize rescan", rescanEqual)
	return []row{r}
}

// trafficOracleSampleCap bounds the per-row oracle replays: rows up to
// this many messages are audited in full, larger rows by an evenly spaced
// sample including the first and last admissions — the replay rebuilds
// the model per message, which at M = 1024 would otherwise dominate the
// row by an order of magnitude.
const trafficOracleSampleCap = 64

// trafficSource picks the injection source the way Flood defaults do —
// the most recently born node — falling back to the newest alive node
// when churn already evicted it (possible in Poisson models). The oracle
// replays the recorded handle, so any deterministic rule is exact.
func trafficSource(m core.Model) graph.Handle {
	if src := m.LastBorn(); m.Graph().IsAlive(src) {
		return src
	}
	return m.Graph().Newest()
}

// measureTraffic runs the plane until every message finished, retiring
// messages as they deliver, then replays the first repetition's messages
// as independent reference floods. Models are built by stationary
// sampling (the plane contract is warm-up-agnostic); identical seeds
// rebuild identical models for the replays.
func measureTraffic(c spec, seed uint64, reps int) []row {
	par := c.par
	if par < 0 {
		par = graph.AutoWorkers(c.n)
	}
	p := c.params()
	p["schedule"], p["gap"], p["messages"], p["par"] = c.schedule, c.gap, c.messages, par
	r := newRow(seed, p)
	v := r.Values

	// Each admitted message of the first repetition: its step, source
	// and final Result, for the oracle.
	type injection struct {
		step int
		src  graph.Handle
		res  flood.Result
	}
	var first []injection
	for rep := 0; rep < reps; rep++ {
		repSeed := seed + uint64(rep)
		steps, err := flood.TrafficSchedule(c.schedule, c.messages, c.gap, repSeed)
		if err != nil {
			fatal("%v", err)
		}
		var m core.Model
		r.timed("build", func() { m = core.SampleStationaryPar(c.kind, c.n, c.d, rng.New(repSeed), par) })

		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var recs []injection
		var mem flood.TrafficMemStats
		var planeSteps int
		r.timed("traffic", func() {
			plane := flood.NewTraffic(m, flood.TrafficOptions{Parallelism: c.par})
			ids := make([]flood.MessageID, 0, len(steps))
			for next := 0; next < len(steps) || plane.Live() > 0; {
				for ; next < len(steps) && steps[next] == plane.Steps(); next++ {
					src := trafficSource(m)
					ids = append(ids, plane.Inject(src))
					recs = append(recs, injection{step: plane.Steps(), src: src})
				}
				plane.Step()
				for i, id := range ids {
					if plane.Status(id) == flood.MessageDone {
						recs[i].res = plane.Result(id)
						plane.Retire(id)
					}
				}
			}
			planeSteps, mem = plane.Steps(), plane.MemStats()
			plane.Close()
		})
		if rep > 0 {
			continue
		}
		runtime.ReadMemStats(&ms1)
		first = recs
		v["traffic_alloc_bytes"] = float64(ms1.TotalAlloc - ms0.TotalAlloc)
		v["steps"], v["lanes"], v["words_per_slot"] = float64(planeSteps), float64(mem.Lanes), float64(mem.WordsPerSlot)
		v["informed_bytes_per_lane"], v["informed_bytes_per_lane_baseline"], v["informed_reduction_x"] = 0, 0, 0
		if mem.Lanes > 0 {
			v["informed_bytes_per_lane"] = float64(mem.PackedInformedBytes) / float64(mem.Lanes)
			v["informed_bytes_per_lane_baseline"] = float64(mem.MarksBaselineBytes) / float64(mem.Lanes)
			if v["informed_bytes_per_lane"] > 0 {
				v["informed_reduction_x"] = v["informed_bytes_per_lane_baseline"] / v["informed_bytes_per_lane"]
			}
		}
	}

	delivered := 0
	for _, rec := range first {
		if rec.res.Completed {
			delivered++
			v[fmt.Sprintf("completed_in_round_%d", rec.res.CompletionRound)]++
		}
	}
	v["delivered"] = float64(delivered)
	v["delivered_per_sec"] = float64(delivered) / (float64(r.NS["traffic"]) / 1e9)

	// The oracle: every message up to trafficOracleSampleCap, an evenly
	// spaced sample (first and last admissions included) above it.
	audit := make([]int, 0, trafficOracleSampleCap)
	for k := 0; k < min(len(first), trafficOracleSampleCap); k++ {
		i := k
		if len(first) > trafficOracleSampleCap {
			i = k * (len(first) - 1) / (trafficOracleSampleCap - 1)
		}
		if len(audit) == 0 || audit[len(audit)-1] != i {
			audit = append(audit, i)
		}
	}
	equal := true
	r.timed("oracle", func() {
		for _, i := range audit {
			m := core.SampleStationaryPar(c.kind, c.n, c.d, rng.New(seed), par)
			for s := 0; s < first[i].step; s++ {
				m.AdvanceRound()
			}
			equal = equal && reflect.DeepEqual(first[i].res, flood.RunReference(m, flood.Options{Source: first[i].src}))
		}
	})
	v["oracle_audited"] = float64(len(audit))
	r.audit("flood.RunReference replay", equal)
	return []row{r}
}
