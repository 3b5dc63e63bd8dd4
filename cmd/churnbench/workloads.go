package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/expansion"
	"github.com/dyngraph/churnnet/internal/flood"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
	"github.com/dyngraph/churnnet/internal/serve"
	"github.com/dyngraph/churnnet/internal/stats"
)

const (
	shards  = 2  // engine worker shards (W) in every workload
	clients = 2  // closed-loop HTTP clients of serve-1m
	floodD  = 21 // out-degree of the flood, traffic and expansion models
	serveD  = 20 // out-degree of the served model
	burst   = 64 // messages in one traffic-burst64 burst
	window  = 12 // rounds in one expansion-window
	audited = 8  // burst messages replayed by the single-message oracle

	rateSlots = 10 // time slots serve-1m's throughput is measured in
)

// sizes holds the parameters that differ between the full benchmark and
// the smoke scale the tests run.
type sizes struct {
	floodN, trafficN, expansionN, serveN int
	serveBuilds                          int           // serve.New calls whose median is set-up time
	serveWarmup                          time.Duration // untimed load before the timed window
	probeBytes                           int           // the speed probe's chase table, a power of two
}

var scales = map[string]sizes{
	"full":  {floodN: 1_000_000, trafficN: 100_000, expansionN: 100_000, serveN: 1_000_000, serveBuilds: 3, serveWarmup: 2 * time.Second, probeBytes: 256 << 20},
	"smoke": {floodN: 10_000, trafficN: 2_000, expansionN: 2_000, serveN: 10_000, serveBuilds: 2, serveWarmup: 100 * time.Millisecond, probeBytes: 16 << 20},
}

// trackerConfig is the large-scale tracker configuration of the expansion
// BENCH record: re-seed every 8 rounds, every second ladder rung, BFS balls
// capped at 2^16 and greedy growth at 1024.
var trackerConfig = expansion.TrackerConfig{
	Singletons:        8,
	RandomSetsPerSize: 2,
	BFSSeeds:          4,
	GreedySeeds:       2,
	ReseedEvery:       8,
	LadderStride:      2,
	MaxBFSSize:        1 << 16,
	MaxGreedySize:     1024,
	Parallelism:       shards,
}

// rescanRounds are the window rounds after which the tracker is checked
// against a rescan of every tracked set.
var rescanRounds = map[int]bool{1: true, window / 2: true, window: true}

// env is one run: the parsed flags plus the tracer of a traced run.
type env struct {
	workload string
	seed     uint64
	seconds  time.Duration
	spans    string
	sz       sizes
	tr       *tracer // nil in the untraced run
	probe    *speedProbe

	// corrupt names a checker whose input the run corrupts, so a test can
	// see the check fail: flood, traffic, expansion or serve.
	corrupt string
}

func newEnv(c config) *env {
	e := &env{workload: c.workload, seed: c.seed, seconds: time.Duration(c.seconds) * time.Second, spans: c.spans, sz: scales[c.scale]}
	e.probe = newSpeedProbe(e.sz.probeBytes)
	if c.trace {
		e.tr = newTracer()
	}
	return e
}

// tracerFor returns the tracer for repetition rep: the traced run leaves
// every even repetition untraced, for trace.overhead_frac to compare
// against, and traces the odd ones.
func (e *env) tracerFor(rep int) *tracer {
	if rep%2 == 0 {
		return nil
	}
	return e.tr
}

// reps counts the repetitions of a repetition-based workload against the
// measured time, which leaves out the oracle checks: a repetition starts
// while the run would end closer to --seconds with it than without it,
// and the traced run has at least one untraced and one traced repetition.
type reps struct {
	e     *env
	o     *outcome
	start time.Time
	prev  time.Duration // measured time when the previous repetition started
	n     int
}

func (e *env) reps(o *outcome) *reps { return &reps{e: e, o: o, start: time.Now()} }

func (r *reps) next() bool {
	m := time.Since(r.start) - time.Duration(r.o.check*float64(time.Second))
	more := r.n == 0 || m+(m-r.prev)/2 < r.e.seconds || r.e.tr != nil && r.n < 2
	r.prev = m
	r.n++
	return more
}

// build samples a stationary SDGR model and records the time as set-up.
// Under a tracer the model comes back wrapped in a timedModel.
func (e *env) build(o *outcome, tr *tracer, seed uint64, n int) core.Model {
	runtime.GC() // every repetition starts from the same heap
	o.heap.take()
	o.probes = append(o.probes, e.probe.run())
	id := tr.push("core.sample")
	t0 := time.Now()
	m := core.SampleStationaryPar(core.SDGR, n, floodD, rng.New(seed), shards)
	d := time.Since(t0).Seconds()
	tr.pop(id)
	o.setup = append(o.setup, d)
	o.build = append(o.build, d)
	if tr != nil {
		return newTimedModel(m, tr)
	}
	return m
}

// runFlood is flood-1m: one broadcast from the newest node to completion
// on a fresh model per repetition. The first repetition is replayed with
// flood.RunReference, which must return the identical Result.
func runFlood(e *env) *outcome {
	o := newOutcome()
	var firstSeed uint64
	var first flood.Result
	rounds := 0
	for r, rep := e.reps(o), 0; r.next(); rep++ {
		tr := e.tracerFor(rep)
		seed := repSeed(e.seed, rep)
		m := e.build(o, tr, seed, e.sz.floodN)
		a0 := allocated()
		op := tr.push(spanTimed)
		t0 := time.Now()
		id := tr.push("flood.run")
		res := flood.Run(m, flood.Options{Parallelism: shards})
		tr.pop(id)
		d := time.Since(t0)
		tr.pop(op)
		o.addOp(tr != nil, d, allocated()-a0, b2i(res.Completed))
		o.attempted++
		o.failed += 1 - b2i(res.Completed)
		rounds += res.Rounds
		if rep == 0 {
			firstSeed, first = seed, res
		}
	}
	o.layer["flood.rounds"] = float64(rounds) / float64(o.attempted)
	o.notes = append(o.notes, timingNote("flood_s", o.ops, 1, "s"))

	if e.corrupt == "flood" {
		first.Rounds++
	}
	m := e.build(o, nil, firstSeed, e.sz.floodN)
	id := e.tr.push(spanCheck)
	t0 := time.Now()
	want := flood.RunReference(m, flood.Options{})
	o.check += time.Since(t0).Seconds()
	e.tr.pop(id)
	if !reflect.DeepEqual(first, want) {
		o.fail("flood.Run %+v differs from flood.RunReference %+v", first, want)
	}
	return o
}

// runTraffic is traffic-burst64: a burst of 64 messages from distinct
// seeded sources, injected at round 0 into one traffic plane, stepped
// until every message is done and each retired as it finishes. The
// single-message oracle replays eight of the first burst's messages,
// the first and the last among them, with flood.Run on a rebuilt model.
func runTraffic(e *env) *outcome {
	o := newOutcome()
	var firstSeed uint64
	var firstSrcs []graph.Handle
	var first []flood.Result
	steps := 0
	for r, rep := e.reps(o), 0; r.next(); rep++ {
		tr := e.tracerFor(rep)
		seed := repSeed(e.seed, rep)
		m := e.build(o, tr, seed, e.sz.trafficN)
		alive := m.Graph().AliveHandles()
		srcs := make([]graph.Handle, 0, burst)
		for _, i := range trafficSources(seed, len(alive), burst) {
			srcs = append(srcs, alive[i])
		}

		a0 := allocated()
		op := tr.push(spanTimed)
		t0 := time.Now()
		id := tr.push("traffic.inject")
		plane := flood.NewTraffic(m, flood.TrafficOptions{Parallelism: shards})
		ids := make([]flood.MessageID, len(srcs))
		for i, src := range srcs {
			ids[i] = plane.Inject(src)
		}
		tr.pop(id)
		results := make([]flood.Result, len(ids))
		for plane.Live() > 0 {
			id = tr.push("traffic.step")
			plane.Step()
			tr.pop(id)
			id = tr.push("traffic.poll")
			for i, mid := range ids {
				if plane.Status(mid) == flood.MessageDone {
					results[i] = plane.Result(mid)
					plane.Retire(mid)
				}
			}
			tr.pop(id)
		}
		packed := plane.MemStats().PackedInformedBytes
		plane.Close()
		d := time.Since(t0)
		tr.pop(op)

		delivered := 0
		for _, r := range results {
			delivered += b2i(r.Completed)
		}
		o.addOp(tr != nil, d, allocated()-a0, delivered)
		o.attempted += len(ids)
		o.failed += len(ids) - delivered
		steps += plane.Steps()
		o.layer["traffic.packed_informed_mb"] = float64(packed) / mb
		if rep == 0 {
			firstSeed, firstSrcs, first = seed, srcs, results
		}
	}
	o.layer["traffic.steps"] = float64(steps) / float64(len(o.ops)+len(o.tracedOps))
	o.notes = append(o.notes, timingNote("burst_s", o.ops, 1, "s"))

	if e.corrupt == "traffic" {
		first[0].EverInformed++
	}
	for k := 0; k < audited; k++ {
		i := k * (len(first) - 1) / (audited - 1)
		m := e.build(o, nil, firstSeed, e.sz.trafficN)
		id := e.tr.push(spanCheck)
		t0 := time.Now()
		want := flood.Run(m, flood.Options{Source: firstSrcs[i], Parallelism: shards})
		o.check += time.Since(t0).Seconds()
		e.tr.pop(id)
		if !reflect.DeepEqual(first[i], want) {
			o.fail("traffic message %d: plane Result %+v differs from its single-message flood.Run %+v", i, first[i], want)
		}
	}
	return o
}

// runExpansion is expansion-window: attach an expansion.Tracker to a fresh
// model and run 12 rounds of AdvanceRound plus Observe. In the first
// repetition every tracked set is checked against a rescan after rounds 1,
// 6 and 12, outside the timed window; a rescan costs about a quarter of a
// window, so later repetitions go unchecked, like the other workloads'
// oracles.
func runExpansion(e *env) *outcome {
	o := newOutcome()
	sets, reseeds := 0, 0
	for r, rep := e.reps(o), 0; r.next(); rep++ {
		tr := e.tracerFor(rep)
		seed := repSeed(e.seed, rep)
		m := e.build(o, tr, seed, e.sz.expansionN)

		var checkTime time.Duration
		var checkAlloc uint64
		a0 := allocated()
		op := tr.push(spanTimed)
		t0 := time.Now()
		id := tr.push("expansion.attach")
		tk := expansion.NewTracker(m, rng.New(seed^0xe1), trackerConfig)
		tr.pop(id)
		for round := 1; round <= window; round++ {
			m.AdvanceRound()
			before := tk.Reseeds()
			id = tr.push("expansion.observe")
			obs := tk.Observe()
			tr.pop(id)
			if tk.Reseeds() != before {
				tr.rename(id, "expansion.reseed")
			}
			o.attempted++
			if math.IsInf(obs.Min, 1) {
				o.failed++
			}
			if rep == 0 && rescanRounds[round] {
				c0, ca := time.Now(), allocated()
				id = tr.push(spanCheck)
				if err := rescan(m.Graph(), tk, e.corrupt == "expansion"); err != nil {
					o.errs = append(o.errs, fmt.Errorf("round %d: %w", round, err))
				}
				tr.pop(id)
				checkTime += time.Since(c0)
				checkAlloc += allocated() - ca
			}
		}
		sets += tk.NumSets()
		reseeds += tk.Reseeds()
		tk.Close()
		d := time.Since(t0) - checkTime
		tr.pop(op)
		o.check += checkTime.Seconds()
		o.addOp(tr != nil, d, allocated()-a0-checkAlloc, window)
	}
	windows := float64(len(o.ops) + len(o.tracedOps))
	o.layer["expansion.sets"] = float64(sets) / windows
	o.layer["expansion.reseeds"] = float64(reseeds) / windows
	o.notes = append(o.notes, timingNote("track_window_s", o.ops, 1, "s"))
	return o
}

// rescan compares every tracked set's live size and boundary with a
// from-scratch count on the current graph.
func rescan(g *graph.Graph, tk *expansion.Tracker, corrupt bool) error {
	sets := tk.Sets()
	if corrupt {
		sets[0].Boundary++
	}
	for i, st := range sets {
		live := 0
		for _, h := range st.Members {
			live += b2i(g.IsAlive(h))
		}
		if want := expansion.BoundarySize(g, st.Members); st.Live != live || st.Boundary != want {
			return fmt.Errorf("tracked set %d (%s): live %d boundary %d, rescan live %d boundary %d",
				i, st.Family, st.Live, st.Boundary, live, want)
		}
	}
	return nil
}

// runServe is serve-1m: the churnd server in process on loopback HTTP,
// publishing a snapshot after every write. Set-up builds the server, then
// injects one broadcast and steps it to completion. Two closed-loop
// keep-alive clients then run their seeded scripts, untimed for the
// warm-up and timed for the measured seconds. The final snapshot is
// audited with serve.VerifySnapshot.
func runServe(e *env) *outcome {
	o := newOutcome()
	cfg := serve.Config{Kind: core.SDGR, N: e.sz.serveN, D: serveD, Seed: repSeed(e.seed, 0), Parallelism: shards}
	var s *serve.Server
	for i := 0; i < e.sz.serveBuilds; i++ {
		if s != nil {
			s.Stop()
		}
		runtime.GC()
		o.heap.take()
		o.probes = append(o.probes, e.probe.run())
		id := e.tr.push("serve.new")
		t0 := time.Now()
		s = serve.New(cfg)
		o.build = append(o.build, time.Since(t0).Seconds())
		e.tr.pop(id)
		s.Start()
	}
	defer s.Stop()

	id := e.tr.push("serve.prestep")
	t0 := time.Now()
	o.attempted++
	if _, _, err := s.Inject(0, false); err != nil {
		o.fail("inject: %v", err)
		return o
	}
	for {
		mv, err := s.Current().MsgStatus(0)
		if err != nil {
			o.fail("status of the set-up broadcast: %v", err)
			return o
		}
		if mv.Status != flood.MessageInFlight.String() {
			o.failed += 1 - b2i(mv.Completed)
			break
		}
		if _, err := s.StepRounds(1); err != nil {
			o.fail("step: %v", err)
			return o
		}
	}
	prestep := time.Since(t0).Seconds()
	e.tr.pop(id)
	for _, b := range o.build {
		o.setup = append(o.setup, b+prestep)
	}
	setupSnap := s.Current()

	ld := newLoad(e, s)
	ld.run()
	o.peaks = append(o.peaks, float64(o.heap.take()))
	ld.report(o)
	for range e.sz.serveBuilds {
		o.probes = append(o.probes, e.probe.run())
	}

	id = e.tr.push(spanCheck)
	t0 = time.Now()
	var verr error
	aerr := s.Audit(func(m *serve.LiveModel, plane *flood.Traffic, snap *serve.Snapshot) {
		if e.corrupt == "serve" {
			snap = setupSnap
		}
		verr = serve.VerifySnapshot(m, plane, snap)
		o.layer["traffic.packed_informed_mb"] = float64(plane.MemStats().PackedInformedBytes) / mb
	})
	o.check += time.Since(t0).Seconds()
	e.tr.pop(id)
	if aerr != nil {
		o.fail("audit: %v", aerr)
	} else if verr != nil {
		o.fail("published snapshot differs from the model: %v", verr)
	}
	return o
}

// load is the closed-loop HTTP load of serve-1m.
type load struct {
	e    *env
	s    *serve.Server
	root atomic.Int64 // the traced half's root span once it started, else -1

	warmEnd, half, end time.Time

	mu     sync.Mutex
	lat    [2][2][]float64 // seconds, by [traced][write]
	done   []time.Duration // when untraced timed requests answered 200, from warmEnd
	failed int
	timed  int // timed requests sent

	// Written by the sampler, read once the load has stopped.
	queue                 []float64
	ages                  []float64 // seconds
	version0, version1    uint64
	alloc0, alloc1        uint64
	steps0, steps1, nodes int
}

func newLoad(e *env, s *serve.Server) *load {
	ld := &load{e: e, s: s}
	ld.root.Store(-1)
	ld.warmEnd = time.Now().Add(e.sz.serveWarmup)
	ld.end = ld.warmEnd.Add(e.seconds)
	ld.half = ld.end
	if e.tr != nil {
		ld.half = ld.warmEnd.Add(e.seconds / 2)
	}
	ld.nodes = s.Current().NumNodes()
	return ld
}

// run serves the handler on a loopback listener, drives it with the two
// clients and a sampler, and returns once all of them have stopped.
func (ld *load) run() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ld.mu.Lock()
		ld.failed++
		ld.mu.Unlock()
		return
	}
	h := ld.s.Handler()
	if ld.e.tr != nil {
		h = ld.e.tr.timedHandler(h)
	}
	srv := &http.Server{Handler: h}
	var served sync.WaitGroup
	served.Add(1)
	go func() {
		defer served.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	transport := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	base := "http://" + ln.Addr().String()

	var wg sync.WaitGroup
	wg.Add(clients + 1)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			ld.client(client, base, newScript(ld.e.seed, c, ld.nodes))
		}(c)
	}
	go func() {
		defer wg.Done()
		ld.sample()
	}()
	if ld.e.tr != nil {
		time.Sleep(time.Until(ld.half))
		ld.startTrace()
	}
	wg.Wait()
	if r := ld.root.Load(); r >= 0 {
		ld.e.tr.finish(int(r))
	}
	_ = srv.Close() // every client has stopped, so no request is cut off
	served.Wait()
	transport.CloseIdleConnections()
}

// startTrace opens the traced half: the model's hooks are wrapped on the
// writer goroutine, then the clients start tracing their requests.
func (ld *load) startTrace() {
	tr := ld.e.tr
	_ = ld.s.Audit(func(m *serve.LiveModel, _ *flood.Traffic, _ *serve.Snapshot) {
		m.SetHooks(tr.timedHooks(m.Hooks(), func() int { return -1 }))
	})
	ld.root.Store(int64(tr.start(spanTimed, -1)))
}

// client runs one closed-loop client until the window ends.
func (ld *load) client(hc *http.Client, base string, sc *script) {
	var own []uint64
	for time.Now().Before(ld.end) {
		rq := sc.next()
		method, path, body := http.MethodPost, "", ""
		switch rq.kind {
		case reqNodeInfo:
			method, path = http.MethodGet, fmt.Sprintf("/node-info/%d", rq.node)
		case reqStatus:
			method, path = http.MethodGet, "/status/0"
		case reqJoin:
			path = "/join"
		case reqLeave:
			if len(own) == 0 {
				continue // the join it would undo failed
			}
			path, body = "/leave", fmt.Sprintf(`{"id":%d}`, own[len(own)-1])
			own = own[:len(own)-1]
		case reqStep:
			path, body = "/step", `{"rounds":1}`
		}
		span := -1
		if parent := int(ld.root.Load()); parent >= 0 {
			name := "http.read"
			if rq.kind.write() {
				name = "http.write"
			}
			span = ld.e.tr.start(name, parent)
		}
		t0 := time.Now()
		status, resp := do(hc, base, method, path, body, span)
		d := time.Since(t0)
		if span >= 0 {
			ld.e.tr.finish(span)
		}
		if rq.kind == reqJoin && status == http.StatusOK {
			var out struct {
				IDs []uint64 `json:"ids"`
			}
			if json.Unmarshal(resp, &out) == nil {
				own = append(own, out.IDs...)
			}
		}
		if t0.Before(ld.warmEnd) {
			continue
		}
		ld.mu.Lock()
		ld.timed++
		if status != http.StatusOK {
			ld.failed++
		}
		traced := span >= 0
		ld.lat[b2i(traced)][b2i(rq.kind.write())] = append(ld.lat[b2i(traced)][b2i(rq.kind.write())], d.Seconds())
		if !traced && status == http.StatusOK {
			ld.done = append(ld.done, time.Since(ld.warmEnd))
		}
		ld.mu.Unlock()
	}
}

// do sends one request and returns the status and body; a transport error
// reads as status 0. span, when not -1, goes out as the request id.
func do(hc *http.Client, base, method, path, body string, span int) (int, []byte) {
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		return 0, nil
	}
	if span >= 0 {
		req.Header.Set(requestIDHeader, fmt.Sprint(span))
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, data
}

// sample reads the queue depth and the published snapshot's age every 5ms
// of the timed window, and the snapshot version and plane steps at its
// ends.
func (ld *load) sample() {
	time.Sleep(time.Until(ld.warmEnd))
	snap := ld.s.Current()
	ld.version0, ld.steps0, ld.alloc0 = snap.Version, snap.Steps, allocated()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for now := range tick.C {
		if now.After(ld.end) {
			break
		}
		ld.queue = append(ld.queue, float64(ld.s.QueueLen()))
		ld.ages = append(ld.ages, ld.s.Current().Age(now).Seconds())
	}
	snap = ld.s.Current()
	ld.version1, ld.steps1, ld.alloc1 = snap.Version, snap.Steps, allocated()
}

// report moves the load's measurements into o.
func (ld *load) report(o *outcome) {
	// The operation is a write: reads take tens of microseconds, so their
	// median moves with scheduling noise, while a write pays the publish
	// copy every change to the server's state pays.
	o.ops, o.tracedOps = ld.lat[0][1], ld.lat[1][1]
	// Throughput per tenth of the untraced window, so done_per_s is a
	// median like every other end-to-end number.
	slot := ld.half.Sub(ld.warmEnd) / rateSlots
	counts := make([]int, rateSlots)
	for _, t := range ld.done {
		if i := int(t / slot); i < rateSlots {
			counts[i]++
		}
	}
	for _, c := range counts {
		o.rates = append(o.rates, float64(c)/slot.Seconds())
	}
	o.attempted += ld.timed
	o.failed += ld.failed
	writes := float64(len(ld.lat[0][1]) + len(ld.lat[1][1]))
	o.allocs = []float64{ratio(float64(ld.alloc1-ld.alloc0), writes)}
	o.layer["serve.publishes_per_s"] = float64(ld.version1-ld.version0) / ld.e.seconds.Seconds()
	o.layer["traffic.steps"] = ratio(float64(ld.steps1-ld.steps0), writes)
	o.layer["serve.queue_depth_mean"] = stats.Mean(ld.queue)
	o.layer["serve.queue_depth_max"] = maxOf(ld.queue)
	o.notes = append(o.notes,
		timingNote("read_ms", ld.lat[0][0], 1e3, "ms"),
		timingNote("write_ms", ld.lat[0][1], 1e3, "ms"),
		timingNote("snapshot_age_ms", ld.ages, 1e3, "ms"),
		fmt.Sprintf("snapshot_age_max_ms: %.4g", maxOf(ld.ages)*1e3))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
