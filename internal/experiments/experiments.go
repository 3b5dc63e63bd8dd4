// Package experiments defines the reproduction suite: one experiment per
// table or quantitative claim of the paper, each producing a report.Table
// that records the paper's prediction next to the measured value.
//
// The suite (see DESIGN.md for the full index):
//
//	T1          Table 1 result grid over all four models
//	F1,  F2     isolated nodes (Lemmas 3.5, 4.10)
//	F3,  F4     large-set expansion without regeneration (Lemmas 3.6, 4.11)
//	F5          flooding failure without regeneration (Theorems 3.7, 4.12)
//	F6,  F7     flooding informs most nodes (Theorems 3.8, 4.13)
//	F8,  F9     expansion with regeneration (Theorems 3.15, 4.16)
//	F10, F11    O(log n) flooding with regeneration (Theorems 3.16, 4.20)
//	F12         degrees (Lemma 6.1, Section 5 max-degree remark)
//	F13         edge-destination age bias (Lemmas 3.14, 4.15)
//	F14–F16     pure churn (Lemmas 4.4, 4.7, 4.8)
//	F17         onion-skin cascade (Claims 3.10, 3.11, Lemma 7.8)
//	F18         static d-out baseline (Lemma B.1)
//	F19         ablation: regeneration on/off across d
//	F20         age demographics of PDGR (proof device of Theorem 4.16)
//	F21         overlay realism: address-gossip P2P vs idealized PDGR (§1.1)
//	F22         bounded-degree dynamics (§5 open question)
//	F23         giant component vs informable fraction
//	F24         overlay ablation: when uniform-sampling idealization breaks
//
// Every experiment is deterministic given Config.Seed; trials use split
// RNG streams.
package experiments

import (
	"fmt"
	"sort"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/flood"
	"github.com/dyngraph/churnnet/internal/report"
	"github.com/dyngraph/churnnet/internal/rng"
	"github.com/dyngraph/churnnet/internal/runner"
)

// Scale selects how much work an experiment does.
type Scale uint8

// Scales, from quick smoke runs (used by unit tests and `go test -bench`)
// to paper-sized runs.
const (
	// Smoke finishes in well under a second per experiment.
	Smoke Scale = iota
	// Standard is the default for cmd/tablegen: minutes for the suite.
	Standard
	// Paper uses the largest sizes; expect tens of minutes.
	Paper
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case Smoke:
		return "smoke"
	case Standard:
		return "standard"
	case Paper:
		return "paper"
	default:
		return fmt.Sprintf("Scale(%d)", uint8(s))
	}
}

// ParseScale converts a name to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "smoke":
		return Smoke, nil
	case "standard":
		return Standard, nil
	case "paper":
		return Paper, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (want smoke, standard or paper)", s)
	}
}

// Config parameterizes an experiment run.
type Config struct {
	Scale Scale
	Seed  uint64
	// Parallelism caps how many trials an experiment executes
	// concurrently: 0 uses GOMAXPROCS, 1 runs serially. Results are
	// bit-identical at every setting (see internal/runner for the
	// determinism contract).
	Parallelism int
	// Progress, when non-nil, receives (done, total) ticks as the trials
	// of the current experiment complete. Ticks arrive in completion
	// order, which is scheduling-dependent; everything else is
	// deterministic.
	Progress func(done, total int)
	// FastWarmUp builds measurement-ready models by direct stationary-
	// snapshot sampling (core.SampleStationary, O(n·d)) instead of
	// simulating the warm-up transient (2n rounds / 7·n·ln n jump events).
	// Results remain deterministic given Seed but are a different — equally
	// distributed — draw than the simulated warm-up produces, so the
	// committed EXPERIMENTS.md record keeps the default (off).
	FastWarmUp bool
	// FloodParallelism shards the work *inside* each flooding run
	// (flood.Options.Parallelism), each fast-warm-up snapshot wiring
	// (graph.SnapshotWiring) and, under TrackExpansion, the
	// tracker's seeding sweep (expansion.TrackerConfig.Parallelism) across
	// this many workers. 0 or 1 keeps runs serial — the right setting
	// whenever Parallelism already saturates the cores with concurrent
	// trials; raise it instead when an experiment is dominated by few huge
	// broadcasts, or pass a negative value for the automatic
	// GOMAXPROCS-and-n policy (the cmds' -floodpar 0). Results are
	// bit-identical at every setting.
	FloodParallelism int
	// TrackExpansion switches the expansion experiments (F3/F4/F8/F9)
	// from per-snapshot expansion.Estimate rescans to the event-driven
	// expansion.Tracker: each trial tracks its witness families across a
	// short churn window and reports the minima over time — a strictly
	// stronger observation of the paper's "every snapshot expands" claims
	// (Theorems 3.15/4.16). Default off: the committed EXPERIMENTS.md
	// record uses the per-snapshot search.
	TrackExpansion bool
}

// floodOpts stamps the intra-flood sharding knob onto a flood
// configuration; every flood.Run in the suite goes through it.
func (c Config) floodOpts(o flood.Options) flood.Options {
	o.Parallelism = c.FloodParallelism
	return o
}

// runnerCfg adapts the experiment knobs to the trial engine.
func (c Config) runnerCfg() runner.Config {
	return runner.Config{Workers: c.Parallelism, Progress: runner.Progress(c.Progress)}
}

// parMap runs fn once per job on the experiment's worker pool and returns
// the results in job order. Each fn must derive its randomness from its
// job index alone (cfg.rng with a job-specific salt), which every
// experiment's salting already guarantees.
func parMap[T any](cfg Config, jobs int, fn func(job int) T) []T {
	return runner.MapIndexed(cfg.runnerCfg(), jobs, fn)
}

// parMapRNG runs fn once per trial, handing each a child generator split
// serially from base — for experiments whose trials shared one stream.
func parMapRNG[T any](cfg Config, base *rng.RNG, trials int, fn func(trial int, r *rng.RNG) T) []T {
	return runner.Map(cfg.runnerCfg(), base, trials, fn)
}

// pick selects a value by scale.
func (c Config) pick(smoke, standard, paper int) int {
	switch c.Scale {
	case Smoke:
		return smoke
	case Paper:
		return paper
	default:
		return standard
	}
}

// pickInts selects a slice by scale.
func (c Config) pickInts(smoke, standard, paper []int) []int {
	switch c.Scale {
	case Smoke:
		return smoke
	case Paper:
		return paper
	default:
		return standard
	}
}

// rng derives a deterministic generator for a named sub-stream.
func (c Config) rng(salt uint64) *rng.RNG {
	return rng.New(c.Seed ^ (salt * 0x9e3779b97f4a7c15) ^ 0x2545f4914f6cdd1d)
}

// Experiment couples an identifier and paper reference with its runner.
type Experiment struct {
	ID       string
	Title    string
	PaperRef string
	Claim    string
	Run      func(Config) *report.Table
}

// newTable pre-fills the table header from the experiment metadata.
func (e Experiment) newTable(columns ...string) *report.Table {
	return &report.Table{
		ID:       e.ID,
		Title:    e.Title,
		PaperRef: e.PaperRef,
		Claim:    e.Claim,
		Columns:  columns,
	}
}

var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// All returns the experiments in suite order (T1, F1..F24).
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return suiteOrder(out[i].ID) < suiteOrder(out[j].ID) })
	return out
}

func suiteOrder(id string) int {
	if id == "T1" {
		return 0
	}
	var n int
	if _, err := fmt.Sscanf(id, "F%d", &n); err != nil {
		return 1 << 20
	}
	return n
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// NewReport returns the empty suite report (title and intro) for cfg, for
// callers that run the experiments one at a time.
func NewReport(cfg Config) *report.Report {
	return &report.Report{
		Title: "churnnet — paper-vs-measured results",
		Intro: fmt.Sprintf(
			"Reproduction of “Expansion and Flooding in Dynamic Random Networks with Node Churn”"+
				" (Becchetti, Clementi, Pasquale, Trevisan, Ziccardi; ICDCS 2021)."+
				" Scale: %s, root seed: %d. Every number is deterministic given the seed.",
			cfg.Scale, cfg.Seed),
	}
}

// RunAll executes the full suite and returns the report.
func RunAll(cfg Config) *report.Report {
	r := NewReport(cfg)
	for _, e := range All() {
		r.Add(e.Run(cfg))
	}
	return r
}

// warm builds a measurement-ready model with a split RNG stream: simulated
// warm-up by default, direct stationary sampling under cfg.FastWarmUp
// (with the snapshot fill sharded per cfg.FloodParallelism).
func (c Config) warm(kind core.Kind, n, d int, r *rng.RNG) core.Model {
	return core.NewReadyModelPar(kind, n, d, r, c.FastWarmUp, c.FloodParallelism)
}
