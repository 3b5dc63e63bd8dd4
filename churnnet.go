// Package churnnet is a library of dynamic random networks with node churn,
// reproducing “Expansion and Flooding in Dynamic Random Networks with Node
// Churn” (Becchetti, Clementi, Pasquale, Trevisan, Ziccardi; ICDCS 2021,
// arXiv:2007.14681).
//
// It provides:
//
//   - the paper's four network models — streaming or Poisson node churn,
//     each with or without edge regeneration (SDG, SDGR, PDG, PDGR);
//   - the flooding processes of Definitions 3.3, 4.2 and 4.3;
//   - vertex-expansion measurement (exact for small graphs, witness search
//     at scale);
//   - structural analysis (isolated nodes, degrees, age demographics);
//   - the onion-skin cascades used by the paper's proofs; and
//   - the full experiment suite regenerating every table and quantitative
//     claim of the paper (see EXPERIMENTS.md).
//
// Quickstart:
//
//	m := churnnet.NewWarmModel(churnnet.PDGR, 10_000, 35, 1)
//	res := churnnet.Flood(m, churnnet.FloodOptions{})
//	fmt.Printf("completed=%v in %d rounds\n", res.Completed, res.CompletionRound)
//
// All randomness flows from explicit seeds; identical seeds reproduce runs
// bit for bit.
package churnnet

import (
	"fmt"
	"io"

	"github.com/dyngraph/churnnet/internal/analysis"
	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/expansion"
	"github.com/dyngraph/churnnet/internal/experiments"
	"github.com/dyngraph/churnnet/internal/flood"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/graphio"
	"github.com/dyngraph/churnnet/internal/onion"
	"github.com/dyngraph/churnnet/internal/overlay"
	"github.com/dyngraph/churnnet/internal/report"
	"github.com/dyngraph/churnnet/internal/rng"
	"github.com/dyngraph/churnnet/internal/staticgraph"
	"github.com/dyngraph/churnnet/internal/trace"
)

// ModelKind identifies one of the paper's dynamic-graph models.
type ModelKind = core.Kind

// The four models of the paper plus the churn-free Static baseline wrapper.
const (
	// SDG is the streaming model without edge regeneration (Def. 3.4).
	SDG = core.SDG
	// SDGR is the streaming model with edge regeneration (Def. 3.13).
	SDGR = core.SDGR
	// PDG is the Poisson model without edge regeneration (Def. 4.9).
	PDG = core.PDG
	// PDGR is the Poisson model with edge regeneration (Def. 4.14).
	PDGR = core.PDGR
	// Static is the kind reported by churn-free baseline models.
	Static = core.Static
)

// ModelKinds lists the four dynamic models in the paper's order.
func ModelKinds() []ModelKind { return core.Kinds() }

// Model is a live dynamic network; see the core package for semantics.
//
// Every Model must keep the edge-event contract stated on core.Model: each
// created or re-pointed edge fires Hooks.OnEdge, and an edge disappears
// only with an endpoint whose death fires Hooks.OnDeath. Flood, NewTraffic
// and TrackExpansion ride that stream with no fallback to a rescan, so a
// third-party Model that changes edges without firing the hooks silently
// corrupts their results.
type Model = core.Model

// Graph is the snapshot structure underlying every model.
type Graph = graph.Graph

// Handle identifies a node; invalidated when the node dies.
type Handle = graph.Handle

// Hooks receive birth, death and edge-creation callbacks from a model.
type Hooks = core.Hooks

// RNG is the deterministic generator used across the library.
type RNG = rng.RNG

// NewRNG returns a deterministic generator for the seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// NewModel builds an empty (un-warmed) model of the given kind with size
// parameter n and out-degree d, seeded deterministically.
func NewModel(kind ModelKind, n, d int, seed uint64) Model {
	return core.New(kind, n, d, rng.New(seed))
}

// NewWarmModel builds a model and warms it to its measurement-ready state:
// 2n rounds for streaming models, 7·n·ln n churn events for Poisson models
// (the paper's horizons). For large n prefer NewStationaryModel, which
// reaches the same state distribution in O(n·d) by sampling it directly.
func NewWarmModel(kind ModelKind, n, d int, seed uint64) Model {
	m := NewModel(kind, n, d, seed)
	core.WarmUp(m)
	return m
}

// NewStationaryModel builds a measurement-ready model by sampling the
// stationary snapshot directly — the stationary age profile (the last n
// rounds for streaming models; a Poisson(n)-sized population with
// exponential ages for Poisson models) wired per the destination laws of
// Lemmas 3.14/4.15 — instead of simulating the warm-up transient. It is
// equivalent to NewWarmModel in distribution (exactly for SDG/SDGR, with
// exact marginals for PDG/PDGR; the contract is pinned by the
// distributional-equivalence suite in internal/core) but runs in O(n·d):
// at n = 10⁶ it replaces minutes of Poisson warm-up with about a second
// (see BENCH_warmup.json). Deterministic given the seed, though a
// different draw than NewWarmModel with the same seed.
func NewStationaryModel(kind ModelKind, n, d int, seed uint64) Model {
	return core.SampleStationary(kind, n, d, rng.New(seed))
}

// NewStationaryModelPar is NewStationaryModel with the snapshot-wiring
// arena fill sharded over `workers` goroutines (the counting-sort passes
// shard by slot range; see DESIGN.md, "Sharded cut execution"). The
// sampled model is bit-for-bit identical at every worker count — the knob
// only spends more cores on the O(n·d) fill.
func NewStationaryModelPar(kind ModelKind, n, d int, seed uint64, workers int) Model {
	return core.SampleStationaryPar(kind, n, d, rng.New(seed), workers)
}

// NewReadyModel builds a measurement-ready model: NewStationaryModel when
// fastWarmUp is set, NewWarmModel otherwise — the one dispatch point
// behind every fast-warm-up knob (ExperimentConfig.FastWarmUp, the CLIs'
// -fastwarmup flags).
func NewReadyModel(kind ModelKind, n, d int, seed uint64, fastWarmUp bool) Model {
	return core.NewReadyModel(kind, n, d, rng.New(seed), fastWarmUp)
}

// NewReadyModelPar is NewReadyModel with the fast-warm-up snapshot wiring
// sharded over `workers` goroutines (simulated warm-up is inherently
// serial and ignores the knob); the built model is bit-for-bit identical
// at every worker count. It backs the CLIs' -floodpar flag on -fastwarmup
// runs.
func NewReadyModelPar(kind ModelKind, n, d int, seed uint64, fastWarmUp bool, workers int) Model {
	return core.NewReadyModelPar(kind, n, d, rng.New(seed), fastWarmUp, workers)
}

// NewStaticModel wraps a fixed graph as a churn-free Model (the baseline of
// Lemma B.1 and a harness for custom topologies).
func NewStaticModel(g *Graph, d int) Model { return core.NewStaticModel(g, d) }

// NewDOutGraph builds the static random graph of Lemma B.1: n nodes, each
// making d uniform requests.
func NewDOutGraph(n, d int, seed uint64) (*Graph, []Handle) {
	return staticgraph.DOut(n, d, rng.New(seed))
}

// --- flooding ---

// FloodOptions configures a flooding run.
type FloodOptions = flood.Options

// FloodResult reports a flooding run.
type FloodResult = flood.Result

// FloodMode selects discretized (Def. 4.3) or asynchronous (Def. 4.2)
// semantics.
type FloodMode = flood.Mode

// Flooding modes.
const (
	// Discretized requires senders to survive the transmission interval.
	Discretized = flood.Discretized
	// Asynchronous admits receivers once the edge existed at the start of
	// the interval.
	Asynchronous = flood.Asynchronous
)

// FloodAuto, assigned to FloodOptions.Parallelism or passed as the worker
// count of NewReadyModelPar / NewStationaryModelPar, selects the automatic
// parallelism policy: the shard count is picked from GOMAXPROCS and the
// structure size (AutoParallelism). Results are bit-for-bit identical at
// every setting; the cmds' -floodpar 0 maps here.
const FloodAuto = flood.Auto

// AutoParallelism returns the worker-shard count the FloodAuto policy
// resolves to for a structure of roughly n nodes: one shard per 32Ki
// slots, clamped to [1, GOMAXPROCS].
func AutoParallelism(n int) int { return graph.AutoWorkers(n) }

// Flood broadcasts from opts.Source (default: the newest node) over m.
//
// Flood runs the incremental cut-set engine over the model's edge-event
// stream (see Model): it maintains the informed→uninformed candidate edges
// under churn instead of rescanning every informed neighborhood each
// round, with results bit-for-bit identical to the definition-level
// reference implementation (see DESIGN.md, "The cut-set flooding engine").
func Flood(m Model, opts FloodOptions) FloodResult { return flood.Run(m, opts) }

// --- multi-message traffic ---

// Traffic is the multi-message traffic plane: M in-flight broadcasts over
// one model, one churn event stream and one hook chain, with the
// cut-maintenance passes batched across messages inside the same
// worker-shard sweep a single flood uses. Inject admits a message at the
// current round, Step advances the network one transmission unit for every
// in-flight message, and Retire releases a finished message's state so
// memory stays O(live messages). Per-message Results are bit-for-bit what
// M independent Flood calls replaying the same churn stream would produce
// (see DESIGN.md, "Multi-message traffic plane").
type Traffic = flood.Traffic

// TrafficOptions configures a traffic plane; options apply uniformly to
// every injected message. The Parallelism knob has the FloodOptions
// contract: 0 or 1 serial, FloodAuto (negative) automatic, identical
// results at every setting.
type TrafficOptions = flood.TrafficOptions

// MessageID identifies a message admitted to a Traffic plane; IDs are
// dense in admission order and never reused.
type MessageID = flood.MessageID

// MessageStatus is the lifecycle state of an injected message.
type MessageStatus = flood.MessageStatus

// Message lifecycle states.
const (
	// MessageInFlight marks a message that still floods on every Step.
	MessageInFlight = flood.MessageInFlight
	// MessageDone marks a finished message whose lane awaits Retire.
	MessageDone = flood.MessageDone
	// MessageRetired marks a released lane; the Result stays queryable.
	MessageRetired = flood.MessageRetired
)

// TrafficMemStats describes a plane's per-slot memory layout — slots,
// lanes, words per slot, the packed informed footprint versus the
// one-Marks-per-lane baseline, and the cut-count store; see
// Traffic.MemStats.
type TrafficMemStats = flood.TrafficMemStats

// NewTraffic opens a traffic plane over m. The plane owns the model until
// Close: advance it only through Step. The plane relies on the model's
// edge-event contract (see Model).
func NewTraffic(m Model, opts TrafficOptions) *Traffic { return flood.NewTraffic(m, opts) }

// TrafficSchedule generates the injection steps of a named schedule —
// "burst" (all messages at step 0), "staggered" (one every gap steps) or
// "poisson" (Poisson arrivals at rate 1/gap), deterministic in the seed.
// Message i of the returned slice is injected after that many plane Steps.
func TrafficSchedule(schedule string, messages, gap int, seed uint64) ([]int, error) {
	return flood.TrafficSchedule(schedule, messages, gap, seed)
}

// --- expansion ---

// ExpansionConfig tunes the witness search of EstimateExpansion.
type ExpansionConfig = expansion.Config

// ExpansionProfile holds the best low-expansion witnesses found per size.
type ExpansionProfile = expansion.Profile

// ExpansionWitness is one measured candidate set.
type ExpansionWitness = expansion.Witness

// EstimateExpansion searches g for low-expansion witnesses (upper bounds on
// the vertex isoperimetric number h_out of Definition 3.1).
func EstimateExpansion(g *Graph, seed uint64, cfg ExpansionConfig) *ExpansionProfile {
	return expansion.Estimate(g, rng.New(seed), cfg)
}

// ExactExpansion computes h_out exactly by exhaustive enumeration; it
// panics when the graph has more than expansion.ExactLimit (20) nodes.
func ExactExpansion(g *Graph) (float64, []Handle) { return expansion.Exact(g) }

// BoundarySize returns |∂out(S)| for a node set.
func BoundarySize(g *Graph, set []Handle) int { return expansion.BoundarySize(g, set) }

// ExpansionTracker is the incremental expansion-witness engine: it rides
// a model's OnEdge/OnDeath event stream (the same contract the flooding
// engine uses) and maintains |S|, |∂out(S)| and the ratio of a family of
// tracked witness sets under churn in O(events), instead of the O(n·d)
// per-snapshot rescan of EstimateExpansion. Its numbers are bit-for-bit
// what fresh BoundarySize rescans of the same sets would compute — pinned
// by the rescan-oracle suite in internal/expansion — and bit-for-bit
// invariant across its worker-shard counts. See DESIGN.md, "Incremental
// expansion tracking".
type ExpansionTracker = expansion.Tracker

// ExpansionTrackerConfig tunes the tracked witness families, the re-seed
// cadence and the seeding-sweep parallelism.
type ExpansionTrackerConfig = expansion.TrackerConfig

// ExpansionObservation is one time-resolved expansion measurement.
type ExpansionObservation = expansion.Observation

// ExpansionSetState reports one tracked set (ExpansionTracker.Sets).
type ExpansionSetState = expansion.SetState

// WitnessFamily identifies the candidate family a tracked set came from.
type WitnessFamily = expansion.Family

// TrackExpansion attaches an ExpansionTracker to m, seeded from the
// current snapshot: advance the model, call Observe for time-resolved
// h_out upper bounds, and Close to release the hook chain. The tracker
// chains onto existing hooks, and Flood may run over a tracked model —
// both observers share the event stream. The tracker relies on the
// model's edge-event contract (see Model).
func TrackExpansion(m Model, seed uint64, cfg ExpansionTrackerConfig) *ExpansionTracker {
	return expansion.NewTracker(m, rng.New(seed), cfg)
}

// SpectralGap estimates 1 − λ₂ of the lazy random walk on the snapshot: a
// witness-free expansion proxy (0 for disconnected graphs, constant for
// expanders) that cross-checks EstimateExpansion. The estimate can only
// overstate the true gap, so it certifies no expansion. iters <= 0 selects
// a default.
func SpectralGap(g *Graph, iters int, seed uint64) float64 {
	return expansion.SpectralGap(g, iters, rng.New(seed))
}

// --- analysis ---

// DegreeStats summarizes a snapshot's degree distribution.
type DegreeStats = analysis.DegreeStats

// Degrees measures the live-degree distribution of a snapshot.
func Degrees(g *Graph) DegreeStats { return analysis.Degrees(g) }

// IsolatedFraction returns the fraction of alive nodes with no live edge.
func IsolatedFraction(g *Graph) float64 { return analysis.IsolatedFraction(g) }

// LifetimeIsolationResult reports a LifetimeIsolation measurement.
type LifetimeIsolationResult = analysis.LifetimeIsolationResult

// LifetimeIsolation counts nodes that stay isolated for their whole
// remaining lifetime (Lemmas 3.5/4.10); models without regeneration only.
func LifetimeIsolation(m Model, maxRounds int) LifetimeIsolationResult {
	return analysis.LifetimeIsolation(m, maxRounds)
}

// InDegreeByAgeQuantile returns mean live in-degree per age cohort (oldest
// first) — the observable of the Lemma 3.14/4.15 destination laws.
func InDegreeByAgeQuantile(g *Graph, buckets int) []float64 {
	return analysis.InDegreeByAgeQuantile(g, buckets)
}

// AgeProfile counts alive nodes per age slice (Theorem 4.16's demographic
// vector).
func AgeProfile(g *Graph, now, sliceWidth float64) []int {
	return analysis.AgeProfile(g, now, sliceWidth)
}

// --- onion-skin cascades ---

// OnionResult reports an onion-skin cascade run.
type OnionResult = onion.Result

// OnionStreaming runs the Section 3.1.2 cascade for SDG parameters (n, d).
func OnionStreaming(n, d int, seed uint64) OnionResult {
	return onion.Streaming(n, d, rng.New(seed))
}

// OnionExtended runs the Section 7.2.4 cascade for PDG parameters; m <= 0
// samples the population from [0.9n, 1.1n].
func OnionExtended(n, d, m int, seed uint64) OnionResult {
	return onion.Extended(n, d, m, rng.New(seed))
}

// ComponentStats describes the connected-component structure of a snapshot.
type ComponentStats = analysis.ComponentStats

// Components computes the connected components of the alive graph.
func Components(g *Graph) ComponentStats { return analysis.Components(g) }

// --- extensions beyond the paper's core models ---

// DegreePolicy modifies destination draws in Poisson models, exploring the
// paper's Section 5 open question (bounded-degree dynamics): a hard
// inbound cap and/or power-of-k least-loaded choices.
type DegreePolicy = core.DegreePolicy

// NewPoissonVariantModel builds a PDG/PDGR model whose request
// destinations follow the policy (zero policy = the paper's uniform draw).
// The model is returned un-warmed.
func NewPoissonVariantModel(n, d int, regen bool, policy DegreePolicy, seed uint64) Model {
	return core.NewPoissonVariant(n, d, regen, policy, rng.New(seed))
}

// OverlayConfig parameterizes the Bitcoin-style address-gossip overlay.
type OverlayConfig = overlay.Config

// OverlayNetwork is the realistic P2P network of Section 1.1: bounded
// address books, DNS-seeded bootstrap, ADDR gossip and redial on peer
// loss. It implements Model, so Flood and the expansion estimators apply.
type OverlayNetwork = overlay.Overlay

// NewOverlay builds an empty overlay; call its WarmUp (or AdvanceTime) to
// populate it.
func NewOverlay(cfg OverlayConfig, seed uint64) *OverlayNetwork {
	return overlay.New(cfg, rng.New(seed))
}

// --- tracing ---

// TraceProbe samples one observable from a model.
type TraceProbe = trace.Probe

// TraceRecorder accumulates per-round samples and renders them as CSV.
type TraceRecorder = trace.Recorder

// NewTraceRecorder builds a recorder (default probes: time, size, edges,
// degree statistics, isolated fraction).
func NewTraceRecorder(probes ...TraceProbe) *TraceRecorder {
	return trace.NewRecorder(probes...)
}

// DefaultTraceProbes returns the standard probe set.
func DefaultTraceProbes() []TraceProbe { return trace.DefaultProbes() }

// --- snapshot serialization ---

// WriteDOT renders the alive graph as an undirected Graphviz graph.
func WriteDOT(w io.Writer, g *Graph, name string) error { return graphio.WriteDOT(w, g, name) }

// WriteEdgeList emits the snapshot in the plain edge-list format that
// ReadEdgeList parses back.
func WriteEdgeList(w io.Writer, g *Graph) error { return graphio.WriteEdgeList(w, g) }

// ReadEdgeList rebuilds a snapshot written by WriteEdgeList as a static
// graph; handles are returned in birth (ID) order. The reader allocates
// every node the file's header declares, so maxNodes caps that count: a
// header above it is an error, before anything is allocated.
func ReadEdgeList(r io.Reader, maxNodes int) (*Graph, []Handle, error) {
	return graphio.ReadEdgeList(r, maxNodes)
}

// --- experiment suite ---

// Scale selects experiment sizes.
type Scale = experiments.Scale

// Experiment scales.
const (
	// ScaleSmoke finishes in well under a second per experiment.
	ScaleSmoke = experiments.Smoke
	// ScaleStandard is the tablegen default (minutes for the suite).
	ScaleStandard = experiments.Standard
	// ScalePaper uses paper-sized parameters (tens of minutes).
	ScalePaper = experiments.Paper
)

// ParseScale converts "smoke", "standard" or "paper".
func ParseScale(s string) (Scale, error) { return experiments.ParseScale(s) }

// Experiment is one entry of the reproduction suite.
type Experiment = experiments.Experiment

// ExperimentConfig parameterizes experiment execution: scale, root seed,
// the trial-parallelism cap (0 = GOMAXPROCS, 1 = serial), an optional
// per-trial progress callback, the FastWarmUp knob that builds trial
// models by direct stationary sampling (NewStationaryModel) instead of
// simulated warm-up, and the FloodParallelism shard count applied inside
// each single flooding run, fast-warm-up snapshot fill and tracked
// expansion seeding sweep (0 or 1 = serial — the right setting when
// trial-level parallelism already saturates the cores). Results are
// bit-identical at every parallelism setting, trial-level and intra-flood
// alike.
type ExperimentConfig = experiments.Config

// ResultTable is a rendered experiment result.
type ResultTable = report.Table

// ResultReport is the full suite output.
type ResultReport = report.Report

// Experiments lists the suite in order (T1, F1..F24).
func Experiments() []Experiment { return experiments.All() }

// RunExperiment executes one experiment by ID on all available cores.
func RunExperiment(id string, scale Scale, seed uint64) (*ResultTable, error) {
	return RunExperimentWith(id, ExperimentConfig{Scale: scale, Seed: seed})
}

// RunExperimentWith executes one experiment by ID under the full config.
func RunExperimentWith(id string, cfg ExperimentConfig) (*ResultTable, error) {
	e, ok := experiments.ByID(id)
	if !ok {
		return nil, fmt.Errorf("churnnet: unknown experiment %q", id)
	}
	return e.Run(cfg), nil
}

// RunAllExperiments executes the whole suite on all available cores and
// returns the report whose Markdown form is EXPERIMENTS.md.
func RunAllExperiments(scale Scale, seed uint64) *ResultReport {
	return RunAllExperimentsWith(ExperimentConfig{Scale: scale, Seed: seed})
}

// RunAllExperimentsWith executes the whole suite under the full config.
func RunAllExperimentsWith(cfg ExperimentConfig) *ResultReport {
	return experiments.RunAll(cfg)
}

// NewExperimentReport returns the empty suite report (title and intro) for
// cfg — for callers such as cmd/tablegen that run experiments one at a
// time and want per-experiment progress.
func NewExperimentReport(cfg ExperimentConfig) *ResultReport {
	return experiments.NewReport(cfg)
}
