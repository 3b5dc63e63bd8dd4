// Package flood implements the paper's information-diffusion processes over
// the dynamic models of package core:
//
//   - Definition 3.3 (streaming flooding): I_t = (I_{t−1} ∪ ∂out(I_{t−1})) ∩ N_t;
//   - Definition 4.3 ("discretized" flooding, Poisson models): a neighbor is
//     informed only if it was adjacent to an informed node for the *whole*
//     unit interval, i.e. both endpoints survive the interval;
//   - Definition 4.2 ("asynchronous" flooding): the sender need not survive
//     the interval, and every ever-informed node that is still alive stays
//     informed.
//
// All three share one mechanism: capture the (sender, receiver) candidate
// pairs in the snapshot at time t−1, advance the model one transmission
// unit, then admit the receivers that pass the mode's survival conditions.
// For streaming models, where at most one node enters or leaves per round,
// this coincides exactly with Definition 3.3; for Poisson models it is
// Definition 4.3 (Discretized) or 4.2 (Asynchronous).
//
// RunReference captures the candidates by rescanning every informed
// node's neighborhood each round (the executable form of the
// definitions). Traffic, the cut-set engine, maintains them incrementally
// from the models' edge-level events for any number of concurrent
// messages, and Run is its one-message case (see traffic.go). It counts
// each wave of newly informed nodes from the cheaper side: from the
// wave's own neighborhoods while it is sparse, and from the uninformed
// receivers' once the wave outweighs them. Both implementations produce
// bit-for-bit identical Results.
//
// Completion follows Definition 3.3: the broadcast is complete at round t
// when I_t ⊇ N_{t−1} ∩ N_t, i.e. every alive node that was already present
// at the start of the round is informed. StrictlyComplete additionally
// requires I_t ⊇ N_t (nodes born mid-round included), which in Poisson
// models can only hold in rounds with no births.
package flood

import (
	"math/bits"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/graph"
)

// Mode selects the flooding semantics for models with churn.
type Mode uint8

// The flooding variants of Definitions 4.3 and 4.2. For streaming models
// the two coincide (at most one death per round makes the sender-survival
// distinction immaterial only in expectation, so the mode still applies;
// Definition 3.3 corresponds to Asynchronous semantics where the edge
// existed in snapshot G_{t−1}).
const (
	// Discretized requires the sender to survive the whole interval
	// (Definition 4.3) — the worst case used by the paper's upper bounds.
	Discretized Mode = iota
	// Asynchronous admits a receiver as soon as the edge existed in the
	// previous snapshot (Definitions 3.3 and 4.2).
	Asynchronous
)

// String names the mode.
func (m Mode) String() string {
	if m == Asynchronous {
		return "asynchronous"
	}
	return "discretized"
}

// Options configures a flooding run.
type Options struct {
	// Source is the initially informed node; Nil selects the model's most
	// recently born node (the paper's convention for t0).
	Source graph.Handle
	// Mode selects Discretized (default) or Asynchronous semantics.
	Mode Mode
	// MaxRounds caps the run; 0 selects DefaultMaxRounds(model.N()).
	MaxRounds int
	// KeepTrajectory records per-round informed/alive counts.
	KeepTrajectory bool
	// RunToMax keeps flooding after completion (useful when measuring
	// strict completion or re-flooding of newborns).
	RunToMax bool
	// Parallelism is the number of cut-worker shards the incremental
	// engine uses inside this one flooding run: the candidate cut is
	// partitioned by arena slot range, and the frontier drain, the
	// freeze/compaction pass and the admission sweep fan out across the
	// shards (see Traffic, "Sharded execution"). 0 or 1 runs the serial
	// engine; Auto (any negative value) picks the shard count from
	// GOMAXPROCS and the model size via graph.AutoWorkers. Results are
	// bit-for-bit identical at every setting — the knob trades goroutine
	// overhead for multi-core wall clock within a single broadcast,
	// complementing the trial-level parallelism of internal/runner (use
	// one or the other; they compose multiplicatively). RunReference
	// ignores it.
	Parallelism int
}

// Auto, assigned to Options.Parallelism, selects the automatic worker-shard
// policy: the engine resolves it to graph.AutoWorkers(model.N()) at run
// start (graph.NewShards). The cmds' -floodpar 0 maps here.
const Auto = -1

// DefaultMaxRounds returns the default round cap for a network of nominal
// size n: generous against the paper's O(log n) completion results while
// still detecting non-completion quickly.
func DefaultMaxRounds(n int) int {
	if n < 1 {
		n = 1
	}
	return 40*bits.Len(uint(n)) + 60
}

// Result reports a flooding run.
type Result struct {
	// Source is the node the broadcast started from.
	Source graph.Handle
	// Rounds is the number of rounds executed.
	Rounds int
	// Completed reports whether some round had every pre-round node
	// informed (Definition 3.3 completion); CompletionRound is the first
	// such round (-1 if never).
	Completed       bool
	CompletionRound int
	// StrictlyCompleted reports I_t ⊇ N_t at some round; its first round
	// is StrictCompletionRound (-1 if never).
	StrictlyCompleted     bool
	StrictCompletionRound int
	// DiedOut reports that no informed node remained alive; DiedOutRound
	// is the first such round (-1 if never). A died-out broadcast can
	// never complete afterwards.
	DiedOut      bool
	DiedOutRound int
	// PeakInformed is the maximum number of simultaneously alive informed
	// nodes over the run; PeakFraction divides by the concurrent alive
	// count.
	PeakInformed int
	PeakFraction float64
	// FinalInformed and FinalAlive describe the last executed round.
	FinalInformed, FinalAlive int
	// EverInformed counts every node that was informed at least once.
	EverInformed int
	// Informed and Alive are per-round trajectories (index 0 = state at
	// start, before the first transmission), present only when
	// Options.KeepTrajectory is set.
	Informed, Alive []int
}

// FinalFraction returns FinalInformed/FinalAlive (0 when the network is
// empty).
func (r *Result) FinalFraction() float64 {
	if r.FinalAlive == 0 {
		return 0
	}
	return float64(r.FinalInformed) / float64(r.FinalAlive)
}

type pair struct {
	sender, receiver graph.Handle
}

// Run floods over m per opts and returns the outcome. It panics if no
// source node is available (empty network and Nil source).
//
// Run is a one-message Traffic plane: the incremental cut-set engine, which
// rides the model's edge-event stream (core.Model's contract) to maintain
// the informed→uninformed candidate edges under churn instead of rescanning
// every informed neighborhood each round. Its Result is bit-for-bit
// identical to RunReference's — pinned by the differential tests.
func Run(m core.Model, opts Options) Result { return run(m, opts, nil) }

// run is Run with a hook that configures the plane before its one
// Inject; nil configures nothing. Test-only: the oracles set the plane's
// drain direction through it.
func run(m core.Model, opts Options, prep func(*Traffic)) Result {
	t := NewTraffic(m, TrafficOptions{
		Mode:           opts.Mode,
		MaxRounds:      opts.MaxRounds,
		KeepTrajectory: opts.KeepTrajectory,
		RunToMax:       opts.RunToMax,
		Parallelism:    opts.Parallelism,
	})
	defer t.Close()
	if prep != nil {
		prep(t)
	}
	id := t.Inject(opts.Source)
	for t.Live() > 0 {
		t.Step()
	}
	return t.Result(id)
}

// RunReference floods over m per opts with the straightforward per-round
// full rescan of every informed node's neighborhood. It is the executable
// form of Definitions 3.3/4.2/4.3 and the oracle the cut-set engine (Run
// and every Traffic message) is pinned against; use Run for real
// workloads.
func RunReference(m core.Model, opts Options) Result {
	g := m.Graph()
	src := opts.Source
	if src.IsNil() {
		src = m.LastBorn()
	}
	if !g.IsAlive(src) {
		panic("flood: source is not an alive node")
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds(m.N())
	}

	res := Result{
		Source:                src,
		CompletionRound:       -1,
		StrictCompletionRound: -1,
		DiedOutRound:          -1,
		PeakInformed:          1,
		EverInformed:          1,
	}
	alive0 := g.NumAlive()
	if alive0 > 0 {
		res.PeakFraction = 1 / float64(alive0)
	}
	if opts.KeepTrajectory {
		res.Informed = append(res.Informed, 1)
		res.Alive = append(res.Alive, alive0)
	}

	var informedSet, seen graph.Marks
	informedSet.Mark(src)
	informedList := []graph.Handle{src}
	var candidates []pair

	for round := 1; round <= maxRounds; round++ {
		// Capture candidate transmissions in the current snapshot. Every
		// informed node is scanned (not only the latest frontier) because
		// churn keeps attaching new edges to long-informed nodes. Each
		// sender's scan dedups its receivers with an epoch-marked scratch:
		// multigraph parallel edges and the out+in double visit of
		// Neighbors would otherwise repeat (sender, receiver) pairs, and
		// admission only needs some surviving sender per distinct pair.
		candidates = candidates[:0]
		w := 0
		for _, u := range informedList {
			if !g.IsAlive(u) {
				continue
			}
			informedList[w] = u
			w++
			seen.Reset()
			g.Neighbors(u, func(v graph.Handle) bool {
				if !informedSet.Has(v) && seen.Mark(v) {
					candidates = append(candidates, pair{sender: u, receiver: v})
				}
				return true
			})
		}
		informedList = informedList[:w]

		roundStartSeq := g.NextBirthSeq()
		m.AdvanceRound()
		res.Rounds = round

		for _, p := range candidates {
			if !g.IsAlive(p.receiver) {
				continue
			}
			if opts.Mode == Discretized && !g.IsAlive(p.sender) {
				continue
			}
			if informedSet.Mark(p.receiver) {
				informedList = append(informedList, p.receiver)
				res.EverInformed++
			}
		}

		// Round accounting over the new snapshot.
		informedAlive := 0
		required, requiredInformed := 0, 0
		strict := true
		g.ForEachAlive(func(h graph.Handle) bool {
			inf := informedSet.Has(h)
			if inf {
				informedAlive++
			} else {
				strict = false
			}
			if g.BirthSeq(h) < roundStartSeq {
				required++
				if inf {
					requiredInformed++
				}
			}
			return true
		})
		alive := g.NumAlive()
		if opts.KeepTrajectory {
			res.Informed = append(res.Informed, informedAlive)
			res.Alive = append(res.Alive, alive)
		}
		if informedAlive > res.PeakInformed {
			res.PeakInformed = informedAlive
		}
		if alive > 0 {
			if f := float64(informedAlive) / float64(alive); f > res.PeakFraction {
				res.PeakFraction = f
			}
		}
		res.FinalInformed, res.FinalAlive = informedAlive, alive

		if requiredInformed == required && !res.Completed {
			res.Completed = true
			res.CompletionRound = round
		}
		if strict && !res.StrictlyCompleted {
			res.StrictlyCompleted = true
			res.StrictCompletionRound = round
		}
		if informedAlive == 0 {
			res.DiedOut = true
			res.DiedOutRound = round
			break // absorbing: nobody is left to transmit
		}
		if res.Completed && !opts.RunToMax {
			break
		}
	}
	return res
}
