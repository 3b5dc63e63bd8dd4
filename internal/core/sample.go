package core

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"github.com/dyngraph/churnnet/internal/dist"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

// This file implements direct stationary-snapshot sampling: building the
// measurement-ready state of a model in O(n·d) expected work instead of
// simulating the warm-up transient (2n rounds, or 7·n·ln n jump events).
// The paper's stationary laws make the warmed state directly samplable —
// see DESIGN.md, "Stationary snapshot sampling", for the derivations.
//
// Streaming models (exact). At any round t > 2n the alive nodes are exactly
// those born at rounds t−n+1 … t, and churn is deterministic: the node born
// at round β dies at round β+n. A request of the node born at b therefore
// evolves as a chain of birth rounds: the initial destination is uniform
// over births [b−n+1, b−1] (the n−1 other nodes alive at round b, rule 1 /
// Lemma 3.14), and whenever the current destination β dies — at round β+n,
// if β+n ≤ t — the regeneration rule re-points it uniformly over births
// [β+1, β+n−1] minus b (the n−2 nodes alive at that instant other than the
// owner). Each chain step strictly increases β, so a request resolves in
// O(1) expected draws, and requests are conditionally independent given the
// (deterministic) churn, so the sampled snapshot has *exactly* the joint
// law of a warmed model. Without regeneration the chain stops after the
// initial draw; a destination born at or before t−n predeceased the
// snapshot and the request dangles (it is simply not materialized — dead
// out-slots are never read by SDG dynamics).
//
// Poisson models (exact marginals). The churn is the M/M/∞ queue with
// λ = 1, µ = 1/n, whose full trajectory is a marked Poisson process
// (birth time, Exp(1/n) lifetime). Stationarity gives the population
// directly: size ~ Poisson(n) with i.i.d. Exponential(1/n) ages. For the
// edges, a request (re)assigned at time s picks uniformly among the nodes
// alive at s other than its owner; those split into "survivors" — current
// snapshot nodes born before s, which by construction live past the
// snapshot and therefore terminate the request — and "ghosts" — nodes
// alive at s but dead by the snapshot time t. By the independence of a
// Poisson process over disjoint regions, conditional on the entire current
// snapshot the ghosts alive at s form a Poisson(n·(1−e^{−(t−s)/n}))
// population whose death times have density ∝ e^{−(δ−s)/n} on (s, t), so
// the request resolves by a survivor-vs-ghost recursion: pick a survivor
// (uniform among current nodes born before s, minus the owner) and stop,
// or pick a ghost, jump to its death time, and — in regenerating models —
// re-point there (rule 3; without regeneration the request dangles). Every
// step is an exact conditional law of the true process; the one
// approximation is that ghost populations are drawn independently per
// request, where the real process shares one trajectory across all
// requests. Marginals (per-node age, per-request destination, hence all
// per-node degree laws) are exact; only higher-order joint moments across
// requests deviate, bounded by the distributional-equivalence suite in
// sample_test.go.

// SampleStationary builds a measurement-ready model of the given kind by
// sampling its stationary snapshot directly, in O(n·d) expected time —
// the fast-warm-up alternative to New followed by WarmUp. The snapshot is
// drawn from the stationary law (exactly for streaming models, with exact
// marginals for Poisson models; see above), so measurements and subsequent
// evolution are statistically indistinguishable from a warmed model, but
// the two are distinct trajectories: a sampled model does not reproduce a
// warmed model's state bit for bit, only its distribution. It panics if
// n <= 0, d < 0, or kind is not one of the four dynamic models.
func SampleStationary(kind Kind, n, d int, r *rng.RNG) Model {
	return SampleStationaryPar(kind, n, d, r, 1)
}

// SampleStationaryPar is SampleStationary with the snapshot wiring
// (graph.SnapshotWiring) spread over `workers` goroutines: at W ≥ 2 its
// count runs beside the request draws and its arena fill is sharded.
// The request-resolution draws stay serial — they consume the RNG — so
// the sampled model is bit-for-bit identical at every worker count;
// workers <= 1 is exactly SampleStationary.
func SampleStationaryPar(kind Kind, n, d int, r *rng.RNG, workers int) Model {
	switch kind {
	case SDG, SDGR:
		m := NewStreaming(n, d, kind.Regen(), r)
		m.SampleStationaryPar(workers)
		return m
	case PDG, PDGR:
		m := NewPoisson(n, d, kind.Regen(), r)
		m.SampleStationaryPar(workers)
		return m
	default:
		panic("core: SampleStationary of unknown model kind")
	}
}

// NewReadyModel builds a measurement-ready model: by direct stationary
// sampling when fastWarmUp is set, by simulating the warm-up transient
// otherwise. It is the dispatch point behind the FastWarmUp knobs of
// experiments.Config and the CLIs.
func NewReadyModel(kind Kind, n, d int, r *rng.RNG, fastWarmUp bool) Model {
	return NewReadyModelPar(kind, n, d, r, fastWarmUp, 1)
}

// NewReadyModelPar is NewReadyModel with the fast-warm-up snapshot wiring
// sharded over `workers` goroutines (simulated warm-up is inherently
// serial and ignores the knob). The built model is bit-for-bit identical
// at every worker count.
func NewReadyModelPar(kind Kind, n, d int, r *rng.RNG, fastWarmUp bool, workers int) Model {
	if fastWarmUp {
		return SampleStationaryPar(kind, n, d, r, workers)
	}
	m := New(kind, n, d, r)
	WarmUp(m)
	return m
}

// SampleStationary populates a freshly constructed streaming model with a
// stationary snapshot as if WarmUp had run: the clock stands at round 2n,
// the ring holds the n nodes born at rounds n+1 … 2n, and every request is
// drawn from its exact stationary law. Hooks installed before the call
// observe the construction: OnBirth fires once per node in birth order
// (before any edge exists — a snapshot is wired after its population, so
// the usual "after its requests" ordering cannot hold), then OnEdge fires
// once per materialized request, grouped by owner in birth order. It
// panics if the model has already been advanced or populated.
func (m *Streaming) SampleStationary() { m.SampleStationaryPar(1) }

// SampleStationaryPar is SampleStationary with the bulk snapshot wiring
// sharded over `workers` goroutines; the sampled model is bit-for-bit
// identical at every worker count.
func (m *Streaming) SampleStationaryPar(workers int) {
	if m.g.NumAlive() != 0 || m.clock.Round() != 0 {
		panic("core: SampleStationary requires a fresh model")
	}
	n, d := m.n, m.d
	t := 2 * n
	m.clock.FastForward(t)

	// Population: births t−n+1 … t, oldest first so birth-sequence order
	// matches age order. byBirth[i] holds the node born at round lo+i.
	lo := t - n + 1
	byBirth := make([]graph.Handle, n)
	for i := 0; i < n; i++ {
		b := lo + i
		h := m.g.AddNode(float64(b))
		m.ring[b%n] = h
		byBirth[i] = h
		if m.hooks.OnBirth != nil {
			m.hooks.OnBirth(h)
		}
	}
	m.last = byBirth[n-1]
	if n == 1 {
		return // no other node ever exists; no request can be placed
	}

	// Resolve every request to a target slot (the node born at round lo+i
	// sits in arena slot i), handing each finished block of owners to the
	// wiring's count, then bulk-wire the snapshot. In slots, the
	// destination born at beta is slot rel = beta−lo, and it dies before
	// the snapshot (beta+n ≤ t) exactly when rel < 0. The initial
	// destination of owner i is uniform over births [b−n+1, b−1], slots
	// i−n+1 … i−1; a re-pointing from rel is uniform over slots rel+1 …
	// rel+n−1 minus the owner's i (the owner is always alive and always in
	// that window; see file comment). Without regeneration, and at n = 2
	// where the only other candidate is the owner (the bootstrap corner of
	// rule 3), a request to a dead destination dangles and is not placed.
	//
	// The loop holds the RNG state in locals and draws the two ranges'
	// uniforms by Lemire's method with thresholds computed once: exactly
	// the draws m.r.Intn(n−1) and m.r.Intn(n−2) would make, in order.
	starts := make([]int32, n+1)
	targets := make([]uint32, n*d)
	chain := m.kind.Regen() && n > 2
	edges := -1
	if chain {
		edges = n * d // every request is placed
	}
	wiring := m.g.NewSnapshotWiring(starts, targets, edges, workers)
	n1 := uint64(n - 1)
	thresh1 := -n1 % n1
	var n2, thresh2 uint64
	if chain {
		n2 = uint64(n - 2)
		thresh2 = -n2 % n2
	}
	st := m.r.State()
	e := 0
	for i := 0; i < n; i++ {
		first := i - (n - 1)
		for j := 0; j < d; j++ {
			x, next := st.Next()
			hi, low := bits.Mul64(x, n1)
			for low < thresh1 {
				x, next = next.Next()
				hi, low = bits.Mul64(x, n1)
			}
			st = next
			rel := first + int(hi)
			if chain {
				// Re-point while the destination is dead. Whether it is
				// dead is a coin flip at every request, so the first
				// re-pointing is drawn ahead on a copy of the state and
				// kept only if rel < 0: the two selects compile to
				// conditional moves, the draw costs less than the branch
				// miss it replaces, and only a second re-pointing
				// branches. Discarded draws never reach st.
				x, ahead := st.Next()
				hi, low := bits.Mul64(x, n2)
				for low < thresh2 {
					x, ahead = ahead.Next()
					hi, low = bits.Mul64(x, n2)
				}
				c := rel + 1 + int(hi)
				if c >= i {
					c++
				}
				if rel < 0 {
					st = ahead
				}
				if rel < 0 {
					rel = c
				}
				for rel < 0 {
					x, next := st.Next()
					hi, low := bits.Mul64(x, n2)
					for low < thresh2 {
						x, next = next.Next()
						hi, low = bits.Mul64(x, n2)
					}
					st = next
					rel += 1 + int(hi)
					if rel >= i {
						rel++
					}
				}
			} else if rel < 0 {
				continue // dangling request
			}
			targets[e] = uint32(rel)
			e++
		}
		starts[i+1] = int32(e)
		if (i+1)%handOffOwners == 0 {
			wiring.HandOff(i + 1)
		}
	}
	m.r.SetState(st)
	targets = targets[:e]
	wiring.Wire(exactTargets(m.kind, targets))
	fireEdgeHooks(m.hooks.OnEdge, byBirth, starts, targets)
}

// handOffOwners is how many owners a sampler draws between two hand-offs
// to the wiring's count: about 86,000 requests at d = 21, a few
// milliseconds of draws, so the count trails the draws closely while each
// channel send is amortized over thousands of requests.
const handOffOwners = 1 << 12

// fireEdgeHooks replays the bulk-wired edges to an OnEdge observer, grouped
// by owner in birth order — the same edges AddOutEdge calls would have
// announced one by one.
func fireEdgeHooks(onEdge func(u, v graph.Handle), byBirth []graph.Handle, starts []int32, targets []uint32) {
	if onEdge == nil {
		return
	}
	for i := range byBirth {
		for _, t := range targets[starts[i]:starts[i+1]] {
			onEdge(byBirth[i], byBirth[t])
		}
	}
}

// SampleStationary populates a freshly constructed Poisson model with a
// stationary snapshot: population size Poisson(n), i.i.d. Exponential(1/n)
// ages, and request destinations drawn by the survivor-vs-ghost recursion
// (see the file comment). The model clock is set to the oldest node's age
// (so every birth time is non-negative) and the jump-chain round counter
// restarts at 0 — it counts post-sampling events only. Hooks installed
// before the call observe the construction exactly as in the streaming
// sampler. It panics if the model has already been advanced or populated,
// or if the model carries a non-plain DegreePolicy (the stationary law of
// the bounded-degree variants has no closed form).
func (m *Poisson) SampleStationary() { m.SampleStationaryPar(1) }

// SampleStationaryPar is SampleStationary with the bulk snapshot wiring
// sharded over `workers` goroutines; the sampled model is bit-for-bit
// identical at every worker count.
func (m *Poisson) SampleStationaryPar(workers int) {
	if m.g.NumAlive() != 0 || m.round != 0 || m.time != 0 || m.hasPending {
		panic("core: SampleStationary requires a fresh model")
	}
	if !m.policy.IsPlain() {
		panic("core: SampleStationary does not support bounded-degree policies")
	}
	nf := float64(m.n)
	pop := dist.Poisson(m.r, nf)
	if pop == 0 {
		return // the empty snapshot has stationary probability e^{−n}
	}

	ages := make([]float64, pop)
	maxAge := 0.0
	for i := range ages {
		ages[i] = dist.Exponential(m.r, 1/nf)
		if ages[i] > maxAge {
			maxAge = ages[i]
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ages))) // oldest first
	m.time = maxAge

	births := make([]float64, pop)
	handles := make([]graph.Handle, pop)
	for i := range ages {
		births[i] = maxAge - ages[i]
		handles[i] = m.g.AddNode(births[i])
		if m.hooks.OnBirth != nil {
			m.hooks.OnBirth(handles[i])
		}
	}
	m.last = handles[pop-1]

	// Resolve every request to a destination index (node i sits in arena
	// slot i), handing each finished block of owners to the wiring's
	// count, then bulk-wire the snapshot. Without regeneration about half
	// the requests dangle, so the edge count is known up front only with
	// it.
	starts := make([]int32, pop+1)
	targets := make([]uint32, pop*m.d)
	edges := -1
	if m.kind.Regen() {
		edges = pop * m.d // every request but a bootstrap corner's is placed
	}
	wiring := m.g.NewSnapshotWiring(starts, targets, edges, workers)
	e := 0
	for i := 0; i < pop; i++ {
		for j := 0; j < m.d; j++ {
			tgt := m.sampleRequestTarget(births, i)
			if tgt < 0 {
				continue // request dangles at the snapshot (or never placed)
			}
			targets[e] = uint32(tgt)
			e++
		}
		starts[i+1] = int32(e)
		if (i+1)%handOffOwners == 0 {
			wiring.HandOff(i + 1)
		}
	}
	targets = targets[:e]
	wiring.Wire(exactTargets(m.kind, targets))
	fireEdgeHooks(m.hooks.OnEdge, handles, starts, targets)
}

// exactTargets returns the request targets to hand the wiring's Wire,
// which adopts the array as the graph's out arena for good. The samplers
// reserve n·d entries; without regeneration about half the requests
// dangle at the snapshot and no request is ever placed on an existing
// node again, so the spare capacity would stay pinned with the arena.
// For those kinds it returns an exact-length copy, and targets itself
// otherwise (where at most the n = 2 corner drops a request).
func exactTargets(kind Kind, targets []uint32) []uint32 {
	if kind.Regen() {
		return targets
	}
	return slices.Clone(targets)
}

// sampleRequestTarget resolves one request of the node at index i (births
// sorted ascending) to the index of its destination in the current
// snapshot, or −1 when the request dangles at the snapshot: its
// destination predeceased it in a no-regeneration model, or no other node
// was alive at an assignment time (the bootstrap corner).
func (m *Poisson) sampleRequestTarget(births []float64, i int) int {
	nf := float64(m.n)
	t := m.time
	s := births[i] // current (re)assignment time
	// lo tracks the binary-search floor: s only moves forward along a
	// request chain, so earlier births never need re-scanning.
	lo := 0
	for {
		// Snapshot nodes born before s are alive at s and survive past t;
		// the owner is among them for every s > births[i]. Manual binary
		// search (first index with births[idx] >= s) — this is the hot
		// path, and sort.Search's closure overhead is measurable here.
		hi := len(births)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if births[mid] < s {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		surv := lo
		if surv > i {
			surv-- // exclude the owner from the survivor pool
		}
		// Ghosts: alive at s, dead by t — Poisson given the snapshot.
		tau := t - s
		q := 1 - math.Exp(-tau/nf)
		ghosts := dist.Poisson(m.r, nf*q)
		total := surv + ghosts
		if total == 0 {
			return -1 // no other node alive at the assignment time
		}
		pick := m.r.Intn(total)
		if pick < surv {
			// A survivor terminates the request: it is the destination at
			// the snapshot. Map the pick over the owner's index.
			if pick >= i {
				pick++
			}
			return pick
		}
		if !m.kind.Regen() {
			return -1 // the destination predeceased the snapshot
		}
		// A ghost dies before the snapshot at s+x, with x truncated-
		// exponential on (0, tau]; rule 3 re-points the request there.
		s += -nf * math.Log1p(-m.r.Float64()*q)
	}
}
