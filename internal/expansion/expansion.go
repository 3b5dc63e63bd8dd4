// Package expansion measures vertex expansion of graph snapshots.
//
// The vertex isoperimetric number of Definition 3.1,
//
//	h_out(G) = min over 0 < |S| <= |N|/2 of |∂out(S)| / |S|,
//
// is NP-hard to compute, so the package offers two regimes:
//
//   - Exact, by exhaustive subset enumeration, for graphs of at most
//     ExactLimit alive nodes — the oracle used in tests; and
//   - Estimate, a witness search over adversarial candidate families
//     (singletons, the k oldest/youngest nodes, random k-sets, BFS-grown
//     balls around low-degree seeds, and a greedy boundary-minimizing
//     growth). Every candidate yields an *upper bound* h_out <= ratio; the
//     per-size-band minima reproduce the shape of the paper's results:
//     zero-ratio witnesses (isolated nodes) in models without edge
//     regeneration versus no witness below ≈0.1 anywhere in models with
//     regeneration (Theorems 3.15/4.16), and >= 0.1 on large sets even
//     without regeneration (Lemmas 3.6/4.11).
package expansion

import (
	"math"
	"math/bits"
	"sort"

	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

// ExactLimit is the largest alive-node count Exact will enumerate (2^20
// subsets).
const ExactLimit = 20

// BoundarySize returns |∂out(S)|: the number of distinct alive nodes
// outside set that are adjacent to it. Dead or duplicate handles in set are
// ignored.
func BoundarySize(g *graph.Graph, set []graph.Handle) int {
	var inSet, seen graph.Marks
	return boundarySize(g, set, &inSet, &seen)
}

func boundarySize(g *graph.Graph, set []graph.Handle, inSet, seen *graph.Marks) int {
	inSet.Reset()
	seen.Reset()
	for _, h := range set {
		if g.IsAlive(h) {
			inSet.Mark(h)
		}
	}
	n := 0
	for _, h := range set {
		if !g.IsAlive(h) {
			continue
		}
		g.Neighbors(h, func(v graph.Handle) bool {
			if !inSet.Has(v) && seen.Mark(v) {
				n++
			}
			return true
		})
	}
	return n
}

// Ratio returns |∂out(S)|/|S| for a non-empty set (its live members).
func Ratio(g *graph.Graph, set []graph.Handle) float64 {
	live := 0
	for _, h := range set {
		if g.IsAlive(h) {
			live++
		}
	}
	if live == 0 {
		panic("expansion: Ratio of empty set")
	}
	return float64(BoundarySize(g, set)) / float64(live)
}

// Witness is a candidate set's measurement.
type Witness struct {
	Size     int
	Boundary int
	Ratio    float64
}

// Exact computes h_out by enumerating every subset of size <= |N|/2. It
// panics if the graph has more than ExactLimit alive nodes. The returned
// witness slice holds one minimizing set.
func Exact(g *graph.Graph) (float64, []graph.Handle) {
	hs := g.AliveHandles()
	n := len(hs)
	if n == 0 {
		panic("expansion: Exact of empty graph")
	}
	if n > ExactLimit {
		panic("expansion: graph too large for Exact")
	}
	// Dense adjacency bitmasks (deduplicated, symmetric).
	idx := make(map[graph.Handle]int, n)
	for i, h := range hs {
		idx[h] = i
	}
	adj := make([]uint32, n)
	for i, h := range hs {
		g.Neighbors(h, func(v graph.Handle) bool {
			adj[i] |= 1 << uint(idx[v])
			return true
		})
		adj[i] &^= 1 << uint(i) // ignore self (possible via parallel weirdness)
	}

	best := math.Inf(1)
	var bestMask uint32
	half := n / 2
	for mask := uint32(1); mask < 1<<uint(n); mask++ {
		size := bits.OnesCount32(mask)
		if size > half {
			continue
		}
		var nb uint32
		m := mask
		for m != 0 {
			i := bits.TrailingZeros32(m)
			m &= m - 1
			nb |= adj[i]
		}
		nb &^= mask
		if ratio := float64(bits.OnesCount32(nb)) / float64(size); ratio < best {
			best = ratio
			bestMask = mask
		}
	}
	var witness []graph.Handle
	for i := 0; i < n; i++ {
		if bestMask&(1<<uint(i)) != 0 {
			witness = append(witness, hs[i])
		}
	}
	return best, witness
}

// Config tunes Estimate.
type Config struct {
	// SampleTrialsPerSize random k-sets are drawn for every ladder size
	// (default 24).
	SampleTrialsPerSize int
	// BFSSeeds low-degree seeds grow BFS balls (default 12).
	BFSSeeds int
	// GreedySeeds greedy boundary-minimizing growths are run (default 4).
	GreedySeeds int
	// MaxGreedySize caps greedy growth (default n/2).
	MaxGreedySize int
	// SkipSingletons disables the exhaustive size-1 pass.
	SkipSingletons bool
}

func (c Config) withDefaults() Config {
	if c.SampleTrialsPerSize == 0 {
		c.SampleTrialsPerSize = 24
	}
	if c.BFSSeeds == 0 {
		c.BFSSeeds = 12
	}
	if c.GreedySeeds == 0 {
		c.GreedySeeds = 4
	}
	return c
}

// Profile records, for every set size at which some candidate was
// evaluated, the best (smallest-ratio) witness found.
type Profile struct {
	// N is the number of alive nodes when the profile was taken.
	N int
	// BestBySize maps set size to the best witness of exactly that size.
	BestBySize map[int]Witness
}

// Min returns the smallest ratio over all witnesses (h_out upper bound),
// with its witness. Returns +Inf if the profile is empty.
func (p *Profile) Min() (float64, Witness) {
	return p.MinInRange(1, p.N/2)
}

// MinInRange returns the smallest ratio among witnesses with lo <= size <=
// hi (+Inf witness if none). Ratio ties break toward the smallest set
// size; iterating sizes in ascending order makes that — and the whole
// result — independent of map iteration order by construction (see the
// determinism contract in DESIGN.md).
func (p *Profile) MinInRange(lo, hi int) (float64, Witness) {
	sizes := make([]int, 0, len(p.BestBySize))
	for size := range p.BestBySize {
		sizes = append(sizes, size)
	}
	sort.Ints(sizes)
	best := math.Inf(1)
	var w Witness
	for _, size := range sizes {
		if size < lo || size > hi {
			continue
		}
		if cand := p.BestBySize[size]; cand.Ratio < best {
			best = cand.Ratio
			w = cand
		}
	}
	return best, w
}

// Estimate searches for low-expansion witnesses and returns the profile of
// the best candidates found per size. The search covers sizes 1..n/2.
func Estimate(g *graph.Graph, r *rng.RNG, cfg Config) *Profile {
	cfg = cfg.withDefaults()
	n := g.NumAlive()
	p := &Profile{N: n, BestBySize: make(map[int]Witness)}
	if n == 0 {
		return p
	}
	hs := g.AliveHandles()
	var inSet, seen graph.Marks
	record := func(size, boundary int) {
		w := Witness{Size: size, Boundary: boundary, Ratio: float64(boundary) / float64(size)}
		if old, ok := p.BestBySize[size]; !ok || w.Ratio < old.Ratio {
			p.BestBySize[size] = w
		}
	}

	// 1. Singletons: exact minimum over size-1 sets (catches isolated
	// nodes and the true min-degree witness).
	if !cfg.SkipSingletons {
		bestDeg := math.MaxInt
		single := make([]graph.Handle, 1)
		for _, h := range hs {
			single[0] = h
			b := boundarySize(g, single, &inSet, &seen)
			if b < bestDeg {
				bestDeg = b
			}
		}
		record(1, bestDeg)
	}

	ladder := sizeLadder(n)

	// 2. Demographic sets: the k oldest and k youngest nodes. In models
	// without regeneration the old cohort is edge-poor — the paper's
	// isolated nodes live there (Lemma 3.5).
	byAge := make([]graph.Handle, len(hs))
	copy(byAge, hs)
	sort.Slice(byAge, func(i, j int) bool { return g.BirthSeq(byAge[i]) < g.BirthSeq(byAge[j]) })
	for _, k := range ladder {
		record(k, boundarySize(g, byAge[:k], &inSet, &seen))
		record(k, boundarySize(g, byAge[len(byAge)-k:], &inSet, &seen))
	}

	// 3. Random k-sets.
	buf := make([]graph.Handle, 0, n/2+1)
	for _, k := range ladder {
		for trial := 0; trial < cfg.SampleTrialsPerSize; trial++ {
			buf = buf[:0]
			inSet.Reset()
			for len(buf) < k {
				h := hs[r.Intn(len(hs))]
				if inSet.Mark(h) {
					buf = append(buf, h)
				}
			}
			record(k, boundarySize(g, buf, &inSet, &seen))
		}
	}

	// 4. BFS balls around the lowest-degree seeds: connected candidate
	// sets whose boundaries are locally small.
	seeds := lowDegreeSeeds(g, hs, cfg.BFSSeeds)
	for _, seed := range seeds {
		ball := bfsOrder(g, seed, n/2, &inSet)
		evalPrefixes(g, ball, ladder, record, &inSet, &seen)
	}

	// 5. Greedy growth: from a random seed, repeatedly absorb the boundary
	// vertex with the fewest external neighbors.
	maxGreedy := cfg.MaxGreedySize
	if maxGreedy <= 0 || maxGreedy > n/2 {
		maxGreedy = n / 2
	}
	for i := 0; i < cfg.GreedySeeds && len(hs) > 0; i++ {
		seed := hs[r.Intn(len(hs))]
		greedyGrow(g, seed, maxGreedy, r, record)
	}
	return p
}

// sizeLadder returns a geometric ladder of set sizes 2..n/2.
func sizeLadder(n int) []int {
	var ladder []int
	last := 1
	for k := 2; k <= n/2; k = int(math.Ceil(float64(k) * 1.6)) {
		if k != last {
			ladder = append(ladder, k)
			last = k
		}
	}
	if n/2 >= 2 && (len(ladder) == 0 || ladder[len(ladder)-1] != n/2) {
		ladder = append(ladder, n/2)
	}
	return ladder
}

func lowDegreeSeeds(g *graph.Graph, hs []graph.Handle, k int) []graph.Handle {
	type nd struct {
		h graph.Handle
		d int
	}
	nodes := make([]nd, len(hs))
	for i, h := range hs {
		nodes[i] = nd{h: h, d: g.DegreeLive(h)}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].d < nodes[j].d })
	if k > len(nodes) {
		k = len(nodes)
	}
	out := make([]graph.Handle, k)
	for i := 0; i < k; i++ {
		out[i] = nodes[i].h
	}
	return out
}

// bfsOrder returns up to limit nodes in BFS order from seed.
func bfsOrder(g *graph.Graph, seed graph.Handle, limit int, visited *graph.Marks) []graph.Handle {
	visited.Reset()
	order := []graph.Handle{seed}
	visited.Mark(seed)
	for i := 0; i < len(order) && len(order) < limit; i++ {
		g.Neighbors(order[i], func(v graph.Handle) bool {
			if visited.Mark(v) {
				order = append(order, v)
			}
			return len(order) < limit
		})
	}
	if len(order) > limit {
		order = order[:limit]
	}
	return order
}

// evalPrefixes measures the boundary of prefix sets of the BFS order at
// each ladder size (and the full set).
func evalPrefixes(g *graph.Graph, order []graph.Handle, ladder []int, record func(size, boundary int), inSet, seen *graph.Marks) {
	for _, k := range ladder {
		if k > len(order) {
			break
		}
		record(k, boundarySize(g, order[:k], inSet, seen))
	}
	if n := len(order); n > 1 {
		record(n, boundarySize(g, order, inSet, seen))
	}
}

// greedyCandidateCap bounds how many boundary vertices a greedy step
// examines; larger boundaries are subsampled so that a step costs
// O(cap · degree) instead of O(boundary · degree).
const greedyCandidateCap = 64

// greedyGrow grows a set from seed, at each step absorbing the boundary
// vertex (among up to greedyCandidateCap sampled candidates) with the
// fewest neighbors outside the current set, recording every intermediate
// ratio. The grown set is returned so callers that track sets over time
// (the Tracker's greedy family) can keep it.
func greedyGrow(g *graph.Graph, seed graph.Handle, maxSize int, r *rng.RNG, record func(size, boundary int)) []graph.Handle {
	var inSet graph.Marks
	inSet.Mark(seed)
	set := []graph.Handle{seed}

	var onBoundary graph.Marks
	var boundary []graph.Handle
	addBoundary := func(h graph.Handle) {
		g.Neighbors(h, func(v graph.Handle) bool {
			if !inSet.Has(v) && onBoundary.Mark(v) {
				boundary = append(boundary, v)
			}
			return true
		})
	}
	addBoundary(seed)

	// boundary holds exactly the marked boundary vertices, alive and
	// outside the set, with no compaction: the graph does not change
	// during the call, a vertex enters once (onBoundary.Mark), and the only
	// one that ever leaves — the pick — is swap-removed as it joins the set.
	for len(set) < maxSize {
		record(len(set), len(boundary))
		if len(boundary) == 0 {
			return set // the connected component is exhausted
		}
		// Pick the boundary vertex with the fewest external neighbors,
		// examining at most greedyCandidateCap sampled candidates.
		bestIdx, bestExt := -1, math.MaxInt
		examine := len(boundary)
		if examine > greedyCandidateCap {
			examine = greedyCandidateCap
		}
		for c := 0; c < examine; c++ {
			i := c
			if len(boundary) > greedyCandidateCap {
				i = r.Intn(len(boundary))
			}
			ext := 0
			g.Neighbors(boundary[i], func(v graph.Handle) bool {
				if !inSet.Has(v) && !onBoundary.Has(v) {
					ext++
				}
				return true
			})
			if ext < bestExt {
				bestExt, bestIdx = ext, i
			}
		}
		pick := boundary[bestIdx]
		boundary[bestIdx] = boundary[len(boundary)-1]
		boundary = boundary[:len(boundary)-1]
		onBoundary.Unmark(pick)
		inSet.Mark(pick)
		set = append(set, pick)
		addBoundary(pick)
	}
	record(len(set), len(boundary))
	return set
}
