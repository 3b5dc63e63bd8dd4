package graph

import (
	"fmt"
	"sort"
)

// inSlack is the spare capacity, in entries, that WireSnapshotEdges leaves
// after every in-list it carves from the arena. A node's in-list grows by
// one entry per request a later join or redial places on it; with no
// slack the first such append copies the list out of the arena, leaving
// its arena segment pinned and dead, so early churn on a 10⁶-node snapshot
// roughly triples the in-list memory of every node it touches. Four
// entries (32 bytes per node) absorb the first four.
const inSlack = 4

// WireSnapshotEdges bulk-installs request edges into a freshly built
// snapshot. The graph must have been constructed by AddNode calls alone:
// every arena slot alive at generation 1, no slot ever reused, no edge
// anywhere. Owners are the arena slots 0 … NumSlots()−1 in order; slot s
// makes the requests targets[starts[s]:starts[s+1]] (target arena slots,
// in out-slot order).
//
// The graph takes ownership of targets: it becomes the out arena as is,
// with no copy, since a slot-only out-list is exactly the owner's run of
// target slots. Slot s's out-list aliases targets[starts[s]:starts[s+1]],
// and the graph writes those entries when requests die or are redirected.
// The caller must not write targets afterwards, may read it only until the
// graph is first mutated, and must hand each graph its own slice.
//
// The result is exactly what the corresponding AddOutEdge calls in owner
// order would build — pinned by TestWireSnapshotEdgesMatchesAddOutEdge —
// but the construction differs where it matters at scale: the out-lists
// are the adopted targets at exact capacity, every in-list is carved from
// one shared arena with inSlack spare entries, and the in-lists are filled
// by a counting sort over target slots. The per-edge path pays two
// aliveness checks and an amortized slice-growth append per edge — ~5× the
// wall time of the counting sort at n = 10⁶ — which is why this is the
// construction path of the stationary-snapshot samplers in package core
// (see DESIGN.md).
//
// Later mutation stays safe: the arena sub-slices are capacity-clamped, so
// a post-snapshot append to any node's out- or in-list fills its own slack
// and then reallocates that node's slice instead of spilling into its
// neighbor's segment.
//
// It panics if the graph is not a fresh snapshot, the spec shape is
// inconsistent, or any target is out of range or equal to its owner.
func (g *Graph) WireSnapshotEdges(starts []int32, targets []uint32) {
	g.WireSnapshotEdgesPar(starts, targets, 1)
}

// WireSnapshotEdgesPar is WireSnapshotEdges with the two counting-sort
// passes sharded over `workers` goroutines by slot range — the same
// per-slot-range idiom the flooding engine uses for its cut. It takes
// ownership of targets exactly as WireSnapshotEdges does: the out-lists
// alias it, so the caller must not write it afterwards nor wire it into a
// second graph. The out pass splits the owner slots into contiguous ranges
// of roughly equal edge count; each worker validates its owners' targets,
// points their out-lists at their runs of targets, and histograms target
// slots into a private count row. Stacking the rows per target
// (worker w's edges into slot t land at inStart[t] + Σ_{w'<w} counts[w'][t])
// turns them into exact disjoint cursors for the in pass, so the filled
// arenas — including the in-list order within every node — are the same at
// any worker count, and equal to the per-edge AddOutEdge build (pinned by
// TestWireSnapshotEdgesMatchesAddOutEdge over a worker sweep). The worker
// count resolves through NewShards over NumSlots(), capped at one worker
// per slot; the passes cost ~4·W·NumSlots() bytes of transient count rows.
func (g *Graph) WireSnapshotEdgesPar(starts []int32, targets []uint32, workers int) {
	nSlots := len(g.nodes)
	if len(starts) != nSlots+1 {
		panic("graph: WireSnapshotEdges starts must have NumSlots()+1 entries")
	}
	if len(g.free) != 0 || len(g.alive) != nSlots {
		panic("graph: WireSnapshotEdges requires a fresh snapshot (no dead or reused slots)")
	}
	for s := 0; s < nSlots; s++ {
		nd := &g.nodes[s]
		if g.gen[s] != 1 || len(nd.out) != 0 || len(nd.in) != 0 {
			panic("graph: WireSnapshotEdges requires generation-1 nodes with no edges")
		}
		if starts[s+1] < starts[s] {
			panic("graph: WireSnapshotEdges starts must be non-decreasing")
		}
	}
	if starts[0] != 0 || int(starts[nSlots]) != len(targets) {
		panic("graph: WireSnapshotEdges starts must cover targets exactly")
	}
	g.wireSharded(starts, targets, NewShards(min(workers, nSlots), nSlots))
}

// wireSharded is the arena fill; see WireSnapshotEdgesPar for the
// algorithm. Every pass writes disjoint index ranges (owner segments, one
// count/cursor row per worker, stacked in-arena cursors), so the phase
// barriers are the only synchronization. Ownership here is by edge-balanced
// range, not by Shards.Owner; only the worker count and the fan-out come
// from sh.
func (g *Graph) wireSharded(starts []int32, targets []uint32, sh Shards) {
	nSlots := len(g.nodes)
	nEdges := len(targets)
	workers := sh.W()

	// Owner ranges balanced by edge count (degrees may be skewed), and
	// even target ranges for the per-target passes.
	ob := make([]int, workers+1)
	ob[workers] = nSlots
	for w := 1; w < workers; w++ {
		quota := int32(uint64(nEdges) * uint64(w) / uint64(workers))
		ob[w] = sort.Search(nSlots, func(s int) bool { return starts[s] >= quota })
	}
	tb := make([]int, workers+1)
	for w := 0; w <= workers; w++ {
		tb[w] = nSlots * w / workers
	}

	// Out pass: adopt each owner's run of targets as its out-list (capacity
	// clamped) and histogram targets per worker. Target validation happens
	// here (first sight of every edge); errors are collected per worker and
	// re-raised deterministically — lowest owner range first, so the first
	// invalid edge in owner order is reported.
	counts := make([]int32, workers*nSlots)
	errs := make([]error, workers)
	sh.ForEachShard(func(w int) {
		cnt := counts[w*nSlots : (w+1)*nSlots]
		for s := ob[w]; s < ob[w+1]; s++ {
			a, b := starts[s], starts[s+1]
			seg := targets[a:b:b]
			for _, t := range seg {
				if int(t) >= nSlots || int(t) == s {
					errs[w] = fmt.Errorf("graph: WireSnapshotEdges target %d of slot %d invalid", t, s)
					return
				}
				cnt[t]++
			}
			g.nodes[s].out = seg
		}
	})
	for _, err := range errs {
		if err != nil {
			panic(err.Error())
		}
	}

	// Cursor pass: per-target totals, serial prefix sum, then stack the
	// count rows into each worker's private cursor row.
	inStart := make([]int32, nSlots+1)
	sh.ForEachShard(func(w int) {
		for t := tb[w]; t < tb[w+1]; t++ {
			var sum int32
			for ww := 0; ww < workers; ww++ {
				sum += counts[ww*nSlots+t]
			}
			inStart[t+1] = sum
		}
	})
	for t := 0; t < nSlots; t++ {
		inStart[t+1] += inStart[t]
	}
	sh.ForEachShard(func(w int) {
		for t := tb[w]; t < tb[w+1]; t++ {
			run := inStart[t] + int32(inSlack*t)
			for ww := 0; ww < workers; ww++ {
				idx := ww*nSlots + t
				c := counts[idx]
				counts[idx] = run
				run += c
			}
		}
	})

	// In pass: every worker drops its owners' in-refs at its own cursors.
	// Owner ranges ascend with worker index, so each target's segment ends
	// up in global owner order — the layout AddOutEdge calls in owner order
	// build.
	inArena := make([]inRef, nEdges+inSlack*nSlots)
	sh.ForEachShard(func(w int) {
		cur := counts[w*nSlots : (w+1)*nSlots]
		for s := ob[w]; s < ob[w+1]; s++ {
			for k, t := range g.nodes[s].out {
				c := cur[t]
				inArena[c] = inRef{src: uint32(s), k: uint32(k)}
				cur[t] = c + 1
			}
		}
	})
	sh.ForEachShard(func(w int) {
		for t := tb[w]; t < tb[w+1]; t++ {
			a, b := int(inStart[t])+inSlack*t, int(inStart[t+1])+inSlack*t
			g.nodes[t].in = inArena[a : b : b+inSlack]
		}
	})
}
