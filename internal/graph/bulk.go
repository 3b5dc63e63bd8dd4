package graph

import (
	"fmt"
	"math/bits"
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

// fillBlockBits is log₂ of the widest target block the in-list fill
// places at once. A block of 2⁹ targets at d = 21 spans about 100 KB of
// in-arena, so placing its entries stays in a core's L2 and on few
// enough pages that its scattered writes seldom miss the TLB. On a 2-core
// VM at n = 10⁶, d = 21, one worker, placement took 67–73 ms at widths
// 2⁸–2⁹ against 110 ms at 2¹² and 230 ms at 2¹⁵ and wider, while staging
// cost about 200 ms at every width from 2⁸ to 2¹⁴ (every staged record a
// TLB miss) and only fell, to 70–80 ms, at 32 blocks or fewer. The width
// also fixes the record layout: a staged record packs its out-slot index
// k above the target's offset in its block, so the fill narrows the
// blocks for a spec whose out-degrees need more than 32 − fillBlockBits
// bits of k.
const fillBlockBits = 9

// handOffDepth bounds how many handed-off owner ranges the counter may lag
// behind the caller before HandOff blocks.
const handOffDepth = 64

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
// one shared arena with inSlack spare entries, and the in-lists are
// filled by a blocked two-pass scatter (see SnapshotWiring). The per-edge
// path pays two aliveness checks and an amortized slice-growth append per
// edge — several times the wall time of the bulk fill at n = 10⁶ — which
// is why this is the construction path of the stationary-snapshot
// samplers in package core (see DESIGN.md).
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

// WireSnapshotEdgesPar is WireSnapshotEdges with the in-list fill sharded
// over `workers` goroutines. It takes ownership of targets exactly as
// WireSnapshotEdges does: the out-lists alias it, so the caller must not
// write it afterwards nor wire it into a second graph. It is a
// SnapshotWiring handed the whole spec at once: one pass validates the
// spec and counts the requests into each target block, then the blocked
// fill places the in-lists (see SnapshotWiring for both). The filled
// arenas — including the in-list order within every node — are the same
// at any worker count, and equal to the per-edge AddOutEdge build (pinned
// by TestWireSnapshotEdgesMatchesAddOutEdge over a worker sweep). The
// worker count resolves through NewShards over NumSlots(), capped at one
// worker per slot. Besides the arenas, the wiring allocates one count per
// target block and worker (16 bytes per 2⁹ slots), and per worker a copy
// of the largest block of staged records it places plus a count per slot
// of a block (about 100 KB at d = 21).
func (g *Graph) WireSnapshotEdgesPar(starts []int32, targets []uint32, workers int) {
	g.NewSnapshotWiring(starts, targets, len(targets), workers).Wire(targets)
}

// SnapshotWiring is the bulk wiring of a fresh snapshot whose edge spec is
// still being drawn. The caller writes the spec owner by owner into starts
// and the target buffer it passed to NewSnapshotWiring, calls HandOff(s)
// each time the owners below s are final, and finally calls Wire once
// with the targets the graph is to adopt.
//
// The in-lists are filled per target block, the 2^fillBlockBits
// consecutive slots whose in-list segments (with their slack) form one
// contiguous region of the in-arena. Each handed-off owner range is
// validated (the owner is a fresh generation-1 node, its starts do not
// decrease, each target is in range and not the owner) and its requests
// are counted into their target blocks. At W ≥ 2 a counter goroutine does
// this while the caller draws the next owners: the ranges travel over a
// channel, so the caller must not write an owner's starts or targets once
// it handed it off, and the counter is the only reader until Wire
// collects it. At W = 1 HandOff counts inline and nothing runs
// concurrently.
//
// Wire then fills the in-arena in two passes. The block counts place
// every block's region. The staging pass walks the owners in order and
// appends each edge's record — its owner, and its out-slot index packed
// above the target's offset in the block — at its block's cursor, inside
// the block's own region: the in-arena is the staging buffer. The
// placement pass takes one block at a time: it copies the block's staged
// records aside, counts them per target (the in-degrees, in a block-sized
// row), carves the targets' segments from the region, places each record
// at its target's cursor, and writes the block's node records' out- and
// in-list headers. Both passes keep owner order, so every in-list comes
// out in owner order, the order AddOutEdge calls in owner order build.
//
// At W ≥ 2 the staging pass splits the owners into W ranges of equal edge
// count, each with its own run in every block's region, the runs stacked
// in owner order and sized by counting each range's requests per block.
// When the caller knows the edge count up front, the ranges' bounds
// follow from it, so the counter counts per range as it goes and also
// allocates the in-arena; only the two fill passes are left after the
// draws. The placement pass deals the blocks round-robin. Every write
// lands in a range's run, a block or a node record that only one worker
// owns, so the barriers are the only synchronization.
//
// The counts are checked against the records before they steer a write:
// a record whose run is already full stops the staging with a panic
// before it is written, and a block's runs must add up to its region. A
// wrong count therefore panics before any entry is placed, and the
// per-target counts that carve the segments come from the staged records
// themselves.
type SnapshotWiring struct {
	g       *Graph
	sh      Shards
	starts  []int32
	buf     []uint32 // the caller's target buffer, read by the count
	edges   int      // the caller's edge count, or −1
	handed  int      // owners handed off so far (the caller's side)
	ready   chan int // owner bounds for the counter; nil until it starts
	counted chan struct{}

	// The count state: the counter goroutine's alone while it runs, the
	// caller's otherwise.
	runs   []span  // per range (one, or W with a known edge count) and block: .end counts its requests
	owners int     // owners counted so far
	rng    int     // the range of owner `owners`
	maxOut int32   // largest out-degree counted
	err    error   // first invalid spec entry, in owner order
	arena  []inRef // the in-arena for edges, allocated by the counter
}

// span is a run of in-arena entries: the next entry to write and the end
// of the run.
type span struct{ at, end int }

// NewSnapshotWiring starts the bulk wiring of g, a fresh snapshot (see
// WireSnapshotEdges), from the spec starts and targets that the caller is
// about to write: starts must already have NumSlots()+1 entries, starts[0]
// is 0, and targets must be long enough for every owner's requests.
// edges is the number of requests the caller will wire when it knows it
// before drawing them, or −1: at W ≥ 2 the count then also splits the
// requests into the staging ranges, and the counter goroutine allocates
// the in-arena while the caller draws; Wire redoes both if the count
// comes out different. The worker count resolves as in
// WireSnapshotEdgesPar. It panics if the graph has dead or reused slots
// or starts has the wrong length.
func (g *Graph) NewSnapshotWiring(starts []int32, targets []uint32, edges, workers int) *SnapshotWiring {
	nSlots := len(g.nodes)
	if len(starts) != nSlots+1 {
		panic("graph: WireSnapshotEdges starts must have NumSlots()+1 entries")
	}
	if len(g.free) != 0 || len(g.alive) != nSlots {
		panic("graph: WireSnapshotEdges requires a fresh snapshot (no dead or reused slots)")
	}
	sh := NewShards(min(workers, nSlots), nSlots)
	ranges := 1
	if edges >= 0 {
		ranges = sh.W()
	}
	return &SnapshotWiring{
		g:      g,
		sh:     sh,
		starts: starts,
		buf:    targets,
		edges:  edges,
		runs:   make([]span, ranges*blocks(nSlots, fillBlockBits)),
	}
}

// blocks is the number of target blocks of width 2^shift over nSlots.
func blocks(nSlots, shift int) int { return (nSlots + 1<<shift - 1) >> shift }

// quota is the first edge of staging range r of `ranges` over `edges`
// edges: range r holds the owners s with quota(r) ≤ starts[s] <
// quota(r+1).
func quota(edges, r, ranges int) int32 {
	return int32(int64(edges) * int64(r) / int64(ranges))
}

// HandOff declares the owners below `owners` final: their starts entries
// (starts[s+1] for s < owners) and their targets are written and will not
// change. At W ≥ 2 they are counted on the counter goroutine, at W = 1
// right here. It panics if owners moves backwards or past NumSlots().
func (w *SnapshotWiring) HandOff(owners int) {
	if owners < w.handed || owners > len(w.starts)-1 {
		panic("graph: SnapshotWiring.HandOff owners out of order")
	}
	w.handed = owners
	if w.sh.W() == 1 {
		w.count(owners)
		return
	}
	if w.ready == nil {
		w.ready = make(chan int, handOffDepth)
		w.counted = make(chan struct{})
		go w.countHandOffs()
	}
	w.ready <- owners
}

// countHandOffs is the counter goroutine: it allocates the in-arena when
// the edge count is known, counts each handed-off range as it arrives,
// and closes w.counted once Wire closes the channel. Until then it alone
// touches the count state (runs, owners, rng, maxOut, err, arena); the
// channel orders its reads of starts and targets after the caller's
// writes, and the close orders its last count before Wire's reads.
func (w *SnapshotWiring) countHandOffs() {
	if w.edges >= 0 {
		w.arena = make([]inRef, w.edges+inSlack*len(w.g.nodes))
	}
	for owners := range w.ready {
		w.count(owners)
	}
	close(w.counted)
}

// count validates the owners from w.owners up to `owners` and counts
// their requests per target block into their range's row of w.runs.
// After the first invalid entry it records the error and counts nothing
// more.
func (w *SnapshotWiring) count(owners int) {
	if w.err != nil {
		return
	}
	g := w.g
	nSlots := len(g.nodes)
	starts, buf := w.starts, w.buf
	nBlocks := blocks(nSlots, fillBlockBits)
	ranges := len(w.runs) / max(nBlocks, 1)
	row := w.runs[w.rng*nBlocks : (w.rng+1)*nBlocks]
	for s := w.owners; s < owners; s++ {
		if nd := &g.nodes[s]; g.gen[s] != 1 || len(nd.out) != 0 || len(nd.in) != 0 {
			w.err = fmt.Errorf("graph: WireSnapshotEdges requires generation-1 nodes with no edges (slot %d)", s)
			return
		}
		a, b := starts[s], starts[s+1]
		if b < a || a < 0 || int(b) > len(buf) {
			w.err = fmt.Errorf("graph: WireSnapshotEdges starts must be non-decreasing within targets (slot %d)", s)
			return
		}
		w.maxOut = max(w.maxOut, b-a)
		for w.rng+1 < ranges && a >= quota(w.edges, w.rng+1, ranges) {
			w.rng++
			row = w.runs[w.rng*nBlocks : (w.rng+1)*nBlocks]
		}
		for _, t := range buf[a:b] {
			if int(t) >= nSlots || int(t) == s {
				w.err = fmt.Errorf("graph: WireSnapshotEdges target %d of slot %d invalid", t, s)
				return
			}
			row[t>>fillBlockBits].end++
		}
	}
	w.owners = owners
}

// Wire counts whatever was not handed off, waits for the counter, and
// fills the graph: targets becomes the out arena, adopted as
// WireSnapshotEdges describes. targets must hold exactly the counted
// edges — the target buffer's first starts[NumSlots()] entries, or a copy
// of them. It panics on an invalid spec, on counts that do not match
// targets, and when called twice.
func (w *SnapshotWiring) Wire(targets []uint32) {
	if w.runs == nil {
		panic("graph: SnapshotWiring.Wire called twice")
	}
	n := len(w.starts) - 1
	w.handed = n
	if w.ready != nil {
		w.ready <- n
		close(w.ready)
		<-w.counted
	} else {
		w.count(n)
	}
	if w.err != nil {
		panic(w.err.Error())
	}
	if w.starts[0] != 0 || int(w.starts[n]) != len(targets) {
		panic("graph: WireSnapshotEdges starts must cover targets exactly")
	}
	w.fill(targets)
	w.runs, w.arena = nil, nil
}

// fill is Wire's arena fill; see SnapshotWiring for the algorithm.
func (w *SnapshotWiring) fill(targets []uint32) {
	g, starts, sh := w.g, w.starts, w.sh
	nSlots := len(g.nodes)
	workers := sh.W()
	inArena := w.arena
	if len(inArena) != len(targets)+inSlack*nSlots {
		inArena = make([]inRef, len(targets)+inSlack*nSlots)
	}

	// Block geometry: a staged record's second word is k<<shift | the
	// target's offset in its block, so k keeps 32 − shift bits.
	kBits := bits.Len32(uint32(max(w.maxOut, 1) - 1))
	shift := min(fillBlockBits, 32-kBits)
	width := 1 << shift
	mask := uint32(width - 1)
	nBlocks := blocks(nSlots, shift)
	blockEnd := func(b int) int { return min((b+1)<<shift, nSlots) }

	// Staging ranges of equal edge count and their per-block counts: the
	// counter's when they are these ranges and blocks, else a recount.
	ob := make([]int, workers+1)
	ob[workers] = nSlots
	for r := 1; r < workers; r++ {
		q := quota(len(targets), r, workers)
		ob[r] = sort.Search(nSlots, func(s int) bool { return starts[s] >= q })
	}
	runs := w.runs
	errs := make([]error, workers)
	if shift != fillBlockBits || workers > 1 && (len(runs) != workers*nBlocks || len(targets) != w.edges) {
		runs = make([]span, workers*nBlocks)
		sh.ForEachShard(func(r int) {
			row := runs[r*nBlocks : (r+1)*nBlocks]
			for _, t := range targets[starts[ob[r]]:starts[ob[r+1]]] {
				if int(t) >= nSlots {
					errs[r] = fmt.Errorf("graph: WireSnapshotEdges target %d out of range", t)
					return
				}
				row[t>>shift].end++
			}
		})
		raise(errs)
	}

	// Regions and runs: block b's region starts after the lower blocks'
	// requests and slack, and the ranges' runs stack inside it.
	base := make([]int, nBlocks+1)
	at := 0
	for b := 0; b < nBlocks; b++ {
		base[b] = at
		for r := 0; r < workers; r++ {
			run := &runs[r*nBlocks+b]
			run.at, run.end = at, at+run.end
			at = run.end
		}
		at += inSlack * (blockEnd(b) - b<<shift)
	}
	base[nBlocks] = at
	if at != len(inArena) {
		panic(fmt.Sprintf("graph: WireSnapshotEdges block counts cover %d in-arena entries, not %d", at, len(inArena)))
	}

	// Staging pass: each edge's record goes to its target block's region.
	sh.ForEachShard(func(r int) {
		row := runs[r*nBlocks : (r+1)*nBlocks]
		for s := ob[r]; s < ob[r+1]; s++ {
			for k, t := range targets[starts[s]:starts[s+1]] {
				if int(t) >= nSlots {
					errs[r] = fmt.Errorf("graph: WireSnapshotEdges target %d of slot %d invalid", t, s)
					return
				}
				run := &row[t>>shift]
				if run.at == run.end {
					errs[r] = fmt.Errorf("graph: WireSnapshotEdges block counts are below the requests into slots %d…", t&^mask)
					return
				}
				inArena[run.at] = inRef{src: uint32(s), k: uint32(k)<<shift | t&mask}
				run.at++
			}
		}
	})
	// No run overflowed and the runs add up to the records, so every run
	// is exactly full: each block's staged records fill its region's head.
	raise(errs)

	// Placement pass: block by block, the staged records are counted per
	// target, the targets' segments carved from the region in slot order,
	// each record placed at its target's cursor, and the block's node
	// records given their list headers.
	sh.ForEachShard(func(r int) {
		var staged []inRef
		segs := make([]span, width)
		for b := r; b < nBlocks; b += workers {
			lo, hi := b<<shift, blockEnd(b)
			at := base[b]
			staged = append(staged[:0], inArena[at:base[b+1]-inSlack*(hi-lo)]...)
			segs := segs[:hi-lo]
			clear(segs)
			for _, rec := range staged {
				segs[rec.k&mask].end++
			}
			for i := range segs {
				n := segs[i].end
				segs[i] = span{at: at, end: at + n}
				nd := &g.nodes[lo+i]
				a, e := starts[lo+i], starts[lo+i+1]
				nd.out = targets[a:e:e]
				nd.in = inArena[at : at+n : at+n+inSlack]
				at += n + inSlack
			}
			for _, rec := range staged {
				seg := &segs[rec.k&mask]
				inArena[seg.at] = inRef{src: rec.src, k: rec.k >> shift}
				seg.at++
			}
		}
	})
}

// raise re-panics the first recorded worker error on the caller's
// goroutine, lowest worker first, so the report is deterministic.
func raise(errs []error) {
	for _, err := range errs {
		if err != nil {
			panic(err.Error())
		}
	}
}
