// Package graph implements the dynamic undirected multigraph underlying all
// four churnnet models (SDG, SDGR, PDG, PDGR).
//
// Nodes live in a slot arena and are addressed by Handle{Slot, Gen}: a
// slot's generation is bumped at every birth and every death, so it is odd
// exactly while the slot holds a live node. The generations sit in their
// own dense array, so a liveness check is one 4-byte load (IsAlive). This
// mirrors the paper's edge semantics exactly: an edge (u, v) exists while
// both endpoints are alive (Definitions 3.4/3.13/4.9/4.14, rule 2).
//
// Adjacency is stored by slot alone, since a slot's generation is already
// in the dense array. An out-slot holds its target's arena slot, or the
// dead sentinel once the target has died: RemoveNode writes the sentinel
// into every request that pointed at the dying node, so an out-slot never
// names a dead or reused slot. In models without regeneration the request
// keeps its slot index and stays dead. In-lists hold live edges only:
// RemoveNode unlinks the dying node's entry from each live target's
// in-list, keeping the order of the others. So every stored edge is live,
// a neighbor visit loads the entry and the endpoint's generation, no read
// writes the graph, and concurrent readers need no coordination.
//
// Every node records the *requests it made* (its out-edges, at most d of
// them) separately from the connections it accepted (its in-edges), because
// the paper's analysis — and the regeneration rule — distinguish the two:
// "our analysis will need to distinguish between out-edges from v, i.e.,
// those requested by v, and the in-edges" (Section 3.1).
//
// The graph is a multigraph: the d choices are independent and may repeat
// (rule 1). Neighborhood iteration can therefore yield duplicates; callers
// that need sets deduplicate with an epoch-marked scratch (see Marks).
package graph

import (
	"fmt"
	"slices"

	"github.com/dyngraph/churnnet/internal/rng"
)

// Handle identifies a node at a particular generation of its arena slot.
// The zero Handle is Nil and never refers to a live node: a live node's
// generation is odd.
type Handle struct {
	Slot uint32
	Gen  uint32
}

// Nil is the invalid handle.
var Nil = Handle{}

// IsNil reports whether h is the invalid handle.
func (h Handle) IsNil() bool { return h.Gen == 0 }

// String renders the handle for debugging.
func (h Handle) String() string {
	if h.IsNil() {
		return "nil"
	}
	return fmt.Sprintf("%d@%d", h.Slot, h.Gen)
}

// InEdge names one accepted connection: Src made its Slot-th request to
// this node.
type InEdge struct {
	Src  Handle
	Slot int
}

// node is one arena slot's record, exactly one 64-byte cache line; its
// generation lives in Graph.gen. out[k] is the arena slot of the k-th
// request's target, or deadOut once that target has died. A dead slot
// holds no edges: RemoveNode empties both lists, so a slot is born again
// with none.
type node struct {
	birthSeq  uint64
	birthTime float64
	out       []uint32
	in        []inRef
}

// deadOut marks an out-slot whose target has died. It names no node: an
// arena of 2³²−1 slots would need 256 GiB of node records.
const deadOut = ^uint32(0)

// inRef is one in-list entry: the source node in arena slot src made its
// k-th request to this node. The source is alive (in-lists hold live edges
// only), so its handle is {src, gen[src]}.
type inRef struct {
	src, k uint32
}

// Graph is a dynamic multigraph with slot-reuse and O(1) uniform sampling
// of alive nodes. The zero value is not ready; use New.
type Graph struct {
	nodes    []node
	gen      []uint32 // slot -> generation, odd exactly while alive
	free     []uint32
	alive    []uint32 // dense list of alive slots
	alivePos []int32  // slot -> index into alive, -1 when dead (O(1) removal)
	birthSeq uint64   // next birth sequence number (monotone age order)
}

// New returns an empty graph with capacity hints for roughly n nodes of
// out-degree d.
func New(nHint, dHint int) *Graph {
	if nHint < 0 {
		nHint = 0
	}
	g := &Graph{
		nodes:    make([]node, 0, nHint),
		gen:      make([]uint32, 0, nHint),
		alive:    make([]uint32, 0, nHint),
		alivePos: make([]int32, 0, nHint),
	}
	_ = dHint // out slices are grown per node; hint kept for API stability
	return g
}

// NumAlive returns the number of alive nodes.
func (g *Graph) NumAlive() int { return len(g.alive) }

// NextBirthSeq returns the sequence number the next born node will get;
// nodes with BirthSeq below this value were born before this instant.
func (g *Graph) NextBirthSeq() uint64 { return g.birthSeq }

// NumSlots returns the arena size (alive + reusable slots); useful for
// sizing per-slot scratch arrays.
func (g *Graph) NumSlots() int { return len(g.nodes) }

// IsAlive reports whether h refers to a currently alive node. A slot's
// generation is odd exactly while it is alive, so an odd h.Gen equal to
// the slot's generation is the whole test: one load, exact for every
// handle (Nil and fabricated even generations included).
func (g *Graph) IsAlive(h Handle) bool {
	return int(h.Slot) < len(g.gen) && h.Gen&1 == 1 && g.gen[h.Slot] == h.Gen
}

// SlotHandle returns the handle of the node alive in slot, or Nil when the
// slot holds none (a dead or free slot, or one past the arena). It lets a
// pass that walks the arena by slot address each live node without
// consulting the alive list.
func (g *Graph) SlotHandle(slot uint32) Handle {
	if int(slot) >= len(g.gen) || g.gen[slot]&1 == 0 {
		return Nil
	}
	return Handle{Slot: slot, Gen: g.gen[slot]}
}

// handle returns the handle of the live node in slot; the caller knows it
// is alive.
func (g *Graph) handle(slot uint32) Handle {
	return Handle{Slot: slot, Gen: g.gen[slot]}
}

// AddNode births a node at the given model time and returns its handle.
// The node starts with no edges.
func (g *Graph) AddNode(birthTime float64) Handle {
	var slot uint32
	if n := len(g.free); n > 0 {
		slot = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		slot = uint32(len(g.nodes))
		g.nodes = append(g.nodes, node{})
		g.gen = append(g.gen, 0)
		g.alivePos = append(g.alivePos, -1)
	}
	g.gen[slot]++ // odd: alive
	nd := &g.nodes[slot]
	nd.birthSeq = g.birthSeq
	nd.birthTime = birthTime
	g.birthSeq++

	g.alivePos[slot] = int32(len(g.alive))
	g.alive = append(g.alive, slot)
	return Handle{Slot: slot, Gen: g.gen[slot]}
}

// AddOutEdge records that u made a request accepted by v and returns the
// out-slot index the edge occupies in u. It panics if either endpoint is
// not alive.
func (g *Graph) AddOutEdge(u, v Handle) int {
	if !g.IsAlive(u) || !g.IsAlive(v) {
		panic("graph: AddOutEdge endpoint not alive")
	}
	un := &g.nodes[u.Slot]
	idx := len(un.out)
	un.out = append(un.out, v.Slot)
	g.nodes[v.Slot].in = append(g.nodes[v.Slot].in, inRef{src: u.Slot, k: uint32(idx)})
	return idx
}

// RedirectOutEdge re-points u's idx-th request at v — the edge-regeneration
// rule (rule 3 of Definitions 3.13 and 4.14). The previous target must be
// dead (regeneration is only ever triggered by a neighbor's death); it
// panics otherwise, and if u or v is not alive or idx is out of range.
func (g *Graph) RedirectOutEdge(u Handle, idx int, v Handle) {
	if !g.IsAlive(u) || !g.IsAlive(v) {
		panic("graph: RedirectOutEdge endpoint not alive")
	}
	un := &g.nodes[u.Slot]
	if idx < 0 || idx >= len(un.out) {
		panic("graph: RedirectOutEdge slot out of range")
	}
	if un.out[idx] != deadOut {
		panic("graph: RedirectOutEdge over a live edge")
	}
	un.out[idx] = v.Slot
	g.nodes[v.Slot].in = append(g.nodes[v.Slot].in, inRef{src: u.Slot, k: uint32(idx)})
}

// RemoveNode kills h. All its incident edges disappear (rule 2): every
// request that pointed at h becomes dead (its out-slot takes the dead
// sentinel), h's requests leave their targets' in-lists, and the in-edges
// it had at the moment of death are appended to buf and returned, so
// models with regeneration can re-point each orphaned request; models
// without regeneration ignore the result. It panics if h is not alive.
func (g *Graph) RemoveNode(h Handle, buf []InEdge) []InEdge {
	if !g.IsAlive(h) {
		panic("graph: RemoveNode of non-alive handle")
	}
	nd := &g.nodes[h.Slot]
	for _, ref := range nd.in {
		g.nodes[ref.src].out[ref.k] = deadOut
		buf = append(buf, InEdge{Src: g.handle(ref.src), Slot: int(ref.k)})
	}
	// Unlink h's request k from its target's in-list: a stable delete, so
	// the surviving entries keep their order and every visit order with it.
	for k, t := range nd.out {
		if t == deadOut {
			continue // a dead target's in-list was emptied at its death
		}
		tn := &g.nodes[t]
		for i, ref := range tn.in {
			if ref.src == h.Slot && ref.k == uint32(k) {
				tn.in = slices.Delete(tn.in, i, i+1)
				break
			}
		}
	}
	nd.in = nd.in[:0]
	nd.out = nd.out[:0]
	g.gen[h.Slot]++ // even: invalidates every surviving reference to h

	pos := g.alivePos[h.Slot]
	last := uint32(len(g.alive) - 1)
	moved := g.alive[last]
	g.alive[pos] = moved
	g.alivePos[moved] = pos
	g.alive = g.alive[:last]
	g.alivePos[h.Slot] = -1
	g.free = append(g.free, h.Slot)
	return buf
}

// OutTargets calls visit for every live target of h's requests, in slot
// order, including duplicates (the multigraph keeps parallel requests).
// Iteration stops early if visit returns false. Targets that died (possible
// only without regeneration) are skipped.
func (g *Graph) OutTargets(h Handle, visit func(Handle) bool) {
	if !g.IsAlive(h) {
		return
	}
	for _, t := range g.nodes[h.Slot].out {
		if t != deadOut && !visit(g.handle(t)) {
			return
		}
	}
}

// InSources calls visit for every live node whose request currently points
// at h, including duplicates, in the order the requests were placed.
// Iteration stops early if visit returns false.
func (g *Graph) InSources(h Handle, visit func(Handle) bool) {
	if !g.IsAlive(h) {
		return
	}
	for _, ref := range g.nodes[h.Slot].in {
		if !visit(g.handle(ref.src)) {
			return
		}
	}
}

// Neighbors calls visit for every live neighbor of h (out-targets then
// in-sources), possibly with duplicates. Iteration stops early if visit
// returns false.
func (g *Graph) Neighbors(h Handle, visit func(Handle) bool) {
	if !g.IsAlive(h) {
		return
	}
	for _, t := range g.nodes[h.Slot].out {
		if t != deadOut && !visit(g.handle(t)) {
			return
		}
	}
	g.InSources(h, visit)
}

// OutDegreeLive returns the number of h's requests whose target is alive.
func (g *Graph) OutDegreeLive(h Handle) int {
	n := 0
	g.OutTargets(h, func(Handle) bool { n++; return true })
	return n
}

// OutSlotCount returns the number of request slots h has ever created,
// whether or not their targets are alive.
func (g *Graph) OutSlotCount(h Handle) int {
	if !g.IsAlive(h) {
		return 0
	}
	return len(g.nodes[h.Slot].out)
}

// OutTarget returns the current target of h's idx-th request — Nil once
// that target has died (possible only without regeneration) — and whether
// idx is in range.
func (g *Graph) OutTarget(h Handle, idx int) (Handle, bool) {
	if !g.IsAlive(h) {
		return Nil, false
	}
	out := g.nodes[h.Slot].out
	if idx < 0 || idx >= len(out) {
		return Nil, false
	}
	if out[idx] == deadOut {
		return Nil, true
	}
	return g.handle(out[idx]), true
}

// InDegreeLive returns the number of live requests pointing at h.
func (g *Graph) InDegreeLive(h Handle) int {
	if !g.IsAlive(h) {
		return 0
	}
	return len(g.nodes[h.Slot].in)
}

// DegreeLive returns OutDegreeLive + InDegreeLive (parallel edges counted).
func (g *Graph) DegreeLive(h Handle) int {
	return g.OutDegreeLive(h) + g.InDegreeLive(h)
}

// IsIsolated reports whether h has no live incident edge.
func (g *Graph) IsIsolated(h Handle) bool {
	isolated := true
	g.Neighbors(h, func(Handle) bool { isolated = false; return false })
	return isolated
}

// BirthSeq returns the global birth sequence number of h: smaller is older.
// It panics if h is not alive.
func (g *Graph) BirthSeq(h Handle) uint64 {
	g.mustAlive(h)
	return g.nodes[h.Slot].birthSeq
}

// BirthTime returns the model time at which h was born. It panics if h is
// not alive.
func (g *Graph) BirthTime(h Handle) float64 {
	g.mustAlive(h)
	return g.nodes[h.Slot].birthTime
}

// Older reports whether a was born strictly before b. It panics if either
// is not alive.
func (g *Graph) Older(a, b Handle) bool {
	return g.BirthSeq(a) < g.BirthSeq(b)
}

func (g *Graph) mustAlive(h Handle) {
	if !g.IsAlive(h) {
		panic("graph: handle not alive: " + h.String())
	}
}

// ForEachAlive calls visit for every alive node; iteration order is
// arbitrary but deterministic. It stops early if visit returns false. The
// callback must not add or remove nodes.
func (g *Graph) ForEachAlive(visit func(Handle) bool) {
	for _, slot := range g.alive {
		if !visit(Handle{Slot: slot, Gen: g.gen[slot]}) {
			return
		}
	}
}

// AliveHandles returns a fresh slice of all alive handles.
func (g *Graph) AliveHandles() []Handle {
	out := make([]Handle, 0, len(g.alive))
	g.ForEachAlive(func(h Handle) bool { out = append(out, h); return true })
	return out
}

// RandomAlive returns a uniformly random alive node, or Nil if the graph is
// empty.
func (g *Graph) RandomAlive(r *rng.RNG) Handle {
	if len(g.alive) == 0 {
		return Nil
	}
	slot := g.alive[r.Intn(len(g.alive))]
	return Handle{Slot: slot, Gen: g.gen[slot]}
}

// RandomAliveExcept returns a uniformly random alive node different from
// excl, or Nil if no such node exists. This is the paper's "uniformly at
// random among the nodes in the network" destination draw, which excludes
// the requester (the 1/(n−1) in Lemma 3.14).
func (g *Graph) RandomAliveExcept(r *rng.RNG, excl Handle) Handle {
	n := len(g.alive)
	exclAlive := g.IsAlive(excl)
	if n == 0 || (n == 1 && exclAlive) {
		return Nil
	}
	if !exclAlive {
		return g.RandomAlive(r)
	}
	// Draw from n-1 by skipping the excluded position.
	i := r.Intn(n - 1)
	if pos := int(g.alivePos[excl.Slot]); i >= pos {
		i++
	}
	slot := g.alive[i]
	return Handle{Slot: slot, Gen: g.gen[slot]}
}

// Oldest returns the alive node with the smallest birth sequence, or Nil if
// the graph is empty. O(alive); used by tests and analysis, not hot loops.
func (g *Graph) Oldest() Handle {
	var best Handle
	var bestSeq uint64
	first := true
	g.ForEachAlive(func(h Handle) bool {
		if s := g.nodes[h.Slot].birthSeq; first || s < bestSeq {
			best, bestSeq, first = h, s, false
		}
		return true
	})
	return best
}

// Newest returns the alive node with the largest birth sequence, or Nil.
func (g *Graph) Newest() Handle {
	var best Handle
	var bestSeq uint64
	first := true
	g.ForEachAlive(func(h Handle) bool {
		if s := g.nodes[h.Slot].birthSeq; first || s > bestSeq {
			best, bestSeq, first = h, s, false
		}
		return true
	})
	return best
}

// NumEdgesLive returns the number of live (request) edges; parallel edges
// counted separately. O(total out-slots).
func (g *Graph) NumEdgesLive() int {
	n := 0
	g.ForEachAlive(func(h Handle) bool {
		n += g.OutDegreeLive(h)
		return true
	})
	return n
}

// CheckInvariants exhaustively validates internal consistency; it is meant
// for tests and returns a descriptive error on the first violation. Besides
// the alive/free bookkeeping it asserts that a slot's generation is odd
// exactly while it is alive, that every out-slot other than the dead
// sentinel targets a live slot whose in-list holds exactly one
// back-reference to it, and that every in-list entry is a live edge: its
// source is alive and points back.
func (g *Graph) CheckInvariants() error {
	if len(g.gen) != len(g.nodes) || len(g.alivePos) != len(g.nodes) {
		return fmt.Errorf("len(gen)=%d, len(alivePos)=%d, want len(nodes)=%d",
			len(g.gen), len(g.alivePos), len(g.nodes))
	}
	// alive / alivePos / free bookkeeping.
	seen := make(map[uint32]bool, len(g.alive))
	for i, slot := range g.alive {
		if int(slot) >= len(g.nodes) {
			return fmt.Errorf("alive[%d]=%d out of range", i, slot)
		}
		if seen[slot] {
			return fmt.Errorf("slot %d appears twice in alive", slot)
		}
		seen[slot] = true
		if g.alivePos[slot] != int32(i) {
			return fmt.Errorf("alivePos[%d]=%d, want %d", slot, g.alivePos[slot], i)
		}
	}
	for slot := range g.nodes {
		pos := g.alivePos[slot]
		if pos >= 0 && !seen[uint32(slot)] {
			return fmt.Errorf("slot %d has alivePos %d but is not in alive", slot, pos)
		}
		if odd := g.gen[slot]&1 == 1; odd != (pos >= 0) {
			return fmt.Errorf("slot %d has generation %d but alivePos %d", slot, g.gen[slot], pos)
		}
		if nd := &g.nodes[slot]; pos < 0 && (len(nd.out) != 0 || len(nd.in) != 0) {
			return fmt.Errorf("dead slot %d holds %d out- and %d in-entries", slot, len(nd.out), len(nd.in))
		}
	}
	for _, slot := range g.free {
		if seen[slot] {
			return fmt.Errorf("slot %d is both free and alive", slot)
		}
	}
	// Edge symmetry: every live out-slot must target a live slot with
	// exactly one matching in-list entry, and every in-list entry must have
	// a live source that points back.
	for _, slot := range g.alive {
		u := g.handle(slot)
		for k, t := range g.nodes[slot].out {
			if t == deadOut {
				continue
			}
			if int(t) >= len(g.nodes) || g.gen[t]&1 == 0 {
				return fmt.Errorf("out-slot %v.out[%d] targets dead slot %d", u, k, t)
			}
			matches := 0
			for _, ref := range g.nodes[t].in {
				if ref.src == slot && int(ref.k) == k {
					matches++
				}
			}
			if matches != 1 {
				return fmt.Errorf("edge %v.out[%d]=%v has %d in-list entries", u, k, g.handle(t), matches)
			}
		}
		for _, ref := range g.nodes[slot].in {
			if int(ref.src) >= len(g.nodes) || g.gen[ref.src]&1 == 0 {
				return fmt.Errorf("in-ref %d.out[%d] of %v has a dead source", ref.src, ref.k, u)
			}
			out := g.nodes[ref.src].out
			if int(ref.k) >= len(out) || out[ref.k] != slot {
				return fmt.Errorf("in-ref %v.out[%d] of %v does not point back", g.handle(ref.src), ref.k, u)
			}
		}
	}
	return nil
}
