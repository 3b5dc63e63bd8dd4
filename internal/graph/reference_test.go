package graph

import (
	"slices"
	"sort"
	"testing"

	"github.com/dyngraph/churnnet/internal/rng"
)

// refGraph is a deliberately naive reference implementation of the same
// semantics: nodes keyed by unique ids, out-edges as (owner, slot, target)
// triples, eager cleanup on death. Long random operation scripts are run
// against both implementations and every observable is compared.
type refGraph struct {
	nextID int
	alive  map[int]bool
	birth  map[int]int
	out    map[int][]int // owner -> slot-indexed targets, dead ones kept
	in     map[int][]int // target -> live requesters, in placement order
}

func newRefGraph() *refGraph {
	return &refGraph{alive: map[int]bool{}, birth: map[int]int{}, out: map[int][]int{}, in: map[int][]int{}}
}

func (r *refGraph) addNode() int {
	id := r.nextID
	r.nextID++
	r.alive[id] = true
	r.birth[id] = id
	return id
}

func (r *refGraph) addEdge(u, v int) int {
	r.out[u] = append(r.out[u], v)
	r.in[v] = append(r.in[v], u)
	return len(r.out[u]) - 1
}

func (r *refGraph) redirect(u, slot, v int) {
	r.out[u][slot] = v
	r.in[v] = append(r.in[v], u)
}

// remove kills id and returns the live in-edges (owner, slot) it had.
func (r *refGraph) remove(id int) [][2]int {
	var orphans [][2]int
	for u, targets := range r.out {
		if !r.alive[u] {
			continue
		}
		for slot, v := range targets {
			if v == id {
				orphans = append(orphans, [2]int{u, slot})
			}
		}
	}
	for _, v := range r.out[id] {
		if r.alive[v] {
			r.in[v] = slices.DeleteFunc(r.in[v], func(u int) bool { return u == id })
		}
	}
	delete(r.alive, id)
	delete(r.out, id)
	delete(r.in, id)
	sort.Slice(orphans, func(i, j int) bool {
		if orphans[i][0] != orphans[j][0] {
			return orphans[i][0] < orphans[j][0]
		}
		return orphans[i][1] < orphans[j][1]
	})
	return orphans
}

func (r *refGraph) neighbors(id int) map[int]int {
	ns := map[int]int{}
	for _, v := range r.out[id] {
		if r.alive[v] {
			ns[v]++
		}
	}
	for u, targets := range r.out {
		if !r.alive[u] {
			continue
		}
		for _, v := range targets {
			if v == id {
				ns[u]++
			}
		}
	}
	return ns
}

// chooser supplies a reference script's choices: the seeded RNG in
// TestGraphMatchesReference, the fuzzer's bytes in FuzzGraphMatchesReference.
type chooser interface {
	Intn(n int) int
	Bool() bool
}

// refHarness applies one script to a Graph and a refGraph side by side and
// compares their observables.
type refHarness struct {
	t   *testing.T
	g   *Graph
	ref *refGraph
	// id <-> handle correspondence for alive nodes.
	toHandle map[int]Handle
	toID     map[Handle]int
	ids      []int // alive ids, for uniform choices
}

func newRefHarness(t *testing.T) *refHarness {
	return &refHarness{
		t:        t,
		g:        New(64, 3),
		ref:      newRefGraph(),
		toHandle: map[int]Handle{},
		toID:     map[Handle]int{},
	}
}

func (h *refHarness) addNode() {
	v := h.g.AddNode(float64(len(h.ids)))
	id := h.ref.addNode()
	h.toHandle[id] = v
	h.toID[v] = id
	h.ids = append(h.ids, id)
}

// removeID kills the i-th alive node on both sides, compares the orphan
// lists, and — when c says so — regenerates every orphaned request onto a
// node c picks, identically on both sides.
func (h *refHarness) removeID(i int, c chooser) {
	t, g, ref := h.t, h.g, h.ref
	id := h.ids[i]
	h.ids[i] = h.ids[len(h.ids)-1]
	h.ids = h.ids[:len(h.ids)-1]
	v := h.toHandle[id]

	gotOrphans := g.RemoveNode(v, nil)
	wantOrphans := ref.remove(id)
	if len(gotOrphans) != len(wantOrphans) {
		t.Fatalf("orphan count %d != %d", len(gotOrphans), len(wantOrphans))
	}
	got := make([][2]int, len(gotOrphans))
	for k, e := range gotOrphans {
		got[k] = [2]int{h.toID[e.Src], e.Slot}
	}
	sort.Slice(got, func(a, b int) bool {
		if got[a][0] != got[b][0] {
			return got[a][0] < got[b][0]
		}
		return got[a][1] < got[b][1]
	})
	for k := range got {
		if got[k] != wantOrphans[k] {
			t.Fatalf("orphans diverge: %v vs %v", got, wantOrphans)
		}
	}
	// Iterate the canonical (sorted) order on both sides so the two graphs
	// apply the same redirects.
	if c.Bool() && len(h.ids) > 1 {
		for _, e := range got {
			srcID, slot := e[0], e[1]
			tgtID := h.ids[c.Intn(len(h.ids))]
			for tgtID == srcID {
				tgtID = h.ids[c.Intn(len(h.ids))]
			}
			g.RedirectOutEdge(h.toHandle[srcID], slot, h.toHandle[tgtID])
			ref.redirect(srcID, slot, tgtID)
		}
	}
	delete(h.toHandle, id)
	delete(h.toID, v)
}

func (h *refHarness) addEdge(c chooser) {
	if len(h.ids) < 2 {
		return
	}
	u := h.ids[c.Intn(len(h.ids))]
	v := h.ids[c.Intn(len(h.ids))]
	for v == u {
		v = h.ids[c.Intn(len(h.ids))]
	}
	gotSlot := h.g.AddOutEdge(h.toHandle[u], h.toHandle[v])
	wantSlot := h.ref.addEdge(u, v)
	if gotSlot != wantSlot {
		h.t.Fatalf("slot index %d != %d", gotSlot, wantSlot)
	}
}

// check compares the alive count and, for every alive node, its neighbor
// multiplicities, degree, in-source order and out-slots (Nil where the
// target is dead), then runs CheckInvariants.
func (h *refHarness) check() {
	t, g := h.t, h.g
	if g.NumAlive() != len(h.ref.alive) {
		t.Fatalf("alive %d != %d", g.NumAlive(), len(h.ref.alive))
	}
	for id, v := range h.toHandle {
		if !g.IsAlive(v) {
			t.Fatalf("node %d should be alive", id)
		}
		want := h.ref.neighbors(id)
		got := map[int]int{}
		g.Neighbors(v, func(u Handle) bool {
			got[h.toID[u]]++
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("node %d: neighbor sets differ: %v vs %v", id, got, want)
		}
		for u, c := range want {
			if got[u] != c {
				t.Fatalf("node %d: multiplicity of %d: %d vs %d", id, u, got[u], c)
			}
		}
		var nbSlots, slots []uint32
		g.Neighbors(v, func(u Handle) bool { nbSlots = append(nbSlots, u.Slot); return true })
		g.NeighborSlots(v.Slot, func(s uint32) { slots = append(slots, s) })
		if !slices.Equal(slots, nbSlots) {
			t.Fatalf("node %d: NeighborSlots %v, Neighbors' slots %v", id, slots, nbSlots)
		}
		wantDeg := 0
		for _, c := range want {
			wantDeg += c
		}
		if d := g.DegreeLive(v); d != wantDeg {
			t.Fatalf("node %d: degree %d vs %d", id, d, wantDeg)
		}
		var in []int
		g.InSources(v, func(u Handle) bool { in = append(in, h.toID[u]); return true })
		if !slices.Equal(in, h.ref.in[id]) {
			t.Fatalf("node %d: in-sources %v, want %v in placement order", id, in, h.ref.in[id])
		}
		refOut := h.ref.out[id]
		if n := g.OutSlotCount(v); n != len(refOut) {
			t.Fatalf("node %d: %d out-slots, want %d", id, n, len(refOut))
		}
		for k, tgt := range refOut {
			want := Nil
			if h.ref.alive[tgt] {
				want = h.toHandle[tgt]
			}
			if got, ok := g.OutTarget(v, k); !ok || got != want {
				t.Fatalf("node %d: out-slot %d targets %v, want %v", id, k, got, want)
			}
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGraphMatchesReference drives both implementations through the same
// random script and compares degrees, neighborhoods, orphan lists and
// counts after every operation batch.
func TestGraphMatchesReference(t *testing.T) {
	r := rng.New(2024)
	h := newRefHarness(t)
	for step := 0; step < 3000; step++ {
		switch {
		case len(h.ids) < 3 || r.Float64() < 0.4:
			h.addNode()
		case r.Float64() < 0.55:
			h.addEdge(r)
		default:
			h.removeID(r.Intn(len(h.ids)), r)
		}
		if step%101 == 0 {
			h.check()
		}
	}
	h.check()
}

// Bounds of one FuzzGraphMatchesReference input: the script reads at most
// fuzzScriptBytes bytes and keeps at most fuzzMaxAlive nodes alive, so an
// input costs at most a few milliseconds with a check after every step.
const (
	fuzzScriptBytes = 512
	fuzzMaxAlive    = 48
)

// byteChooser reads a fuzz script's choices from its bytes. Once they run
// out it counts upwards, so the rejection loops of refHarness still end.
type byteChooser struct {
	data []byte
	k    int
}

func (c *byteChooser) next() int {
	if len(c.data) == 0 {
		c.k++
		return c.k
	}
	b := c.data[0]
	c.data = c.data[1:]
	return int(b)
}

func (c *byteChooser) Intn(n int) int { return c.next() % n }
func (c *byteChooser) Bool() bool     { return c.next()&1 == 1 }

// FuzzGraphMatchesReference is the coverage-guided form of
// TestGraphMatchesReference: the fuzzer's bytes are a script of AddNode,
// AddOutEdge and RemoveNode (with or without redirecting the orphans), and
// after every step the neighbor multiplicities, degrees, out-slots and
// orphan lists must match refGraph and CheckInvariants must hold. It is
// the evidence that RemoveNode unlinks exactly the dying node's in-list
// entries, in place: every in-list holds live edges only, in the order
// they were placed, even when the dying node made parallel requests to one
// target or its slot is reused. It is also the evidence that every request
// to the dying node takes the dead sentinel, so a newborn in the reused
// slot inherits none of them. Each op byte selects, mod 4: 0 AddNode, 1–2
// AddOutEdge, 3 RemoveNode; the following bytes pick the endpoints, the
// victim, whether to redirect, and the new targets. The committed corpus
// (testdata/fuzz/FuzzGraphMatchesReference) replays under a plain go test.
func FuzzGraphMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 2, 2, 1, 3, 1, 1, 0, 2, 1, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzScriptBytes {
			data = data[:fuzzScriptBytes]
		}
		h := newRefHarness(t)
		c := &byteChooser{data: data}
		for len(c.data) > 0 {
			op := c.next() % 4
			switch {
			case len(h.ids) < 2 || (op == 0 && len(h.ids) < fuzzMaxAlive):
				h.addNode()
			case op == 0 || op == 3:
				h.removeID(c.Intn(len(h.ids)), c)
			default:
				h.addEdge(c)
			}
			h.check()
		}
	})
}
