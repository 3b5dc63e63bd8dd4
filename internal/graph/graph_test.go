package graph

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/dyngraph/churnnet/internal/rng"
)

func mustInvariants(t *testing.T, g *Graph) {
	t.Helper()
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
}

// TestCheckInvariantsCatchesCorruption is CheckInvariants' negative
// control: each case plants one corruption no mutator can produce, and the
// check must name it. The point-back and dead-source cases are the two ways
// an in-list entry can stop being a live edge: b's entry for a's request
// outlives a RedirectOutEdge-free rewrite of the request, or a dead node's
// entry stays behind in a live in-list that RemoveNode should have
// unlinked. The dead-target case is the out-side twin: a request left
// pointing at a slot whose node died, where RemoveNode should have written
// the dead sentinel.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(g *Graph, a, b, dead Handle)
		want    string
	}{
		{"out-slot rewritten", func(g *Graph, a, b, dead Handle) {
			g.nodes[a.Slot].out[0] = deadOut
		}, "does not point back"},
		{"out-slot left pointing at a dead slot", func(g *Graph, a, b, dead Handle) {
			g.nodes[a.Slot].out[0] = dead.Slot
		}, "targets dead slot"},
		{"even generation on an alive slot", func(g *Graph, a, b, dead Handle) {
			g.gen[b.Slot]++
		}, "has generation"},
		{"odd generation on a dead slot", func(g *Graph, a, b, dead Handle) {
			g.gen[dead.Slot]++
		}, "has generation"},
		{"dead source left in a live in-list", func(g *Graph, a, b, dead Handle) {
			g.nodes[a.Slot].in = append(g.nodes[a.Slot].in, inRef{src: dead.Slot, k: 0})
		}, "dead source"},
		{"dead slot keeps its in-list", func(g *Graph, a, b, dead Handle) {
			g.nodes[dead.Slot].in = append(g.nodes[dead.Slot].in, inRef{src: a.Slot, k: 0})
		}, "dead slot"},
		{"generation array too short", func(g *Graph, a, b, dead Handle) {
			g.gen = g.gen[:len(g.gen)-1]
		}, "len(gen)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := New(3, 1)
			a, b, dead := g.AddNode(0), g.AddNode(1), g.AddNode(2)
			g.AddOutEdge(a, b)
			g.AddOutEdge(dead, a)
			g.RemoveNode(dead, nil)
			mustInvariants(t, g)
			tc.corrupt(g, a, b, dead)
			err := g.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants() = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestAddNodeBasics(t *testing.T) {
	g := New(4, 2)
	if g.NumAlive() != 0 {
		t.Fatal("fresh graph not empty")
	}
	a := g.AddNode(1)
	b := g.AddNode(2)
	if !g.IsAlive(a) || !g.IsAlive(b) {
		t.Fatal("new nodes must be alive")
	}
	if g.NumAlive() != 2 {
		t.Fatalf("NumAlive = %d", g.NumAlive())
	}
	if a == b {
		t.Fatal("handles must differ")
	}
	if g.BirthTime(a) != 1 || g.BirthTime(b) != 2 {
		t.Fatal("birth times wrong")
	}
	if !g.Older(a, b) || g.Older(b, a) {
		t.Fatal("age order wrong")
	}
	mustInvariants(t, g)
}

func TestNilHandle(t *testing.T) {
	g := New(0, 0)
	if g.IsAlive(Nil) {
		t.Fatal("Nil must not be alive")
	}
	if !Nil.IsNil() {
		t.Fatal("Nil.IsNil() false")
	}
	if Nil.String() != "nil" {
		t.Fatalf("Nil.String() = %q", Nil.String())
	}
	h := g.AddNode(0)
	if h.IsNil() {
		t.Fatal("real handle reported nil")
	}
}

func TestRemoveNodeInvalidates(t *testing.T) {
	g := New(2, 1)
	a := g.AddNode(0)
	g.RemoveNode(a, nil)
	if g.IsAlive(a) {
		t.Fatal("removed node still alive")
	}
	if g.NumAlive() != 0 {
		t.Fatal("NumAlive after removal")
	}
	mustInvariants(t, g)
}

func TestSlotReuseBumpsGeneration(t *testing.T) {
	g := New(1, 1)
	a := g.AddNode(0)
	g.RemoveNode(a, nil)
	b := g.AddNode(1)
	if b.Slot != a.Slot {
		t.Fatalf("expected slot reuse, got %v then %v", a, b)
	}
	if b.Gen == a.Gen {
		t.Fatal("generation not bumped on reuse")
	}
	if g.IsAlive(a) {
		t.Fatal("stale handle alive after reuse")
	}
	if !g.IsAlive(b) {
		t.Fatal("new handle not alive")
	}
}

// TestSlotHandle pins the slot -> current handle accessor across a
// slot's lifecycle: the live node's handle while it is alive, Nil once it
// dies, the new generation after reuse, and Nil past the arena.
func TestSlotHandle(t *testing.T) {
	g := New(2, 1)
	a := g.AddNode(0)
	b := g.AddNode(0)
	if got := g.SlotHandle(a.Slot); got != a {
		t.Fatalf("SlotHandle(%d) = %v, want %v", a.Slot, got, a)
	}
	g.RemoveNode(a, nil)
	if got := g.SlotHandle(a.Slot); !got.IsNil() {
		t.Fatalf("SlotHandle of a dead slot = %v, want nil", got)
	}
	c := g.AddNode(1)
	if got := g.SlotHandle(c.Slot); got != c || c.Slot != a.Slot {
		t.Fatalf("SlotHandle after reuse = %v, want %v in slot %d", got, c, a.Slot)
	}
	if got := g.SlotHandle(b.Slot + 1); !got.IsNil() {
		t.Fatalf("SlotHandle past the arena = %v, want nil", got)
	}
}

func TestRemoveNodePanicsOnDead(t *testing.T) {
	g := New(1, 1)
	a := g.AddNode(0)
	g.RemoveNode(a, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("double remove did not panic")
		}
	}()
	g.RemoveNode(a, nil)
}

func TestAddOutEdgeSymmetry(t *testing.T) {
	g := New(3, 2)
	u, v := g.AddNode(0), g.AddNode(1)
	idx := g.AddOutEdge(u, v)
	if idx != 0 {
		t.Fatalf("first out slot = %d", idx)
	}
	var outs, ins []Handle
	g.OutTargets(u, func(h Handle) bool { outs = append(outs, h); return true })
	g.InSources(v, func(h Handle) bool { ins = append(ins, h); return true })
	if len(outs) != 1 || outs[0] != v {
		t.Fatalf("OutTargets(u) = %v", outs)
	}
	if len(ins) != 1 || ins[0] != u {
		t.Fatalf("InSources(v) = %v", ins)
	}
	if g.OutDegreeLive(u) != 1 || g.InDegreeLive(v) != 1 {
		t.Fatal("degrees wrong")
	}
	if g.DegreeLive(u) != 1 || g.DegreeLive(v) != 1 {
		t.Fatal("DegreeLive wrong")
	}
	mustInvariants(t, g)
}

func TestParallelEdgesKept(t *testing.T) {
	g := New(2, 2)
	u, v := g.AddNode(0), g.AddNode(1)
	g.AddOutEdge(u, v)
	g.AddOutEdge(u, v)
	if d := g.OutDegreeLive(u); d != 2 {
		t.Fatalf("parallel out-degree = %d", d)
	}
	if d := g.InDegreeLive(v); d != 2 {
		t.Fatalf("parallel in-degree = %d", d)
	}
	count := 0
	g.Neighbors(u, func(h Handle) bool { count++; return true })
	if count != 2 {
		t.Fatalf("Neighbors yielded %d, want duplicate", count)
	}
	mustInvariants(t, g)
}

func TestDeadTargetSkipped(t *testing.T) {
	g := New(3, 1)
	u, v := g.AddNode(0), g.AddNode(1)
	g.AddOutEdge(u, v)
	g.RemoveNode(v, nil)
	if d := g.OutDegreeLive(u); d != 0 {
		t.Fatalf("out-degree after target death = %d", d)
	}
	if !g.IsIsolated(u) {
		t.Fatal("u should be isolated")
	}
	// The dead out-slot is retained (no-regeneration semantics) and
	// reports Nil.
	if n := g.OutSlotCount(u); n != 1 {
		t.Fatalf("OutSlotCount = %d", n)
	}
	if tgt, ok := g.OutTarget(u, 0); !ok || tgt != Nil {
		t.Fatalf("OutTarget of a dead request = %v, %v; want nil, true", tgt, ok)
	}
	mustInvariants(t, g)
}

func TestDeadSourceSkippedAndCompacted(t *testing.T) {
	g := New(3, 1)
	u, v, w := g.AddNode(0), g.AddNode(1), g.AddNode(2)
	g.AddOutEdge(u, w)
	g.AddOutEdge(v, w)
	g.RemoveNode(u, nil)
	// RemoveNode unlinks u's entry at once: before any visit, the in-list
	// holds only v's ref.
	if n := len(g.nodes[w.Slot].in); n != 1 || g.nodes[w.Slot].in[0].src != v.Slot {
		t.Fatalf("in-list after source death = %v, want v's entry only", g.nodes[w.Slot].in)
	}
	if d := g.InDegreeLive(w); d != 1 {
		t.Fatalf("in-degree after source death = %d", d)
	}
	mustInvariants(t, g)
}

func TestRemoveNodeReturnsLiveInEdges(t *testing.T) {
	g := New(4, 1)
	a, b, c := g.AddNode(0), g.AddNode(1), g.AddNode(2)
	target := g.AddNode(3)
	g.AddOutEdge(a, target)
	g.AddOutEdge(b, target)
	g.AddOutEdge(c, target)
	g.RemoveNode(b, nil) // b's edge must not be reported
	got := g.RemoveNode(target, nil)
	if len(got) != 2 {
		t.Fatalf("live in-edges = %v", got)
	}
	seen := map[Handle]int{}
	for _, e := range got {
		seen[e.Src]++
		if e.Slot != 0 {
			t.Fatalf("unexpected slot %d", e.Slot)
		}
	}
	if seen[a] != 1 || seen[c] != 1 {
		t.Fatalf("wrong sources: %v", got)
	}
	mustInvariants(t, g)
}

func TestRemoveNodeAppendsToBuf(t *testing.T) {
	g := New(3, 1)
	u, v := g.AddNode(0), g.AddNode(1)
	g.AddOutEdge(u, v)
	buf := make([]InEdge, 0, 4)
	buf = append(buf, InEdge{}) // pre-existing sentinel
	buf = g.RemoveNode(v, buf)
	if len(buf) != 2 {
		t.Fatalf("buf = %v", buf)
	}
}

func TestRedirectOutEdge(t *testing.T) {
	g := New(4, 1)
	u, v, w := g.AddNode(0), g.AddNode(1), g.AddNode(2)
	g.AddOutEdge(u, v)
	orphans := g.RemoveNode(v, nil)
	if len(orphans) != 1 || orphans[0].Src != u {
		t.Fatalf("orphans = %v", orphans)
	}
	g.RedirectOutEdge(u, orphans[0].Slot, w)
	if d := g.OutDegreeLive(u); d != 1 {
		t.Fatalf("out-degree after redirect = %d", d)
	}
	if d := g.InDegreeLive(w); d != 1 {
		t.Fatalf("w in-degree = %d", d)
	}
	mustInvariants(t, g)
}

func TestRedirectPanicsOverLiveEdge(t *testing.T) {
	g := New(3, 1)
	u, v, w := g.AddNode(0), g.AddNode(1), g.AddNode(2)
	g.AddOutEdge(u, v)
	defer func() {
		if recover() == nil {
			t.Fatal("redirect over live edge did not panic")
		}
	}()
	g.RedirectOutEdge(u, 0, w)
}

func TestStaleInRefAfterSlotReuse(t *testing.T) {
	// u points at v; v dies; v's slot is reused by x. u's dead out-slot
	// must NOT count as an edge to x, nor name x, and x must not list u as
	// a source.
	g := New(3, 1)
	u := g.AddNode(0)
	v := g.AddNode(1)
	g.AddOutEdge(u, v)
	g.RemoveNode(v, nil)
	x := g.AddNode(2)
	if x.Slot != v.Slot {
		t.Skip("allocator did not reuse slot; test assumption broken")
	}
	if d := g.OutDegreeLive(u); d != 0 {
		t.Fatalf("stale edge resurrected: out-degree %d", d)
	}
	if tgt, _ := g.OutTarget(u, 0); tgt != Nil {
		t.Fatalf("dead request resurrected onto the reused slot: target %v", tgt)
	}
	if d := g.InDegreeLive(x); d != 0 {
		t.Fatalf("reused slot inherited in-edges: %d", d)
	}
	mustInvariants(t, g)
}

func TestRedirectedAwayInRefInvalid(t *testing.T) {
	// u -> v, v dies, u redirected to w. v's in-list was emptied on death,
	// so u's entry survives only in w's list, where it points back: the
	// invariant that lets an in-ref be checked by its source's liveness.
	g := New(4, 1)
	u, v, w := g.AddNode(0), g.AddNode(1), g.AddNode(2)
	g.AddOutEdge(u, v)
	g.RemoveNode(v, nil)
	g.RedirectOutEdge(u, 0, w)
	// Now kill w; the returned orphan must be u's slot 0.
	orphans := g.RemoveNode(w, nil)
	if len(orphans) != 1 || orphans[0].Src != u || orphans[0].Slot != 0 {
		t.Fatalf("orphans = %v", orphans)
	}
	mustInvariants(t, g)
}

func TestNeighborsEarlyStop(t *testing.T) {
	g := New(4, 3)
	u := g.AddNode(0)
	for i := 0; i < 3; i++ {
		v := g.AddNode(float64(i + 1))
		g.AddOutEdge(u, v)
	}
	count := 0
	g.Neighbors(u, func(Handle) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("early stop visited %d", count)
	}
}

// TestNeighborSlotsDeadAndPastArena: a dead slot's lists were emptied at
// its death and a slot past the arena has none, so neither visits
// anything, and a live node's walk skips its dead request.
func TestNeighborSlotsDeadAndPastArena(t *testing.T) {
	g := New(3, 1)
	u, v, w := g.AddNode(0), g.AddNode(1), g.AddNode(2)
	g.AddOutEdge(u, v)
	g.AddOutEdge(u, w)
	g.AddOutEdge(w, u)
	g.RemoveNode(v, nil)
	var slots []uint32
	for _, s := range []uint32{v.Slot, uint32(g.NumSlots()), ^uint32(0)} {
		g.NeighborSlots(s, func(x uint32) { slots = append(slots, x) })
	}
	if len(slots) != 0 {
		t.Fatalf("dead and past-arena slots visited %v", slots)
	}
	g.NeighborSlots(u.Slot, func(x uint32) { slots = append(slots, x) })
	if want := []uint32{w.Slot, w.Slot}; !slices.Equal(slots, want) { // out w, then in w
		t.Fatalf("NeighborSlots(u) = %v, want %v", slots, want)
	}
}

func TestNeighborsCoverInAndOut(t *testing.T) {
	g := New(3, 1)
	u, v, w := g.AddNode(0), g.AddNode(1), g.AddNode(2)
	g.AddOutEdge(u, v) // v's in
	g.AddOutEdge(v, w) // v's out
	var ns []Handle
	g.Neighbors(v, func(h Handle) bool { ns = append(ns, h); return true })
	if len(ns) != 2 {
		t.Fatalf("neighbors of v = %v", ns)
	}
	if !(ns[0] == w && ns[1] == u) { // out targets first, then in sources
		t.Fatalf("unexpected order/content: %v", ns)
	}
}

func TestForEachAliveAndAliveHandles(t *testing.T) {
	g := New(5, 1)
	var hs []Handle
	for i := 0; i < 5; i++ {
		hs = append(hs, g.AddNode(float64(i)))
	}
	g.RemoveNode(hs[2], nil)
	all := g.AliveHandles()
	if len(all) != 4 {
		t.Fatalf("AliveHandles len = %d", len(all))
	}
	for _, h := range all {
		if !g.IsAlive(h) {
			t.Fatalf("dead handle in AliveHandles: %v", h)
		}
	}
	n := 0
	g.ForEachAlive(func(Handle) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatal("ForEachAlive early stop broken")
	}
}

func TestRandomAliveEmpty(t *testing.T) {
	g := New(0, 0)
	r := rng.New(1)
	if h := g.RandomAlive(r); !h.IsNil() {
		t.Fatal("RandomAlive on empty graph must be Nil")
	}
	if h := g.RandomAliveExcept(r, Nil); !h.IsNil() {
		t.Fatal("RandomAliveExcept on empty graph must be Nil")
	}
}

func TestRandomAliveExceptSingleton(t *testing.T) {
	g := New(1, 0)
	r := rng.New(2)
	a := g.AddNode(0)
	if h := g.RandomAliveExcept(r, a); !h.IsNil() {
		t.Fatal("no other node exists; want Nil")
	}
	if h := g.RandomAlive(r); h != a {
		t.Fatal("RandomAlive must return the only node")
	}
}

func TestRandomAliveExceptNeverReturnsExcluded(t *testing.T) {
	g := New(10, 0)
	r := rng.New(3)
	var hs []Handle
	for i := 0; i < 10; i++ {
		hs = append(hs, g.AddNode(float64(i)))
	}
	excl := hs[4]
	for i := 0; i < 5000; i++ {
		if got := g.RandomAliveExcept(r, excl); got == excl {
			t.Fatal("excluded handle returned")
		} else if !g.IsAlive(got) {
			t.Fatal("dead handle returned")
		}
	}
}

func TestRandomAliveExceptUniform(t *testing.T) {
	g := New(5, 0)
	r := rng.New(4)
	var hs []Handle
	for i := 0; i < 5; i++ {
		hs = append(hs, g.AddNode(float64(i)))
	}
	counts := map[Handle]int{}
	const draws = 40000
	for i := 0; i < draws; i++ {
		counts[g.RandomAliveExcept(r, hs[0])]++
	}
	want := float64(draws) / 4
	for h, c := range counts {
		if h == hs[0] {
			t.Fatal("excluded drawn")
		}
		if diff := float64(c) - want; diff > 0.05*want || diff < -0.05*want {
			t.Fatalf("non-uniform draw: %v", counts)
		}
	}
}

func TestRandomAliveExceptDeadExclusion(t *testing.T) {
	g := New(3, 0)
	r := rng.New(5)
	a, b := g.AddNode(0), g.AddNode(1)
	g.RemoveNode(a, nil)
	// Excluding a dead handle behaves like no exclusion.
	for i := 0; i < 100; i++ {
		if got := g.RandomAliveExcept(r, a); got != b {
			t.Fatalf("got %v, want %v", got, b)
		}
	}
}

func TestOldestNewest(t *testing.T) {
	g := New(4, 0)
	a := g.AddNode(0)
	b := g.AddNode(1)
	c := g.AddNode(2)
	if g.Oldest() != a || g.Newest() != c {
		t.Fatal("oldest/newest wrong")
	}
	g.RemoveNode(a, nil)
	if g.Oldest() != b {
		t.Fatal("oldest after removal wrong")
	}
	empty := New(0, 0)
	if !empty.Oldest().IsNil() || !empty.Newest().IsNil() {
		t.Fatal("oldest/newest of empty graph must be Nil")
	}
}

func TestNumEdgesLive(t *testing.T) {
	g := New(4, 2)
	u, v, w := g.AddNode(0), g.AddNode(1), g.AddNode(2)
	g.AddOutEdge(u, v)
	g.AddOutEdge(u, w)
	g.AddOutEdge(v, w)
	if n := g.NumEdgesLive(); n != 3 {
		t.Fatalf("NumEdgesLive = %d", n)
	}
	g.RemoveNode(w, nil)
	if n := g.NumEdgesLive(); n != 1 {
		t.Fatalf("NumEdgesLive after removal = %d", n)
	}
}

func TestBirthSeqMonotone(t *testing.T) {
	g := New(3, 0)
	a := g.AddNode(0)
	g.RemoveNode(a, nil)
	b := g.AddNode(1) // reuses slot, must still get a later birth seq
	c := g.AddNode(2)
	if !(g.BirthSeq(b) < g.BirthSeq(c)) {
		t.Fatal("birth sequence not monotone")
	}
}

// --- randomized model-like workload property test ---

func TestRandomWorkloadInvariants(t *testing.T) {
	r := rng.New(42)
	g := New(64, 3)
	var live []Handle
	const d = 3
	for step := 0; step < 4000; step++ {
		switch {
		case len(live) < 2 || r.Float64() < 0.55:
			h := g.AddNode(float64(step))
			for i := 0; i < d; i++ {
				if tgt := g.RandomAliveExcept(r, h); !tgt.IsNil() {
					g.AddOutEdge(h, tgt)
				}
			}
			live = append(live, h)
		default:
			i := r.Intn(len(live))
			victim := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			orphans := g.RemoveNode(victim, nil)
			// Regenerate half the time, exercising both model families.
			if r.Bool() {
				for _, e := range orphans {
					if tgt := g.RandomAliveExcept(r, e.Src); !tgt.IsNil() {
						g.RedirectOutEdge(e.Src, e.Slot, tgt)
					}
				}
			}
		}
		if step%257 == 0 {
			mustInvariants(t, g)
		}
	}
	mustInvariants(t, g)
	if g.NumAlive() != len(live) {
		t.Fatalf("NumAlive=%d, tracked %d", g.NumAlive(), len(live))
	}
}

func TestRandomAliveUniformOverChurn(t *testing.T) {
	// After heavy churn, RandomAlive must still be uniform over survivors.
	r := rng.New(7)
	g := New(32, 0)
	var live []Handle
	for i := 0; i < 100; i++ {
		live = append(live, g.AddNode(float64(i)))
	}
	for i := 0; i < 80; i++ {
		j := r.Intn(len(live))
		g.RemoveNode(live[j], nil)
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	counts := map[Handle]int{}
	const draws = 60000
	for i := 0; i < draws; i++ {
		counts[g.RandomAlive(r)]++
	}
	want := float64(draws) / float64(len(live))
	for _, h := range live {
		c := float64(counts[h])
		if c < 0.9*want || c > 1.1*want {
			t.Fatalf("biased sampling: node %v drawn %v times, want ~%v", h, c, want)
		}
	}
}

// --- Marks ---

func TestMarksBasics(t *testing.T) {
	g := New(3, 0)
	a, b := g.AddNode(0), g.AddNode(1)
	var m Marks
	if m.Has(a) {
		t.Fatal("fresh marks not empty")
	}
	if !m.Mark(a) {
		t.Fatal("first Mark must report new")
	}
	if m.Mark(a) {
		t.Fatal("second Mark must report existing")
	}
	if !m.Has(a) || m.Has(b) {
		t.Fatal("Has wrong")
	}
	m.Reset()
	if m.Has(a) {
		t.Fatal("Reset did not clear")
	}
}

func TestMarksGenerationAware(t *testing.T) {
	g := New(1, 0)
	a := g.AddNode(0)
	var m Marks
	m.Mark(a)
	g.RemoveNode(a, nil)
	b := g.AddNode(1) // same slot, new generation
	if m.Has(b) {
		t.Fatal("mark leaked across generations")
	}
}

func TestMarksUnmark(t *testing.T) {
	g := New(1, 0)
	a := g.AddNode(0)
	var m Marks
	m.Mark(a)
	m.Unmark(a)
	if m.Has(a) {
		t.Fatal("Unmark failed")
	}
	if !m.Mark(a) {
		t.Fatal("Mark after Unmark must report new")
	}
	m.Unmark(Handle{Slot: 999, Gen: 3}) // out of range: no panic
	m.Unmark(Nil)                       // Nil: no panic
}

// TestMarksUnmarkEpochCurrency pins the epoch side of the Unmark contract:
// only a current-epoch mark may be cleared. A handle whose slot carries a
// mark from a previous epoch is non-current even when the generation
// matches, and unmarking it must leave the stored epoch word untouched —
// mutating stale state would break any structure reusing this epoch/gen
// discipline (the traffic plane's packed lane bitsets do).
func TestMarksUnmarkEpochCurrency(t *testing.T) {
	g := New(1, 0)
	a := g.AddNode(0)
	var m Marks
	m.Mark(a)
	stored := m.epoch[a.Slot]
	m.Reset() // a's mark is now stale: same gen, previous epoch
	if m.Has(a) {
		t.Fatal("Reset did not clear")
	}
	m.Unmark(a)
	if got := m.epoch[a.Slot]; got != stored {
		t.Fatalf("Unmark of a stale-epoch handle mutated the stored epoch: %d -> %d", stored, got)
	}
}

// TestMarksUnmarkGenCurrency: a gen-mismatched handle (slot reused by a
// later node) must not clear the current occupant's mark.
func TestMarksUnmarkGenCurrency(t *testing.T) {
	g := New(1, 0)
	a := g.AddNode(0)
	g.RemoveNode(a, nil)
	b := g.AddNode(1) // same slot, new generation
	var m Marks
	m.Mark(b)
	m.Unmark(a) // stale handle: must be a no-op
	if !m.Has(b) {
		t.Fatal("Unmark of a stale-generation handle cleared the current mark")
	}
}

func TestMarksNil(t *testing.T) {
	var m Marks
	if m.Mark(Nil) {
		t.Fatal("marking Nil must be a no-op")
	}
	if m.Has(Nil) {
		t.Fatal("Nil must never be marked")
	}
}

func TestMarksManyResets(t *testing.T) {
	g := New(2, 0)
	a := g.AddNode(0)
	var m Marks
	for i := 0; i < 1000; i++ {
		if m.Has(a) {
			t.Fatal("stale mark after reset")
		}
		m.Mark(a)
		if !m.Has(a) {
			t.Fatal("mark lost")
		}
		m.Reset()
	}
}

// TestGraphConcurrentReaders pins that reading the graph writes nothing:
// after churn whose deaths left requests on both sides of many in-lists,
// several goroutines visit the same nodes through Neighbors, InSources,
// NeighborSlots and InDegreeLive at once, and each must see exactly what a
// serial pass sees afterwards. Under -race, a read that wrote to an
// in-list would fail here.
func TestGraphConcurrentReaders(t *testing.T) {
	const n, d, readers = 400, 4, 4
	r := rng.New(77)
	g := New(n, d)
	for i := 0; i < 3*n; i++ {
		h := g.AddNode(float64(i))
		for j := 0; j < d; j++ {
			if tgt := g.RandomAliveExcept(r, h); !tgt.IsNil() {
				g.AddOutEdge(h, tgt)
			}
		}
		if g.NumAlive() > n {
			g.RemoveNode(g.RandomAlive(r), nil)
		}
	}
	hs := g.AliveHandles()
	// view renders a node's three reads as sorted source lists and a count.
	view := func(h Handle) string {
		var nb, in []Handle
		g.Neighbors(h, func(x Handle) bool { nb = append(nb, x); return true })
		g.InSources(h, func(x Handle) bool { in = append(in, x); return true })
		var slots []uint32
		g.NeighborSlots(h.Slot, func(x uint32) { slots = append(slots, x) })
		sortHandles(nb)
		sortHandles(in)
		slices.Sort(slots)
		return fmt.Sprint(nb, in, slots, g.InDegreeLive(h))
	}
	got := make([][]string, readers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]string, len(hs))
			for i, h := range hs {
				got[w][i] = view(h)
			}
		}(w)
	}
	wg.Wait()
	for i, h := range hs {
		want := view(h)
		for w := range got {
			if got[w][i] != want {
				t.Fatalf("reader %d saw %v as %s, serial pass %s", w, h, got[w][i], want)
			}
		}
	}
	mustInvariants(t, g)
}

func sortHandles(hs []Handle) {
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].Slot != hs[j].Slot {
			return hs[i].Slot < hs[j].Slot
		}
		return hs[i].Gen < hs[j].Gen
	})
}

func BenchmarkAddRemoveNode(b *testing.B) {
	g := New(1024, 3)
	r := rng.New(1)
	var live []Handle
	for i := 0; i < 1024; i++ {
		live = append(live, g.AddNode(float64(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := g.AddNode(float64(i))
		for j := 0; j < 3; j++ {
			if tgt := g.RandomAliveExcept(r, h); !tgt.IsNil() {
				g.AddOutEdge(h, tgt)
			}
		}
		live = append(live, h)
		victim := r.Intn(len(live))
		g.RemoveNode(live[victim], nil)
		live[victim] = live[len(live)-1]
		live = live[:len(live)-1]
	}
}

// BenchmarkNeighborsIteration walks every neighborhood of a WireSnapshotEdges
// snapshot (d = 8 requests per node, uniform targets) in a seeded random
// node order and reports ns per neighbor visited. The size sweep runs past
// the caches: at 1024 nodes the arena fits in L2, at 10⁶ every visit pays
// its memory loads, which is what the liveness layout decides.
func BenchmarkNeighborsIteration(b *testing.B) {
	for _, n := range []int{1 << 10, 1e4, 1e5, 1e6} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g, order := neighborsBenchGraph(n)
			b.ResetTimer()
			visited := 0
			count := func(Handle) bool { visited++; return true }
			for i := 0; i < b.N; i++ {
				g.Neighbors(order[i%len(order)], count)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visited), "ns/neighbor")
		})
	}
}

// neighborsBenchGraphs caches one snapshot per size across the repeated
// calls the benchmark framework makes while it settles b.N.
var neighborsBenchGraphs = map[int]neighborsBenchSnapshot{}

type neighborsBenchSnapshot struct {
	g     *Graph
	order []Handle
}

func neighborsBenchGraph(n int) (*Graph, []Handle) {
	if c, ok := neighborsBenchGraphs[n]; ok {
		return c.g, c.order
	}
	const d = 8
	r := rng.New(uint64(n))
	starts := make([]int32, n+1)
	targets := make([]uint32, 0, n*d)
	for s := 0; s < n; s++ {
		for j := 0; j < d; j++ {
			t := r.Intn(n - 1)
			if t >= s {
				t++
			}
			targets = append(targets, uint32(t))
		}
		starts[s+1] = int32(len(targets))
	}
	g, hs := freshNodes(n)
	g.WireSnapshotEdgesPar(starts, targets, -1)
	order := make([]Handle, n)
	for i, p := range r.Perm(n) {
		order[i] = hs[p]
	}
	neighborsBenchGraphs[n] = neighborsBenchSnapshot{g, order}
	return g, order
}
