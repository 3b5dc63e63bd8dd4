package graph

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/dyngraph/churnnet/internal/rng"
)

// buildSpec draws a random edge spec over n fresh nodes: up to d targets
// per owner, uniform among the other slots.
func buildSpec(n, d int, r *rng.RNG) (starts []int32, targets []uint32) {
	starts = make([]int32, n+1)
	for s := 0; s < n; s++ {
		deg := r.Intn(d + 1)
		for j := 0; j < deg && n > 1; j++ {
			t := r.Intn(n - 1)
			if t >= s {
				t++
			}
			targets = append(targets, uint32(t))
		}
		starts[s+1] = int32(len(targets))
	}
	return starts, targets
}

func freshNodes(n int) (*Graph, []Handle) {
	g := New(n, 0)
	hs := make([]Handle, n)
	for i := range hs {
		hs[i] = g.AddNode(float64(i))
	}
	return g, hs
}

// TestWireSnapshotEdgesMatchesAddOutEdge pins the bulk path against the
// per-edge path at every worker count (negative = AutoWorkers): identical
// specs must produce graphs that agree on every adjacency observable,
// including in-list order (InSources visits sources in insertion order for
// both, and the sharded cursors stack per target in owner order). Each
// bulk graph adopts its own clone of the targets as its out arena.
func TestWireSnapshotEdgesMatchesAddOutEdge(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 17, 64, 65, 200, 20000} {
		starts, targets := buildSpec(n, 5, rng.New(uint64(n)))
		ref, rh := freshNodes(n)
		for s := 0; s < n; s++ {
			for _, tg := range targets[starts[s]:starts[s+1]] {
				ref.AddOutEdge(rh[s], rh[tg])
			}
		}
		for _, workers := range []int{1, 2, 3, 4, 8, 19, -1} {
			bulk, bh := freshNodes(n)
			bulk.WireSnapshotEdgesPar(starts, slices.Clone(targets), workers)
			if err := bulk.CheckInvariants(); err != nil {
				t.Fatalf("n=%d workers=%d: bulk invariants: %v", n, workers, err)
			}
			for s := 0; s < n; s++ {
				hb, hr := bh[s], rh[s]
				if bulk.OutSlotCount(hb) != ref.OutSlotCount(hr) {
					t.Fatalf("n=%d workers=%d slot %d: out-slot count differs", n, workers, s)
				}
				var ob, or []uint32
				bulk.OutTargets(hb, func(h Handle) bool { ob = append(ob, h.Slot); return true })
				ref.OutTargets(hr, func(h Handle) bool { or = append(or, h.Slot); return true })
				if !slices.Equal(ob, or) {
					t.Fatalf("n=%d workers=%d slot %d: out targets differ", n, workers, s)
				}
				ob, or = ob[:0], or[:0]
				bulk.InSources(hb, func(h Handle) bool { ob = append(ob, h.Slot); return true })
				ref.InSources(hr, func(h Handle) bool { or = append(or, h.Slot); return true })
				if !slices.Equal(ob, or) {
					t.Fatalf("n=%d workers=%d slot %d: in sources differ (order)", n, workers, s)
				}
			}
		}
	}
}

// TestWireSnapshotEdgesParMatchesSerial pins the sharded arena fill
// against the single-range one (WireSnapshotEdges): at every worker count
// the two must build graphs that agree on every adjacency observable,
// including the in-list order within each node (the sharded cursors stack
// per target in owner order, reproducing the single-range layout bit for
// bit).
func TestWireSnapshotEdgesParMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 65, 200, 20000} {
		for _, workers := range []int{2, 3, 4, 8, 19} {
			starts, targets := buildSpec(n, 5, rng.New(uint64(n)))

			par, ph := freshNodes(n)
			par.WireSnapshotEdgesPar(starts, slices.Clone(targets), workers)

			ser, sh := freshNodes(n)
			ser.WireSnapshotEdges(starts, slices.Clone(targets))

			if err := par.CheckInvariants(); err != nil {
				t.Fatalf("n=%d workers=%d: invariants: %v", n, workers, err)
			}
			for s := 0; s < n; s++ {
				hp, hs := ph[s], sh[s]
				if par.OutSlotCount(hp) != ser.OutSlotCount(hs) {
					t.Fatalf("n=%d workers=%d slot %d: out-slot count differs", n, workers, s)
				}
				var op, os []uint32
				par.OutTargets(hp, func(h Handle) bool { op = append(op, h.Slot); return true })
				ser.OutTargets(hs, func(h Handle) bool { os = append(os, h.Slot); return true })
				if !slices.Equal(op, os) {
					t.Fatalf("n=%d workers=%d slot %d: out targets differ", n, workers, s)
				}
				op, os = op[:0], os[:0]
				par.InSources(hp, func(h Handle) bool { op = append(op, h.Slot); return true })
				ser.InSources(hs, func(h Handle) bool { os = append(os, h.Slot); return true })
				if !slices.Equal(op, os) {
					t.Fatalf("n=%d workers=%d slot %d: in sources differ (order)", n, workers, s)
				}
			}
		}
	}
}

// TestWireSnapshotEdgesAutoWorkers checks that a negative worker count
// resolves through AutoWorkers and still builds the single-range layout.
func TestWireSnapshotEdgesAutoWorkers(t *testing.T) {
	const n = 500
	starts, targets := buildSpec(n, 4, rng.New(99))
	auto, ah := freshNodes(n)
	auto.WireSnapshotEdgesPar(starts, slices.Clone(targets), -1)
	ser, sh := freshNodes(n)
	ser.WireSnapshotEdges(starts, slices.Clone(targets))
	if err := auto.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < n; s++ {
		var oa, os []uint32
		auto.OutTargets(ah[s], func(h Handle) bool { oa = append(oa, h.Slot); return true })
		ser.OutTargets(sh[s], func(h Handle) bool { os = append(os, h.Slot); return true })
		if !slices.Equal(oa, os) {
			t.Fatalf("slot %d: out targets differ under auto workers", s)
		}
		oa, os = oa[:0], os[:0]
		auto.InSources(ah[s], func(h Handle) bool { oa = append(oa, h.Slot); return true })
		ser.InSources(sh[s], func(h Handle) bool { os = append(os, h.Slot); return true })
		if !slices.Equal(oa, os) {
			t.Fatalf("slot %d: in sources differ under auto workers", s)
		}
	}
}

// TestWireSnapshotEdgesAdoptsTargets pins the ownership transfer: every
// non-empty out-list aliases the caller's targets at its owner's run, at
// every worker count, and a graph that mutates its adopted arena leaves a
// second graph wired from a clone of the same spec untouched.
func TestWireSnapshotEdgesAdoptsTargets(t *testing.T) {
	const n = 300
	starts, targets := buildSpec(n, 5, rng.New(11))
	for _, workers := range []int{1, 3, -1} {
		g, _ := freshNodes(n)
		own := slices.Clone(targets)
		g.WireSnapshotEdgesPar(starts, own, workers)
		for s := 0; s < n; s++ {
			if out := g.nodes[s].out; len(out) > 0 && &out[0] != &own[starts[s]] {
				t.Fatalf("workers=%d slot %d: out-list does not alias targets[%d]", workers, s, starts[s])
			}
		}
	}

	g, gh := freshNodes(n)
	g.WireSnapshotEdges(starts, slices.Clone(targets))
	other, oh := freshNodes(n)
	other.WireSnapshotEdges(starts, slices.Clone(targets))
	otherOuts := func() [][]Handle {
		all := make([][]Handle, n)
		for s, h := range oh {
			for k := 0; k < other.OutSlotCount(h); k++ {
				tgt, _ := other.OutTarget(h, k)
				all[s] = append(all[s], tgt)
			}
		}
		return all
	}
	before := otherOuts()
	// Kill the most-requested node: every request to it takes the dead
	// sentinel in g's adopted arena, and only there.
	victim := 0
	for s := range gh {
		if g.InDegreeLive(gh[s]) > g.InDegreeLive(gh[victim]) {
			victim = s
		}
	}
	if g.InDegreeLive(gh[victim]) == 0 {
		t.Fatal("spec has no requests")
	}
	g.RemoveNode(gh[victim], nil)
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	after := otherOuts()
	for s := range before {
		if !slices.Equal(before[s], after[s]) {
			t.Fatalf("slot %d: removal in one graph changed the other's out-slots: %v -> %v", s, before[s], after[s])
		}
	}
	if err := other.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWireSnapshotEdgesParPanics pins the guard rails at W > 1: the spec
// validation and the out-pass target checks must reject exactly what
// TestWireSnapshotEdgesPanics rejects, with the panic raised from the
// caller's goroutine.
func TestWireSnapshotEdgesParPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("self target", func() {
		g, _ := freshNodes(8)
		g.WireSnapshotEdgesPar([]int32{0, 1, 1, 1, 1, 1, 1, 1, 1}, []uint32{0}, 4)
	})
	expectPanic("target out of range", func() {
		g, _ := freshNodes(8)
		g.WireSnapshotEdgesPar([]int32{0, 1, 1, 1, 1, 1, 1, 1, 1}, []uint32{99}, 4)
	})
	expectPanic("decreasing starts", func() {
		g, _ := freshNodes(3)
		g.WireSnapshotEdgesPar([]int32{0, 1, 0, 1}, []uint32{1}, 2)
	})
}

// TestWireSnapshotEdgesThenMutate checks the arena stays safe under the
// full mutation surface afterwards: redirects write in place, appends to a
// capacity-clamped in-list must reallocate rather than spill into the next
// node's segment, and removals regenerate cleanly.
func TestWireSnapshotEdgesThenMutate(t *testing.T) {
	n := 50
	g, hs := freshNodes(n)
	starts, targets := buildSpec(n, 4, rng.New(3))
	g.WireSnapshotEdges(starts, targets)

	// Grow node 0's in-list past its arena capacity: neighbors' lists must
	// be unaffected (a spill would corrupt slot order in their segments).
	before := make(map[int]int)
	for s := 1; s < n; s++ {
		before[s] = g.InDegreeLive(hs[s])
	}
	for i := 0; i < 8; i++ {
		h := g.AddNode(100)
		g.AddOutEdge(h, hs[0])
	}
	for s := 1; s < n; s++ {
		if g.InDegreeLive(hs[s]) != before[s] {
			t.Fatalf("slot %d in-degree changed after neighbor append", s)
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("after appends: %v", err)
	}

	// Kill a node and redirect every orphaned request (rule 3) — the
	// RemoveNode/RedirectOutEdge path over arena-backed lists.
	victim := hs[7]
	orphans := g.RemoveNode(victim, nil)
	r := rng.New(9)
	for _, e := range orphans {
		tgt := g.RandomAliveExcept(r, e.Src)
		g.RedirectOutEdge(e.Src, e.Slot, tgt)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("after removal+redirect: %v", err)
	}
}

// TestWireSnapshotEdgesPanics pins the guard rails.
func TestWireSnapshotEdgesPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("bad starts length", func() {
		g, _ := freshNodes(3)
		g.WireSnapshotEdges(make([]int32, 3), nil)
	})
	expectPanic("self target", func() {
		g, _ := freshNodes(3)
		g.WireSnapshotEdges([]int32{0, 1, 1, 1}, []uint32{0})
	})
	expectPanic("target out of range", func() {
		g, _ := freshNodes(3)
		g.WireSnapshotEdges([]int32{0, 1, 1, 1}, []uint32{9})
	})
	expectPanic("decreasing starts", func() {
		g, _ := freshNodes(3)
		g.WireSnapshotEdges([]int32{0, 1, 0, 1}, []uint32{1})
	})
	expectPanic("starts do not cover targets", func() {
		g, _ := freshNodes(3)
		g.WireSnapshotEdges([]int32{0, 1, 1, 1}, []uint32{1, 2})
	})
	expectPanic("existing edges", func() {
		g, hs := freshNodes(3)
		g.AddOutEdge(hs[0], hs[1])
		g.WireSnapshotEdges([]int32{0, 0, 0, 0}, nil)
	})
	expectPanic("reused slot", func() {
		g, hs := freshNodes(3)
		g.RemoveNode(hs[1], nil)
		g.AddNode(5) // reuses the slot at generation 2
		g.WireSnapshotEdges([]int32{0, 0, 0, 0}, nil)
	})
	expectPanic("dead slot", func() {
		g, hs := freshNodes(3)
		g.RemoveNode(hs[2], nil)
		g.WireSnapshotEdges([]int32{0, 0, 0, 0}, nil)
	})
}

// addOutEdgeBuild wires a spec the per-edge way, owner by owner in
// out-slot order: the build every bulk wiring must reproduce.
func addOutEdgeBuild(n int, starts []int32, targets []uint32) *Graph {
	ref, rh := freshNodes(n)
	for s := 0; s < n; s++ {
		for _, tg := range targets[starts[s]:starts[s+1]] {
			ref.AddOutEdge(rh[s], rh[tg])
		}
	}
	return ref
}

// sameArenas compares two graphs' adjacency record by record: every
// out-list, and every in-list entry (source and out-slot index) in order.
// Equal to a per-edge build, got needs no CheckInvariants, whose cost is
// quadratic in a hub's in-degree.
func sameArenas(t *testing.T, tag string, got, want *Graph) {
	t.Helper()
	for s := range want.nodes {
		if !slices.Equal(got.nodes[s].out, want.nodes[s].out) {
			t.Fatalf("%s slot %d: out-lists differ", tag, s)
		}
		if !slices.Equal(got.nodes[s].in, want.nodes[s].in) {
			t.Fatalf("%s slot %d: in-lists differ", tag, s)
		}
	}
}

// TestWireSnapshotEdgesBlockEdgeCases pins the blocked in-list fill at the
// shapes its block geometry makes special, each against the per-edge
// AddOutEdge build at several worker counts: every target in one block
// while the arena spans several; an arena narrower than one block, one
// block exactly, and widths that are not a multiple of the block; and
// one owner with more requests than the out-slot field of a staged
// record holds (k ≥ 2^(32−fillBlockBits)), which makes the fill narrow
// its blocks.
func TestWireSnapshotEdgesBlockEdgeCases(t *testing.T) {
	const width = 1 << fillBlockBits
	type spec struct {
		name    string
		n       int
		starts  []int32
		targets []uint32
	}
	var specs []spec

	// Every request lands in the first 64 slots of a multi-block arena.
	oneBlock := func(n int) spec {
		r := rng.New(uint64(n))
		starts := make([]int32, n+1)
		var targets []uint32
		for s := 0; s < n; s++ {
			for j := r.Intn(6); j > 0; j-- {
				tg := uint32(r.Intn(63))
				if tg >= uint32(s) && s < 64 {
					tg++
				}
				targets = append(targets, tg)
			}
			starts[s+1] = int32(len(targets))
		}
		return spec{fmt.Sprintf("one block, n=%d", n), n, starts, targets}
	}
	specs = append(specs, oneBlock(3*width+17))
	for _, n := range []int{1, 2, 5, width - 1, width, width + 1, 2*width + 100, 3*width - 1} {
		starts, targets := buildSpec(n, 7, rng.New(uint64(n)+5))
		specs = append(specs, spec{fmt.Sprintf("n=%d", n), n, starts, targets})
	}

	// Owner 0 makes 2^(32−fillBlockBits) + 5 requests over the other
	// slots of an arena wider than a narrowed block.
	const big = 1<<(32-fillBlockBits) + 5
	n := width + width/2
	starts := make([]int32, n+1)
	targets := make([]uint32, big)
	for k := range targets {
		targets[k] = uint32(1 + k%(n-1))
	}
	for s := 1; s <= n; s++ {
		starts[s] = big
	}
	specs = append(specs, spec{"owner past the k field", n, starts, targets})

	for _, sp := range specs {
		ref := addOutEdgeBuild(sp.n, sp.starts, sp.targets)
		for _, workers := range []int{1, 2, 3} {
			g, _ := freshNodes(sp.n)
			g.WireSnapshotEdgesPar(sp.starts, slices.Clone(sp.targets), workers)
			sameArenas(t, fmt.Sprintf("%s W=%d", sp.name, workers), g, ref)
		}
	}
}

// TestSnapshotWiringHandOff drives the incremental path the samplers use:
// the spec is handed off in uneven owner ranges while later owners are
// still unwritten, with the edge count known, unknown, or announced wrong,
// and the wired graph must equal the per-edge build at every worker count.
func TestSnapshotWiringHandOff(t *testing.T) {
	for _, n := range []int{1, 3, 700, 5000} {
		starts, targets := buildSpec(n, 9, rng.New(uint64(n)*3))
		ref := addOutEdgeBuild(n, starts, targets)
		for _, workers := range []int{1, 2, 3, -1} {
			for _, edges := range []int{len(targets), -1, len(targets) + 1} {
				g, _ := freshNodes(n)
				st := make([]int32, n+1)
				buf := make([]uint32, len(targets)+8)
				w := g.NewSnapshotWiring(st, buf, edges, workers)
				for s := 0; s < n; s++ {
					copy(buf[starts[s]:], targets[starts[s]:starts[s+1]])
					st[s+1] = starts[s+1]
					if s%97 == 96 || s%211 == 0 {
						w.HandOff(s + 1)
					}
				}
				w.Wire(buf[:len(targets)])
				sameArenas(t, fmt.Sprintf("n=%d W=%d edges=%d", n, workers, edges), g, ref)
			}
		}
	}
}

// TestSnapshotWiringWrongCount is the negative control for the counts the
// fill trusts: a spec whose block counts no longer match its targets (an
// owner's target rewritten after it was counted, or a count off by one
// each way) must make Wire panic, and before any in-list entry is placed
// or any node record written.
func TestSnapshotWiringWrongCount(t *testing.T) {
	const n = 3 << fillBlockBits
	starts, targets := buildSpec(n, 6, rng.New(41))
	corruptions := map[string]func(w *SnapshotWiring, buf []uint32){
		"target moved to another block after the count": func(w *SnapshotWiring, buf []uint32) {
			for i, tg := range buf {
				if tg < 1<<fillBlockBits && int(tg) != n-1 {
					buf[i] = n - 1 // the last block gains a request it was not counted for
					return
				}
			}
			t.Fatal("no request into the first block")
		},
		"one block over, the next under": func(w *SnapshotWiring, buf []uint32) {
			w.runs[0].end++
			w.runs[1].end--
		},
		"one block under, the next over": func(w *SnapshotWiring, buf []uint32) {
			w.runs[0].end--
			w.runs[1].end++
		},
	}
	for name, corrupt := range corruptions {
		for _, workers := range []int{1, 2, 3} {
			g, _ := freshNodes(n)
			buf := slices.Clone(targets)
			w := g.NewSnapshotWiring(starts, buf, len(buf), workers)
			w.count(n) // counted on this goroutine: the corruption cannot race a counter
			corrupt(w, buf)
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "block counts") {
						t.Errorf("%s W=%d: Wire did not panic on the counts (recovered %q)", name, workers, msg)
					}
				}()
				w.Wire(buf)
			}()
			for s := range g.nodes {
				if len(g.nodes[s].in) != 0 || len(g.nodes[s].out) != 0 {
					t.Fatalf("%s W=%d: slot %d was wired before the panic", name, workers, s)
				}
			}
		}
	}
}
