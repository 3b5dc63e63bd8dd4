package flood

import (
	"testing"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

// TestTrafficInformedAccessors: the per-node read accessors agree with a
// brute-force replay — the source is informed immediately, EverInformed
// counts match the number of nodes ever reporting informed, and dead or
// foreign handles report false.
func TestTrafficInformedAccessors(t *testing.T) {
	m := core.New(core.SDGR, 300, 3, rng.New(11))
	core.WarmUp(m)
	tr := NewTraffic(m, TrafficOptions{})
	defer tr.Close()

	src := m.LastBorn()
	id := tr.Inject(src)
	if !tr.Informed(id, src) {
		t.Fatal("source not informed at injection")
	}
	if got := tr.InformedAlive(id); got != 1 {
		t.Fatalf("InformedAlive at injection = %d", got)
	}
	if tr.Informed(id, graph.Nil) {
		t.Fatal("nil handle informed")
	}

	g := m.Graph()
	for tr.Status(id) == MessageInFlight {
		tr.Step()
		// Count informed alive nodes through the accessor and compare
		// with the lane counter.
		n := 0
		g.ForEachAlive(func(h graph.Handle) bool {
			if tr.Informed(id, h) {
				n++
			}
			return true
		})
		if tr.Status(id) == MessageInFlight {
			if got := tr.InformedAlive(id); got != n {
				t.Fatalf("step %d: InformedAlive=%d, accessor count=%d", tr.Steps(), got, n)
			}
		}
	}
	res := tr.Result(id)
	if got := tr.InformedAlive(id); got != res.FinalInformed {
		t.Fatalf("done InformedAlive=%d, FinalInformed=%d", got, res.FinalInformed)
	}
	// Done messages report false per node (membership is stale).
	if tr.Informed(id, src) && !g.IsAlive(src) {
		t.Fatal("informed true for dead source on a done message")
	}
	informedAny := false
	g.ForEachAlive(func(h graph.Handle) bool {
		if tr.Informed(id, h) {
			informedAny = true
		}
		return true
	})
	if informedAny {
		t.Fatal("done message still reports per-node informed state")
	}
}

// TestTrafficCaptureView: a captured view answers exactly like the live
// accessors at the capture instant, and stays frozen while the plane
// advances.
func TestTrafficCaptureView(t *testing.T) {
	m := core.New(core.PDGR, 300, 3, rng.New(5))
	core.WarmUp(m)
	tr := NewTraffic(m, TrafficOptions{})
	defer tr.Close()
	g := m.Graph()

	id1 := tr.Inject(graph.Nil)
	for i := 0; i < 2; i++ {
		tr.Step()
	}
	id2 := tr.Inject(graph.Nil)

	var v *TrafficView
	v = tr.CaptureView(v)
	if got := v.InFlight(); len(got) == 0 {
		t.Fatal("no in-flight messages captured")
	}
	type key struct {
		id MessageID
		h  graph.Handle
	}
	truth := map[key]bool{}
	for _, id := range []MessageID{id1, id2} {
		if tr.Status(id) != MessageInFlight {
			continue
		}
		g.ForEachAlive(func(h graph.Handle) bool {
			truth[key{id, h}] = tr.Informed(id, h)
			return true
		})
	}
	for k, want := range truth {
		if got := v.Informed(k.id, k.h); got != want {
			t.Fatalf("view disagrees with live accessor at %v/%v: %v != %v", k.id, k.h, got, want)
		}
	}

	// Advance the plane; the view must not change.
	before := map[key]bool{}
	for k := range truth {
		before[k] = v.Informed(k.id, k.h)
	}
	for i := 0; i < 5; i++ {
		tr.Step()
	}
	for k, want := range before {
		if got := v.Informed(k.id, k.h); got != want {
			t.Fatalf("view changed after Step at %v/%v", k.id, k.h)
		}
	}

	// Unknown message IDs are false, not a panic.
	if v.Informed(MessageID(999), m.LastBorn()) {
		t.Fatal("unknown message informed")
	}

	// An incremental capture on top of v answers the plane's state now,
	// and v still answers its own capture instant.
	v2 := tr.CaptureView(v)
	for k := range before {
		if tr.Status(k.id) == MessageInFlight && g.IsAlive(k.h) {
			if got, want := v2.Informed(k.id, k.h), tr.Informed(k.id, k.h); got != want {
				t.Fatalf("incremental view disagrees with live accessor at %v/%v: %v != %v", k.id, k.h, got, want)
			}
		}
		if got, want := v.Informed(k.id, k.h), before[k]; got != want {
			t.Fatalf("view changed after a later capture at %v/%v", k.id, k.h)
		}
	}
}

// TestTrafficCaptureViewWordSeam exercises the view across the 64-lane
// word boundary: with >64 injected messages the per-slot stride is 2 and
// lane bits above 63 live in the second word.
func TestTrafficCaptureViewWordSeam(t *testing.T) {
	m := core.New(core.SDGR, 200, 3, rng.New(9))
	core.WarmUp(m)
	tr := NewTraffic(m, TrafficOptions{RunToMax: true, MaxRounds: 50})
	defer tr.Close()
	g := m.Graph()

	var ids []MessageID
	for i := 0; i < 70; i++ {
		ids = append(ids, tr.Inject(graph.Nil))
		tr.Step()
	}
	v := tr.CaptureView(nil)
	checked := 0
	for _, id := range ids {
		if tr.Status(id) != MessageInFlight {
			continue
		}
		g.ForEachAlive(func(h graph.Handle) bool {
			if v.Informed(id, h) != tr.Informed(id, h) {
				t.Fatalf("seam mismatch msg %v node %v", id, h)
			}
			checked++
			return true
		})
	}
	if checked == 0 {
		t.Fatal("nothing checked across the seam")
	}
}
