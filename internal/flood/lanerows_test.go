package flood

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

// gapModel is a churnTestModel that crashes `gap` uniformly random nodes
// between rounds. A plane's driver crashes them right after each Step
// (flushGap), between Steps; a RunReference replay leaves them pending,
// and the next AdvanceRound runs them first. The two orders consume the
// model's randomness identically, and under Discretized semantics they
// flood identically: a node crashed before the freeze is out of the
// plane's frozen cut, and in the reference it is a receiver or sender
// dead at admission. A crash places no edge and births nothing, so the
// snapshot's edges and the round's pre-round nodes agree too.
type gapModel struct {
	*churnTestModel
	gap     int
	pending bool // a gap's crashes are due
}

func (m *gapModel) flushGap() {
	if !m.pending {
		return
	}
	m.pending = false
	for i := 0; i < m.gap && m.g.NumAlive() > 2; i++ {
		m.depart(m.g.RandomAlive(m.r), false)
	}
}

func (m *gapModel) AdvanceRound() {
	m.flushGap()
	m.churnTestModel.AdvanceRound()
	m.pending = true
}

// TestLaneRowWidths drives the packed rows through every width the plane
// lays them out at: lanes are injected one per Step up to 130, so the
// rows widen from 1 bit a slot through 2, 4, 8, 16, 32 and 64 bits, then
// to 2 and 3 words, each time with informed bits set and messages in
// flight (RunToMax keeps a message flooding for MaxRounds Steps, and
// earlier ones sit dormant with their bits). Churn runs inside every
// round and, as crashes, between Steps. After every Inject a fresh
// CaptureView must answer Informed like the plane for every in-flight
// message at every alive node, and in the end every message's Result
// must equal its RunReference replay.
func TestLaneRowWidths(t *testing.T) {
	t.Parallel()
	const (
		lanes = 130
		seed  = 11
	)
	build := func() *gapModel {
		return &gapModel{churnTestModel: newChurnTestModel(300, 3, 4, seed), gap: 1}
	}
	opts := TrafficOptions{Mode: Discretized, MaxRounds: 40, KeepTrajectory: true, RunToMax: true}
	for _, par := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("W=%d", par), func(t *testing.T) {
			t.Parallel()
			m := build()
			opts := opts
			opts.Parallelism = par
			tr := NewTraffic(m, opts)
			defer tr.Close()
			drv := rng.New(seed ^ 0x5bd1e995)
			var inj []trafficInjection
			widths := map[rowLayout]bool{}
			for step := 0; step < lanes; step++ {
				src := m.g.RandomAlive(drv)
				inj = append(inj, trafficInjection{id: tr.Inject(src), step: step, src: src})
				widths[tr.informed.rowLayout] = true
				v := tr.CaptureView(nil)
				for _, li := range tr.inFlight {
					id := tr.lanes[li].id
					m.g.ForEachAlive(func(h graph.Handle) bool {
						if got, want := v.Informed(id, h), tr.Informed(id, h); got != want {
							t.Fatalf("W=%d: after Inject %d (rows %+v): view reads message %d at %v as %v, plane %v",
								par, step, tr.informed.rowLayout, id, h, got, want)
						}
						return true
					})
				}
				tr.Step()
				m.flushGap()
			}
			for tr.Live() > 0 {
				tr.Step()
				m.flushGap()
			}
			if len(widths) != 9 {
				t.Fatalf("W=%d: rows took %d layouts, want 9: %v", par, len(widths), widths)
			}
			for _, in := range inj {
				r := build()
				for i := 0; i < in.step; i++ {
					r.AdvanceRound()
				}
				r.flushGap()
				want := RunReference(r, Options{
					Source:         in.src,
					Mode:           opts.Mode,
					MaxRounds:      opts.MaxRounds,
					KeepTrajectory: true,
					RunToMax:       true,
				})
				if got := tr.Result(in.id); !reflect.DeepEqual(got, want) {
					t.Fatalf("W=%d: message %d (injected at step %d) diverged from its replay\nplane:  %+v\nsingle: %+v",
						par, in.id, in.step, got, want)
				}
			}
		})
	}
}

// TestInformedRowClearedAtDeath pins the death clear of the informed rows,
// which carry no generation: a node informed by a message dies while no
// message is in flight, a newborn takes its slot, and the newborn must
// read uninformed in every lane. A second message then floods from
// another node under each forced drain direction, and both messages'
// Results must equal their RunReference replays.
func TestInformedRowClearedAtDeath(t *testing.T) {
	t.Parallel()
	const seed = 5
	for _, dir := range []drainDirection{drainPull, drainPush} {
		m := newChurnTestModel(200, 3, 2, seed)
		tr := NewTraffic(m, TrafficOptions{KeepTrajectory: true})
		tr.drainDir = dir
		a := tr.Inject(graph.Nil)
		srcA := tr.Result(a).Source
		stepsA := 0
		for tr.Live() > 0 {
			tr.Step()
			stepsA++
		}
		// Between Steps, with no lane in flight: the youngest node A
		// informed dies and a newborn takes its slot.
		var victim graph.Handle
		m.g.ForEachAlive(func(h graph.Handle) bool {
			if tr.informed.has(h, 0) && h != srcA && (victim.IsNil() || m.g.BirthSeq(h) > m.g.BirthSeq(victim)) {
				victim = h
			}
			return true
		})
		if victim.IsNil() {
			t.Fatalf("%v: message A informed no node besides its source", dir)
		}
		m.depart(victim, true)
		born := m.join()
		if born.Slot != victim.Slot {
			t.Fatalf("%v: the newborn took slot %d, not the dead node's %d", dir, born.Slot, victim.Slot)
		}
		for li := range tr.lanes {
			if tr.informed.has(born, li) {
				t.Fatalf("%v: the newborn in a dead informed node's slot reads informed in lane %d", dir, li)
			}
		}
		srcB := nthAlive(m.g, 7)
		b := tr.Inject(srcB)
		for tr.Live() > 0 {
			tr.Step()
		}
		if tr.informed.has(born, 0) {
			t.Fatalf("%v: the newborn reads informed in message A's dormant lane", dir)
		}
		gotA, gotB := tr.Result(a), tr.Result(b)
		tr.Close()

		r := newChurnTestModel(200, 3, 2, seed)
		if want := RunReference(r, Options{KeepTrajectory: true}); !reflect.DeepEqual(gotA, want) {
			t.Fatalf("%v: message A diverged from its replay\nplane:  %+v\nsingle: %+v", dir, gotA, want)
		}
		r = newChurnTestModel(200, 3, 2, seed)
		for i := 0; i < stepsA; i++ {
			r.AdvanceRound()
		}
		r.depart(victim, true)
		r.join()
		if want := RunReference(r, Options{Source: srcB, KeepTrajectory: true}); !reflect.DeepEqual(gotB, want) {
			t.Fatalf("%v: message B diverged from its replay\nplane:  %+v\nsingle: %+v", dir, gotB, want)
		}
	}
}

// floodAllocBound caps the bytes TestFloodRunAllocBound's one-lane flood
// may allocate at n = 5·10⁴: 70 bytes a node. Sized per-round lists and
// one-bit rows measure 2.1–2.4 MB over seeds 1–6 (W = 2); growing the
// lists by append and keeping a word and a generation per slot measured
// 8.5–8.6 MB.
const floodAllocBound = 70 * 50000

// TestFloodRunAllocBound bounds what a one-lane Run to completion
// allocates on a stationary SDGR snapshot (n = 5·10⁴, d = 21, W = 2): the
// plane's rows, its per-round lists sized once from the bounds each pass
// has, and its staging, but no list regrown by append.
func TestFloodRunAllocBound(t *testing.T) {
	m := core.SampleStationaryPar(core.SDGR, 50000, 21, rng.New(3), 2)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := Run(m, Options{Parallelism: 2})
	runtime.ReadMemStats(&after)
	if !res.Completed {
		t.Fatalf("the flood did not complete: %+v", res)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > floodAllocBound {
		t.Fatalf("Run allocated %d bytes, bound %d", got, floodAllocBound)
	}
}
