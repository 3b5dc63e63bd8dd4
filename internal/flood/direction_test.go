package flood

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
	"github.com/dyngraph/churnnet/internal/staticgraph"
)

// drainDirs are the drain directions the oracles sweep: the rule, and
// each direction forced on every drain.
var drainDirs = []drainDirection{drainAuto, drainPush, drainPull}

func (d drainDirection) String() string {
	return [...]string{"auto", "push", "pull"}[d]
}

// drainLog records the directions a plane's drains take, in order. The
// harness sets injecting right before each Inject, and that Inject's
// drain — every Inject drains its source — clears it, so injectPulls
// counts the pulls inside Inject.
type drainLog struct {
	dirs        []bool      // true = pull
	waves       []drainWave // what each drain weighed, in the same order
	pulls       int
	injectPulls int
	injecting   bool
}

// drainWave is one drain as the direction rule saw it: the plane's Step
// count (0 inside the Injects before the first Step), the uninformed side
// u and the pending scans nScan.
type drainWave struct{ step, u, nScan int }

// attach forces dir on tr and logs its drains.
func (l *drainLog) attach(tr *Traffic, dir drainDirection) {
	tr.drainDir = dir
	tr.onDrain = func(pull bool, u, nScan int) {
		l.dirs = append(l.dirs, pull)
		l.waves = append(l.waves, drainWave{tr.Steps(), u, nScan})
		if pull {
			l.pulls++
			if l.injecting {
				l.injectPulls++
			}
		}
		l.injecting = false
	}
}

// check fails unless the log fits dir: a forced direction is the only
// one taken, and the rule never pulls inside an Inject.
func (l *drainLog) check(t *testing.T, dir drainDirection, at string) {
	t.Helper()
	switch {
	case dir == drainPush && l.pulls != 0:
		t.Fatalf("%s: forced push ran %d pulls", at, l.pulls)
	case dir == drainPull && l.pulls != len(l.dirs):
		t.Fatalf("%s: forced pull ran %d pushes", at, len(l.dirs)-l.pulls)
	case dir == drainAuto && l.injectPulls != 0:
		t.Fatalf("%s: the rule pulled inside %d Injects", at, l.injectPulls)
	}
}

// runDir is Run with the drain direction forced to dir, logged into l.
func runDir(m core.Model, opts Options, dir drainDirection, l *drainLog) Result {
	return run(m, opts, func(tr *Traffic) {
		l.attach(tr, dir)
		l.injecting = true
	})
}

// TestDrainDirectionRule pins the rule on a flood that saturates in a few
// waves (SDGR, d = 21): the source's drain pushes, the dense wave pulls,
// the direction sequence is the same at every worker count (the rule
// reads plane counters only), and the Result is the reference's under
// every direction.
func TestDrainDirectionRule(t *testing.T) {
	t.Parallel()
	m := core.SampleStationary(core.SDGR, 3000, 21, rng.New(5))
	want := RunReference(m, Options{})
	var serial []bool
	for _, par := range testPars() {
		for _, dir := range drainDirs {
			var l drainLog
			got := runDir(core.SampleStationary(core.SDGR, 3000, 21, rng.New(5)), Options{Parallelism: par}, dir, &l)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("par %d %v: engine and reference diverged\nengine:    %+v\nreference: %+v", par, dir, got, want)
			}
			l.check(t, dir, "rule")
			if dir != drainAuto {
				continue
			}
			if len(l.dirs) == 0 || l.dirs[0] || l.pulls == 0 {
				t.Fatalf("par %d: directions %v, want a push for the source and a pull later", par, l.dirs)
			}
			if serial == nil {
				serial = l.dirs
			} else if !reflect.DeepEqual(l.dirs, serial) {
				t.Fatalf("par %d: directions %v, serial %v", par, l.dirs, serial)
			}
		}
	}
}

// TestDrainDirectionRuleBurst pins the rule on a multi-message burst,
// where every node crosses in some lane: each Inject pushes its source,
// the dense waves pull — including one whose frontier is still smaller
// than the uninformed side, which the rule pulls because a push visit
// costs κ = pushVisitCost pull visits — the direction sequence is the
// same at every worker count, and every message's Result is its
// RunReference replay's under every direction.
func TestDrainDirectionRuleBurst(t *testing.T) {
	t.Parallel()
	const n, d, M = 4000, 21, 24
	build := func() core.Model { return core.SampleStationary(core.SDGR, n, d, rng.New(9)) }
	opts := TrafficOptions{KeepTrajectory: true}
	steps := make([]int, M) // every message at step 0
	want, inj := runTrafficPlane(build(), opts, steps)
	for i, in := range inj {
		if ref := replaySingle(build(), opts, in); !reflect.DeepEqual(want[i], ref) {
			t.Fatalf("message %d diverged from its single-message replay\nplane:  %+v\nsingle: %+v", i, want[i], ref)
		}
	}
	var serial []bool
	for _, par := range testPars() {
		for _, dir := range drainDirs {
			popts := opts
			popts.Parallelism = par
			var l drainLog
			got, _ := runTrafficPlaneDir(build(), popts, steps, dir, &l)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("par %d %v: plane diverged from its replays\n%+v\n%+v", par, dir, got, want)
			}
			l.check(t, dir, fmt.Sprintf("par %d", par)) // no Inject pulls
			if dir != drainAuto {
				continue
			}
			if len(l.dirs) <= M {
				t.Fatalf("par %d: directions %v, want the %d Injects' and then the Steps'", par, l.dirs, M)
			}
			thin := false // a pulled wave smaller than the uninformed side
			for k, pull := range l.dirs[M:] {
				w := l.waves[M+k]
				if !pull && w.nScan >= w.u {
					t.Fatalf("par %d: drain %+v pushed a wave as large as the uninformed side", par, w)
				}
				thin = thin || pull && w.nScan < w.u
			}
			if !thin {
				t.Fatalf("par %d: no pulled wave below the uninformed side; waves %+v, directions %v", par, l.waves, l.dirs)
			}
			if serial == nil {
				serial = l.dirs
			} else if !reflect.DeepEqual(l.dirs, serial) {
				t.Fatalf("par %d: directions %v, serial %v", par, l.dirs, serial)
			}
		}
	}
}

// TestDrainNoPullAfterCompletion pins the rule's slot-pass term: once a
// RunToMax broadcast has completed, each Step informs the handful of
// newborns the last round let in, and neither side of the drain is large
// enough to pay for pull's pass over every arena slot. Without the term,
// the rule pulled 25 of these drains at κ = 1 (as before the weighting)
// and 30 at κ = 3.
func TestDrainNoPullAfterCompletion(t *testing.T) {
	t.Parallel()
	m := core.SampleStationary(core.PDGR, 20_000, 8, rng.New(7))
	var l drainLog
	res := runDir(m, Options{MaxRounds: 200, RunToMax: true}, drainAuto, &l)
	if !res.Completed || res.Rounds != 200 || l.pulls == 0 {
		t.Fatalf("want a completed 200-round window whose dense wave pulls, got %+v, directions %v", res, l.dirs)
	}
	for k, pull := range l.dirs {
		if pull && l.waves[k].step > res.CompletionRound {
			t.Fatalf("drain %+v pulled after completion in round %d", l.waves[k], res.CompletionRound)
		}
	}
}

// The drain benchmarks time a to-completion broadcast at n = 10⁵, d = 21
// on a sampled stationary SDGR model under each drain direction; the
// model is built outside the timer, from the same seeds in all three.

func benchDrain(b *testing.B, dir drainDirection) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := core.SampleStationary(core.SDGR, 100_000, 21, rng.New(uint64(i)))
		var l drainLog
		b.StartTimer()
		if res := runDir(m, Options{}, dir, &l); !res.Completed {
			b.Fatal("unexpected non-completion")
		}
	}
}

func BenchmarkFloodDrainPush(b *testing.B) { benchDrain(b, drainPush) }
func BenchmarkFloodDrainPull(b *testing.B) { benchDrain(b, drainPull) }
func BenchmarkFloodDrainAuto(b *testing.B) { benchDrain(b, drainAuto) }

// The burst drain benchmarks step a burst of 64 messages at n = 10⁵,
// d = 21, W = 2 to completion, retiring each message as it finishes,
// under each drain direction; the model is built outside the timer, and
// the sources are spread evenly over its alive list.

func benchBurstDrain(b *testing.B, dir drainDirection) {
	b.Helper()
	const M = 64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := core.SampleStationary(core.SDGR, 100_000, 21, rng.New(uint64(i)))
		alive := m.Graph().AliveHandles()
		b.StartTimer()
		tr := NewTraffic(m, TrafficOptions{Parallelism: 2})
		tr.drainDir = dir
		ids := make([]MessageID, M)
		for k := range ids {
			ids[k] = tr.Inject(alive[(2*k+1)*len(alive)/(2*M)])
		}
		for tr.Live() > 0 {
			tr.Step()
			for _, id := range ids {
				if tr.Status(id) == MessageDone {
					tr.Retire(id)
				}
			}
		}
		tr.Close()
	}
}

func BenchmarkTrafficBurstDrainPush(b *testing.B) { benchBurstDrain(b, drainPush) }
func BenchmarkTrafficBurstDrainPull(b *testing.B) { benchBurstDrain(b, drainPull) }
func BenchmarkTrafficBurstDrainAuto(b *testing.B) { benchBurstDrain(b, drainAuto) }

// TestPullRecountPlaneBoundaries pins the pull recount's bit planes at
// their carries. A static hub of degree 300 — half its edges out, half
// in — neighbors every y_j, j = 1..300; lane l's source (one of 70, so
// the lanes span two words) neighbors y_1..y_{c_l}, with c_l cycling over
// 2^k − 1 and 2^k up to 256, and 300, the hub's degree. Round 1 informs
// exactly y_1..y_{c_l} in lane l, so the next drain recounts the hub's
// lane-l count to c_l, and each source's to min(c_l, c_l') in lane l'.
// The hub needs all nine planes its degree allows; the top one holds only
// the counts from 256 on. Under pull and push forced, at every worker
// count, every Result must be its RunReference's, every frozen cut the
// recomputed one, and the hub's frozen counts exactly c_l.
func TestPullRecountPlaneBoundaries(t *testing.T) {
	t.Parallel()
	const hubDeg, M = 300, 70
	var targets []int
	for k := 1; k <= 8; k++ {
		targets = append(targets, 1<<k-1, 1<<k)
	}
	targets = append(targets, hubDeg)
	c := make([]int, M)
	for l := range c {
		c[l] = targets[l%len(targets)]
	}
	n := 1 + hubDeg + M // hub 0, y_j = j, lane l's source n-1-l
	var edges [][2]int
	for j := 1; j <= hubDeg; j++ {
		if j%2 == 1 {
			edges = append(edges, [2]int{0, j})
		} else {
			edges = append(edges, [2]int{j, 0})
		}
	}
	for l, cl := range c {
		for j := 1; j <= cl; j++ {
			edges = append(edges, [2]int{n - 1 - l, j})
		}
	}
	build := func() (core.Model, []graph.Handle) {
		g, hs := staticgraph.FromEdges(n, edges)
		return core.NewStaticModel(g, 1), hs
	}

	want := make([]Result, M)
	for l := range want {
		m, hs := build()
		want[l] = RunReference(m, Options{Source: hs[n-1-l], KeepTrajectory: true})
	}
	for _, dir := range []drainDirection{drainPull, drainPush} {
		for _, par := range testPars() {
			at := fmt.Sprintf("%v par %d", dir, par)
			m, hs := build()
			hub := hs[0]
			tr := NewTraffic(m, TrafficOptions{KeepTrajectory: true, Parallelism: par})
			var l drainLog
			l.attach(tr, dir)
			hubCounts := make([]int32, M) // the hub's frozen counts, per lane
			tr.onFreeze = func() {
				checkFrozenCut(t, tr, at)
				if !tr.tracked.current(hub) {
					return
				}
				for li, cnt := range tr.cnt.row(hub.Slot)[:M] {
					if tr.tracked.has(hub, li) {
						hubCounts[li] = max(hubCounts[li], cnt)
					}
				}
			}
			ids := make([]MessageID, M)
			for li := range ids {
				ids[li] = tr.Inject(hs[n-1-li])
			}
			for tr.Live() > 0 {
				tr.Step()
			}
			for li, id := range ids {
				if got := tr.Result(id); !reflect.DeepEqual(got, want[li]) {
					t.Fatalf("%s: lane %d (c = %d) diverged from its reference\nplane:     %+v\nreference: %+v",
						at, li, c[li], got, want[li])
				}
				if hubCounts[li] != int32(c[li]) {
					t.Fatalf("%s: lane %d froze the hub at count %d, want %d", at, li, hubCounts[li], c[li])
				}
			}
			tr.Close()
			l.check(t, dir, at)
		}
	}
}
