package flood

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

// nthAlive returns the alive node with the (i+1)-th highest birth sequence
// (mod alive count) — a deterministic function of the snapshot alone, so a
// traffic plane and its single-message oracle replays pick identical sources
// at identical model states. Ranking by youth keeps streaming-model sources
// from being the very nodes the next rounds evict.
func nthAlive(g *graph.Graph, i int) graph.Handle {
	var hs []graph.Handle
	g.ForEachAlive(func(v graph.Handle) bool {
		hs = append(hs, v)
		return true
	})
	if len(hs) == 0 {
		return graph.Handle{}
	}
	sort.Slice(hs, func(a, b int) bool { return g.BirthSeq(hs[a]) > g.BirthSeq(hs[b]) })
	return hs[i%len(hs)]
}

// trafficInjection records one admitted message of a plane run: when it was
// injected, from where, and under which ID.
type trafficInjection struct {
	id   MessageID
	step int
	src  graph.Handle
}

// runTrafficPlane drives one multi-message run: messages[i] is injected
// after steps[i] plane Steps from the deterministic source nthAlive(g, i),
// and the plane Steps until every message finished. It returns the final
// per-message Results in admission order.
func runTrafficPlane(m core.Model, opts TrafficOptions, steps []int) ([]Result, []trafficInjection) {
	return runTrafficPlaneDir(m, opts, steps, drainAuto, &drainLog{})
}

// runTrafficPlaneDir is runTrafficPlane with the drain direction forced to
// dir, logged into l.
func runTrafficPlaneDir(m core.Model, opts TrafficOptions, steps []int, dir drainDirection, l *drainLog) ([]Result, []trafficInjection) {
	tr := NewTraffic(m, opts)
	defer tr.Close()
	l.attach(tr, dir)
	var inj []trafficInjection
	next := 0
	for step := 0; ; step++ {
		for next < len(steps) && steps[next] == step {
			src := nthAlive(m.Graph(), next)
			l.injecting = true
			id := tr.Inject(src)
			inj = append(inj, trafficInjection{id: id, step: step, src: src})
			next++
		}
		if next == len(steps) && tr.Live() == 0 {
			break
		}
		tr.Step()
	}
	res := make([]Result, len(inj))
	for i, in := range inj {
		res[i] = tr.Result(in.id)
	}
	return res, inj
}

// replaySingle is the oracle arm: an identically seeded model advanced to
// the injection step, flooded once from the recorded source by the
// full-rescan reference. Flooding consumes no model randomness, so the
// replay sees exactly the churn stream the plane saw.
func replaySingle(m core.Model, opts TrafficOptions, in trafficInjection) Result {
	for i := 0; i < in.step; i++ {
		m.AdvanceRound()
	}
	return RunReference(m, Options{
		Source:         in.src,
		Mode:           opts.Mode,
		MaxRounds:      opts.MaxRounds,
		KeepTrajectory: opts.KeepTrajectory,
		RunToMax:       opts.RunToMax,
	})
}

// TestTrafficMatchesSingleMessageOracle is the headline differential oracle:
// one multi-message run must be indistinguishable, message by message, from
// M independent single-message reference runs each replaying the same churn
// stream — every per-message Result bit-for-bit equal, across all four
// models × three injection schedules × worker counts × 20 seeds, under
// the drain direction rule and under each direction forced. Any
// divergence is a cross-message bookkeeping bug (lanes leaking into each
// other, shared counters miscounted, a frontier event misrouted). The
// rule must push every Inject and pull at least once per model ×
// schedule.
func TestTrafficMatchesSingleMessageOracle(t *testing.T) {
	schedules := []string{"burst", "staggered", "poisson"}
	for _, kind := range core.Kinds() {
		for _, schedule := range schedules {
			kind, schedule := kind, schedule
			t.Run(kind.String()+"-"+schedule, func(t *testing.T) {
				t.Parallel()
				pulls := 0
				for seed := uint64(0); seed < 20; seed++ {
					n := 60 + int(seed%5)*20
					d := 2 + int(seed%8)
					messages := 3 + int(seed%4)
					gap := 1 + int(seed%3)
					mode := Discretized
					if seed%2 == 1 {
						mode = Asynchronous
					}
					opts := TrafficOptions{
						Mode:           mode,
						MaxRounds:      25,
						KeepTrajectory: true,
						RunToMax:       seed%4 == 0,
					}
					steps, err := TrafficSchedule(schedule, messages, gap, seed)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					build := func() core.Model {
						m := core.New(kind, n, d, rng.New(seed))
						core.WarmUp(m)
						return m
					}

					// The serial plane run fixes the injection record; the
					// oracle replays each message independently.
					got, inj := runTrafficPlane(build(), opts, steps)
					want := make([]Result, len(inj))
					for i, in := range inj {
						want[i] = replaySingle(build(), opts, in)
					}
					for i := range inj {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Fatalf("seed %d (n=%d d=%d M=%d): message %d (step %d) diverged from its single-message replay\nplane:  %+v\nsingle: %+v",
								seed, n, d, messages, i, inj[i].step, got[i], want[i])
						}
					}

					// Every sharded setting under every drain direction
					// must reproduce the serial plane bit-for-bit,
					// injections included.
					for _, dir := range drainDirs {
						for _, par := range testPars() {
							popts := opts
							popts.Parallelism = par
							var l drainLog
							pgot, pinj := runTrafficPlaneDir(build(), popts, steps, dir, &l)
							if !reflect.DeepEqual(pinj, inj) {
								t.Fatalf("seed %d par %d %v: injection records diverged", seed, par, dir)
							}
							if !reflect.DeepEqual(pgot, got) {
								t.Fatalf("seed %d par %d %v: plane diverged from the serial plane under the rule\n%+v\n%+v",
									seed, par, dir, pgot, got)
							}
							l.check(t, dir, fmt.Sprintf("seed %d par %d", seed, par))
							if dir == drainAuto {
								pulls += l.pulls
							}
						}
					}
				}
				if pulls == 0 {
					t.Fatal("the drain direction rule never pulled")
				}
			})
		}
	}
}

// TestTrafficNegativeControl proves the oracle has teeth, mirroring PR 5's
// stale-tracker control: a deliberately corrupted plane — one dropped
// cross-message frontier event on one target lane — must be caught by the
// per-message differential comparison, while the untouched lanes keep
// matching their replays (the corruption is confined to the lane whose event
// was dropped; lanes share no informed state). The control runs under each
// drain direction forced, and under the rule; a pull recounts a dropped
// incidence at its next drain, but the round it missed stays wrong. Under
// forced pull the drop must land in the pull recount's word-parallel add.
func TestTrafficNegativeControl(t *testing.T) {
	t.Parallel()
	for _, dir := range drainDirs {
		negativeControl(t, dir)
	}
}

func negativeControl(t *testing.T, dir drainDirection) {
	opts := TrafficOptions{MaxRounds: 25, KeepTrajectory: true}
	caught := 0
	const seeds = 6
	for seed := uint64(0); seed < seeds; seed++ {
		build := func() core.Model {
			m := core.New(core.SDGR, 120, 4, rng.New(seed))
			core.WarmUp(m)
			return m
		}

		// Honest plane: both messages injected as a burst at step 0.
		m := build()
		steps := []int{0, 0}
		honest, inj := runTrafficPlaneDir(m, opts, steps, dir, &drainLog{})

		// Corrupted plane: identical run, except the first frontier event
		// staged for lane 1 — message 1's source scan discovering its first
		// cut edge — is dropped.
		mc := build()
		tr := NewTraffic(mc, opts)
		tr.drainDir = dir
		dropped, pulling, droppedInPull := false, false, false
		tr.onDrain = func(pull bool, u, nScan int) { pulling = pull }
		tr.onStage = func(li int, recv, sender graph.Handle) bool {
			if li == 1 && !dropped {
				dropped, droppedInPull = true, pulling
				return false
			}
			return true
		}
		var ids []MessageID
		for i := range steps {
			ids = append(ids, tr.Inject(nthAlive(mc.Graph(), i)))
		}
		for tr.Live() > 0 {
			tr.Step()
		}
		corrupt := []Result{tr.Result(ids[0]), tr.Result(ids[1])}
		tr.Close()

		if !dropped {
			t.Fatalf("%v seed %d: control never dropped an event", dir, seed)
		}
		if dir == drainPull && !droppedInPull {
			t.Fatalf("%v seed %d: the dropped event bypassed the pull recount", dir, seed)
		}
		if !reflect.DeepEqual(corrupt[0], honest[0]) {
			t.Fatalf("%v seed %d: corruption of lane 1 leaked into message 0\n%+v\n%+v",
				dir, seed, corrupt[0], honest[0])
		}
		// The oracle comparison the main test runs: corrupted message 1
		// against its single-message replay.
		want := replaySingle(build(), opts, inj[1])
		if !reflect.DeepEqual(honest[1], want) {
			t.Fatalf("%v seed %d: honest plane diverged from replay (harness broken)", dir, seed)
		}
		if !reflect.DeepEqual(corrupt[1], want) {
			caught++
		}
	}
	if caught == 0 {
		t.Fatalf("%v: oracle caught 0/%d corrupted runs — the harness has no teeth", dir, seeds)
	}
	t.Logf("%v: oracle caught %d/%d corrupted runs", dir, caught, seeds)
}

// TestTrafficRetireReleasesAndReuses is the memory property test: retiring
// done messages mid-run must release their lanes' per-slot state (tracked
// via the laneFootprint test hook: the allocated lanes, their nonzero
// cut counts and the overflow entries of lanes no longer allocated),
// keeping the plane at O(live messages) rather than O(all ever injected)
// — and a late injection reusing a retired lane slot must
// start from an all-zero count column (right after Inject the column holds
// exactly the source's incidence multiplicities, which Inject counts),
// leave the count store's width alone, and match the reference flooding
// from that model state.
func TestTrafficRetireReleasesAndReuses(t *testing.T) {
	t.Parallel()
	opts := TrafficOptions{MaxRounds: 30, KeepTrajectory: true}
	for seed := uint64(0); seed < 5; seed++ {
		build := func() core.Model {
			m := core.New(core.PDGR, 150, 6, rng.New(seed))
			core.WarmUp(m)
			return m
		}
		m := build()
		tr := NewTraffic(m, opts)

		// Seeds 3+ cross the 64-lane word seam: 65 lanes allocated, and
		// the late injection reuses lane index 64 — a bit column in the
		// second packed word.
		first := 4
		if seed >= 3 {
			first = 65
		}
		var ids []MessageID
		for i := 0; i < first; i++ {
			ids = append(ids, tr.Inject(nthAlive(m.Graph(), i)))
		}
		width0 := 1 << tr.cnt.shift
		if width0 < first || width0 >= 2*first {
			t.Fatalf("seed %d: count rows are %d cells wide for %d lanes", seed, width0, first)
		}
		// Inject counts every source's incidences, so slot state is there
		// before the first Step.
		if lanes0, slot0 := tr.laneFootprint(); lanes0 != first || slot0 == 0 {
			t.Fatalf("seed %d: pre-step footprint lanes=%d slotState=%d", seed, lanes0, slot0)
		}
		for tr.Live() > 0 {
			tr.Step()
		}
		lanesDone, _ := tr.laneFootprint()
		if lanesDone != first {
			t.Fatalf("seed %d: %d lanes allocated before retirement, want %d", seed, lanesDone, first)
		}
		// A done lane may still hold counts: give each an escaped one, as a
		// lane that stopped while tracking a hub would leave, so retirement
		// must drop overflow entries too.
		for _, id := range ids {
			tr.cnt.set(uint32(seed), tr.msgs[id].laneIdx, maxInlineCount+1+int32(seed))
		}
		for _, id := range ids {
			if tr.Status(id) != MessageDone {
				t.Fatalf("seed %d: message %d is %v after drain", seed, id, tr.Status(id))
			}
			tr.Retire(id)
			if tr.Status(id) != MessageRetired {
				t.Fatalf("seed %d: message %d not retired", seed, id)
			}
		}
		lanesRet, slotRet := tr.laneFootprint()
		if lanesRet != 0 || slotRet != 0 {
			t.Fatalf("seed %d: retirement did not release lane state: lanes=%d slotState=%d",
				seed, lanesRet, slotRet)
		}

		// Late injection into a reused lane slot: bit-for-bit the
		// reference flooding from the same model state.
		stepsSoFar := tr.Steps()
		src := nthAlive(m.Graph(), 0)
		// Stale counts in the column the late injection will reuse keep
		// the check below from passing vacuously.
		reused := tr.freeLanes[len(tr.freeLanes)-1]
		for i := reused; i < len(tr.cnt.cells); i += width0 {
			tr.cnt.cells[i] = 7
		}
		tr.cnt.set(1, reused, 400)
		late := tr.Inject(src)
		if got, want := tr.Injected(), first+1; got != want {
			t.Fatalf("seed %d: Injected() = %d, want %d (IDs are never reused)", seed, got, want)
		}
		if lanesLate, _ := tr.laneFootprint(); lanesLate != 1 {
			t.Fatalf("seed %d: late injection allocated %d lanes, want 1 reused slot", seed, lanesLate)
		}
		if width := 1 << tr.cnt.shift; width != width0 {
			t.Fatalf("seed %d: reuse widened the count rows from %d to %d cells", seed, width0, width)
		}
		li := tr.msgs[late].laneIdx
		srcCut := map[int]int32{} // slot -> incidences with src
		m.Graph().Neighbors(src, func(x graph.Handle) bool {
			srcCut[int(x.Slot)]++
			return true
		})
		for s := 0; s < len(tr.cnt.cells)/width0; s++ {
			if c, want := tr.cnt.count(uint32(s), li), srcCut[s]; c != want {
				t.Fatalf("seed %d: reused lane %d holds count %d in slot %d after Inject, want the source's %d incidences",
					seed, li, c, s, want)
			}
		}
		if n := tr.cnt.overflowEntries(); n != 0 {
			t.Fatalf("seed %d: %d overflow entries after the reusing Inject, want none", seed, n)
		}
		for tr.Live() > 0 {
			tr.Step()
		}
		got := tr.Result(late)
		tr.Close()

		want := replaySingle(build(), opts, trafficInjection{step: stepsSoFar, src: src})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: late injection in reused lane diverged from the reference\n%+v\n%+v",
				seed, got, want)
		}

		// Retired Results stay queryable; retiring twice panics.
		_ = tr.Result(ids[0])
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("seed %d: double Retire did not panic", seed)
				}
			}()
			tr.Retire(ids[0])
		}()
	}
}

// TestCutCountsFootprint sanity-checks the count-store accounting MemStats
// reports as CutCountBytes: rows of the smallest power of two at least the
// lane count, 1 byte a cell, so one lane costs 1 byte per slot and 64
// lanes 64, plus overflowEntryBytes per escaped count. Widening keeps
// every cell, and clearing a lane zeroes only its column.
func TestCutCountsFootprint(t *testing.T) {
	t.Parallel()
	c := newCutCounts(graph.NewShards(1, 100))
	c.grow(100)
	if got, want := c.footprintBytes(), 100; got != want {
		t.Fatalf("one lane: footprintBytes = %d, want %d", got, want)
	}
	c.set(7, 0, 3)
	for _, tc := range []struct{ lanes, width int }{{2, 2}, {3, 4}, {64, 64}, {65, 128}, {9, 128}} {
		c.widen(tc.lanes)
		if got := 1 << c.shift; got != tc.width {
			t.Fatalf("widen(%d): rows of %d cells, want %d", tc.lanes, got, tc.width)
		}
		if got, want := c.footprintBytes(), 100*tc.width; got != want {
			t.Fatalf("widen(%d): footprintBytes = %d, want %d", tc.lanes, got, want)
		}
		if got := c.count(7, 0); got != 3 {
			t.Fatalf("widen(%d) lost a cell: %d, want 3", tc.lanes, got)
		}
	}
	c.set(7, 64, 5)
	c.set(8, 64, 300)
	if got, want := c.footprintBytes(), 100*128+overflowEntryBytes; got != want {
		t.Fatalf("one escaped count: footprintBytes = %d, want %d", got, want)
	}
	c.clearLane(0)
	if a, b := c.count(7, 0), c.count(7, 64); a != 0 || b != 5 {
		t.Fatalf("clearLane(0) left counts %d and %d, want 0 and 5", a, b)
	}

	// A running plane reports the store over its tracked slot span.
	for _, messages := range []int{1, 64} {
		m := core.New(core.PDGR, 300, 5, rng.New(2))
		core.WarmUp(m)
		tr := NewTraffic(m, TrafficOptions{MaxRounds: 5})
		for i := 0; i < messages; i++ {
			tr.Inject(nthAlive(m.Graph(), i))
		}
		tr.Step()
		st := tr.MemStats()
		if want := tr.tracked.slots() * messages; st.CutCountBytes != want || want == 0 {
			t.Fatalf("M=%d: CutCountBytes = %d, want %d", messages, st.CutCountBytes, want)
		}
		tr.Close()
	}
}

// TestTrafficSpansArena pins the per-slot sizing: a plane spans the
// arena as it stands at NewTraffic — the informed and tracked bitsets and
// the count store, no more — and flooding a stationary model, whose
// arena reuses freed slots, never grows them.
func TestTrafficSpansArena(t *testing.T) {
	t.Parallel()
	m := core.SampleStationary(core.SDGR, 2000, 8, rng.New(4))
	slots := m.Graph().NumSlots()
	tr := NewTraffic(m, TrafficOptions{MaxRounds: 40})
	defer tr.Close()
	span := func(at string) {
		t.Helper()
		if a, b, c := tr.informed.slots(), tr.tracked.slots(), len(tr.cnt.cells); a != slots || b != slots || c != slots {
			t.Fatalf("%s: informed %d, tracked %d, count cells %d slots; the arena has %d", at, a, b, c, slots)
		}
	}
	span("NewTraffic")
	tr.Inject(graph.Nil)
	for tr.Live() > 0 {
		tr.Step()
	}
	if m.Graph().NumSlots() != slots {
		t.Fatalf("the arena grew from %d to %d slots", slots, m.Graph().NumSlots())
	}
	span("flood")
}

// TestTrafficInjectionOrderInvariance pins the determinism contract for
// same-round admissions: permuting the Inject order of messages admitted in
// the same Step permutes their MessageIDs and nothing else — every source's
// Result is unchanged and equal to the reference's, at serial and sharded
// settings alike (the tie-break is documented in DESIGN.md: lanes share no
// per-message state, so admission order is unobservable).
func TestTrafficInjectionOrderInvariance(t *testing.T) {
	t.Parallel()
	const messages = 4
	for seed := uint64(0); seed < 8; seed++ {
		mode := Discretized
		if seed%2 == 1 {
			mode = Asynchronous
		}
		opts := TrafficOptions{Mode: mode, MaxRounds: 25, KeepTrajectory: true}
		build := func() core.Model {
			m := core.New(core.PDG, 130, 5, rng.New(seed))
			core.WarmUp(m)
			return m
		}
		run := func(order []int, par int) map[graph.Handle]Result {
			m := build()
			popts := opts
			popts.Parallelism = par
			tr := NewTraffic(m, popts)
			defer tr.Close()
			srcs := make([]graph.Handle, messages)
			for i := range srcs {
				srcs[i] = nthAlive(m.Graph(), i)
			}
			ids := map[graph.Handle]MessageID{}
			for _, i := range order {
				ids[srcs[i]] = tr.Inject(srcs[i])
			}
			for tr.Live() > 0 {
				tr.Step()
			}
			out := map[graph.Handle]Result{}
			for src, id := range ids {
				out[src] = tr.Result(id)
			}
			return out
		}
		want := run([]int{0, 1, 2, 3}, 1)
		checkAgainstReference(t, build, opts, want)
		perms := [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}}
		for _, perm := range perms {
			for _, par := range []int{1, 4} {
				got := run(perm, par)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: admission order %v (par=%d) changed per-message Results\n%+v\n%+v",
						seed, perm, par, got, want)
				}
			}
		}
	}
}

// checkAgainstReference checks a burst run's per-source Results against
// the reference flooding each source from a freshly built model.
func checkAgainstReference(t *testing.T, build func() core.Model, opts TrafficOptions, got map[graph.Handle]Result) {
	t.Helper()
	for src, res := range got {
		if want := replaySingle(build(), opts, trafficInjection{src: src}); !reflect.DeepEqual(res, want) {
			t.Fatalf("source %v diverged from the reference\nplane:     %+v\nreference: %+v", src, res, want)
		}
	}
}

// TestTrafficSchedule pins the injection-schedule generator: shapes, sorted
// output, determinism, and input validation.
func TestTrafficSchedule(t *testing.T) {
	t.Parallel()
	if s, err := TrafficSchedule("burst", 5, 0, 1); err != nil || !reflect.DeepEqual(s, []int{0, 0, 0, 0, 0}) {
		t.Fatalf("burst: %v %v", s, err)
	}
	if s, err := TrafficSchedule("staggered", 4, 3, 1); err != nil || !reflect.DeepEqual(s, []int{0, 3, 6, 9}) {
		t.Fatalf("staggered: %v %v", s, err)
	}
	p1, err1 := TrafficSchedule("poisson", 16, 2, 7)
	p2, err2 := TrafficSchedule("poisson", 16, 2, 7)
	if err1 != nil || err2 != nil || !reflect.DeepEqual(p1, p2) {
		t.Fatalf("poisson not deterministic: %v %v (%v %v)", p1, p2, err1, err2)
	}
	if len(p1) != 16 {
		t.Fatalf("poisson generated %d steps, want 16", len(p1))
	}
	for i := 1; i < len(p1); i++ {
		if p1[i] < p1[i-1] {
			t.Fatalf("poisson steps not sorted: %v", p1)
		}
	}
	for _, bad := range []struct {
		schedule      string
		messages, gap int
	}{
		{"warp", 3, 1},
		{"burst", 0, 1},
		{"staggered", 3, 0},
		{"poisson", 3, -1},
	} {
		if _, err := TrafficSchedule(bad.schedule, bad.messages, bad.gap, 1); err == nil {
			t.Fatalf("TrafficSchedule(%q, %d, %d) accepted invalid input",
				bad.schedule, bad.messages, bad.gap)
		}
	}
}

// TestTrafficHookLifecycle checks that NewTraffic chains a caller's hooks
// for the plane's lifetime and Close restores them — the same nesting
// contract Run keeps for one run.
func TestTrafficHookLifecycle(t *testing.T) {
	t.Parallel()
	m := core.New(core.PDGR, 120, 5, rng.New(3))
	core.WarmUp(m)
	births := 0
	m.SetHooks(core.Hooks{OnBirth: func(graph.Handle) { births++ }})
	tr := NewTraffic(m, TrafficOptions{MaxRounds: 10})
	tr.Inject(nthAlive(m.Graph(), 0))
	for i := 0; i < 5; i++ {
		tr.Step()
	}
	if births == 0 {
		t.Fatal("caller's OnBirth hook was not chained while the plane ran")
	}
	tr.Close()
	after := m.Hooks()
	if after.OnDeath != nil || after.OnEdge != nil || after.OnBirth == nil {
		t.Fatalf("hooks not restored after Close: %+v", after)
	}
	tr.Close() // idempotent
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Step on a closed plane did not panic")
			}
		}()
		tr.Step()
	}()
}

// TestTrafficWordBoundaryOracle runs the differential oracle at message
// counts straddling the packed bitset's 64-lane word seams — M ∈ {16,
// 63, 64, 65, 128} — across all three schedules and every worker count.
// M = 16 fits one word with headroom, 63/64/65 bracket the first seam
// (65 is the first count whose top lane lives in a second word), and 128
// fills two words exactly; any divergence at 65 or 128 that 16 misses is
// a word-indexing bug in the XOR classification, the packed scan masks,
// the pull pass's lane masks, or the frozen-cut cursor. Every plane run
// repeats under each drain direction forced, and the rule must pull at
// least once per M.
func TestTrafficWordBoundaryOracle(t *testing.T) {
	for _, messages := range []int{16, 63, 64, 65, 128} {
		messages := messages
		t.Run(fmt.Sprintf("M=%d", messages), func(t *testing.T) {
			t.Parallel()
			seeds := 2
			if messages >= 128 {
				seeds = 1 // two full words; one seed keeps -race time sane
			}
			pulls := 0
			for _, schedule := range []string{"burst", "staggered", "poisson"} {
				for seed := uint64(0); seed < uint64(seeds); seed++ {
					mode := Discretized
					if (seed+uint64(messages))%2 == 1 {
						mode = Asynchronous
					}
					opts := TrafficOptions{Mode: mode, MaxRounds: 12, KeepTrajectory: true}
					steps, err := TrafficSchedule(schedule, messages, 1, seed)
					if err != nil {
						t.Fatalf("%s seed %d: %v", schedule, seed, err)
					}
					build := func() core.Model {
						m := core.New(core.SDGR, 140, 4, rng.New(seed))
						core.WarmUp(m)
						return m
					}

					got, inj := runTrafficPlane(build(), opts, steps)
					want := make([]Result, len(inj))
					for i, in := range inj {
						want[i] = replaySingle(build(), opts, in)
					}
					for i := range inj {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Fatalf("%s seed %d: message %d/%d (step %d) diverged from its replay\nplane:  %+v\nsingle: %+v",
								schedule, seed, i, messages, inj[i].step, got[i], want[i])
						}
					}
					for _, dir := range drainDirs {
						for _, par := range testPars() {
							popts := opts
							popts.Parallelism = par
							var l drainLog
							pgot, pinj := runTrafficPlaneDir(build(), popts, steps, dir, &l)
							if !reflect.DeepEqual(pinj, inj) {
								t.Fatalf("%s seed %d par %d %v: injection records diverged", schedule, seed, par, dir)
							}
							if !reflect.DeepEqual(pgot, got) {
								t.Fatalf("%s seed %d par %d %v: plane diverged from the serial plane under the rule",
									schedule, seed, par, dir)
							}
							l.check(t, dir, fmt.Sprintf("%s seed %d par %d", schedule, seed, par))
							if dir == drainAuto {
								pulls += l.pulls
							}
						}
					}
				}
			}
			if pulls == 0 {
				t.Fatal("the drain direction rule never pulled")
			}
		})
	}
}

// TestTrafficNegativeControlWordSeam re-arms the corrupted-engine control
// in the second bitset word: at M = 65 the dropped frontier event targets
// lane 64, whose bit is the low bit of word 1. The oracle must still
// catch the divergence, and the corruption must stay confined to lane 64
// — in particular lane 63, its seam neighbor in word 0, must keep
// matching the honest run. It runs under each drain direction forced, and
// under the rule; under forced pull the drop must land in the pull
// recount, in the bit planes of word 1.
func TestTrafficNegativeControlWordSeam(t *testing.T) {
	t.Parallel()
	for _, dir := range drainDirs {
		negativeControlWordSeam(t, dir)
	}
}

func negativeControlWordSeam(t *testing.T, dir drainDirection) {
	const messages = 65
	opts := TrafficOptions{MaxRounds: 15, KeepTrajectory: true}
	caught := 0
	const seeds = 4
	for seed := uint64(0); seed < seeds; seed++ {
		build := func() core.Model {
			m := core.New(core.SDGR, 140, 4, rng.New(seed))
			core.WarmUp(m)
			return m
		}
		steps := make([]int, messages) // burst
		m := build()
		honest, inj := runTrafficPlaneDir(m, opts, steps, dir, &drainLog{})

		mc := build()
		tr := NewTraffic(mc, opts)
		tr.drainDir = dir
		dropped, pulling, droppedInPull := false, false, false
		tr.onDrain = func(pull bool, u, nScan int) { pulling = pull }
		tr.onStage = func(li int, recv, sender graph.Handle) bool {
			if li == 64 && !dropped {
				dropped, droppedInPull = true, pulling
				return false
			}
			return true
		}
		var ids []MessageID
		for i := 0; i < messages; i++ {
			ids = append(ids, tr.Inject(nthAlive(mc.Graph(), i)))
		}
		for tr.Live() > 0 {
			tr.Step()
		}
		corrupt := make([]Result, messages)
		for i, id := range ids {
			corrupt[i] = tr.Result(id)
		}
		tr.Close()

		if !dropped {
			t.Fatalf("%v seed %d: control never dropped a lane-64 event", dir, seed)
		}
		if dir == drainPull && !droppedInPull {
			t.Fatalf("%v seed %d: the dropped lane-64 event bypassed the pull recount", dir, seed)
		}
		for i := 0; i < messages; i++ {
			if i == 64 {
				continue
			}
			if !reflect.DeepEqual(corrupt[i], honest[i]) {
				t.Fatalf("%v seed %d: corruption of lane 64 leaked into lane %d", dir, seed, i)
			}
		}
		want := replaySingle(build(), opts, inj[64])
		if !reflect.DeepEqual(honest[64], want) {
			t.Fatalf("%v seed %d: honest plane diverged from replay (harness broken)", dir, seed)
		}
		if !reflect.DeepEqual(corrupt[64], want) {
			caught++
		}
	}
	if caught == 0 {
		t.Fatalf("%v: oracle caught 0/%d corrupted runs at the word seam", dir, seeds)
	}
	t.Logf("%v: oracle caught %d/%d corrupted runs", dir, caught, seeds)
}

// TestTrafficInjectionOrderAcrossWordSeam extends the admission-order
// invariance to a lane population spanning two packed words: with 66
// same-step injections, permutations that move sources across the 64-lane
// seam (reversal swaps words wholesale; the adjacent transposition swaps
// bit 63 of word 0 with bit 0 of word 1) must leave every source's Result
// unchanged.
func TestTrafficInjectionOrderAcrossWordSeam(t *testing.T) {
	t.Parallel()
	const messages = 66
	identity := make([]int, messages)
	reversed := make([]int, messages)
	seamSwap := make([]int, messages)
	for i := 0; i < messages; i++ {
		identity[i] = i
		reversed[i] = messages - 1 - i
		seamSwap[i] = i
	}
	seamSwap[63], seamSwap[64] = 64, 63
	for seed := uint64(0); seed < 2; seed++ {
		mode := Discretized
		if seed%2 == 1 {
			mode = Asynchronous
		}
		opts := TrafficOptions{Mode: mode, MaxRounds: 15, KeepTrajectory: true}
		build := func() core.Model {
			m := core.New(core.PDG, 140, 5, rng.New(seed))
			core.WarmUp(m)
			return m
		}
		run := func(order []int, par int) map[graph.Handle]Result {
			m := build()
			popts := opts
			popts.Parallelism = par
			tr := NewTraffic(m, popts)
			defer tr.Close()
			srcs := make([]graph.Handle, messages)
			for i := range srcs {
				srcs[i] = nthAlive(m.Graph(), i)
			}
			ids := map[graph.Handle]MessageID{}
			for _, i := range order {
				ids[srcs[i]] = tr.Inject(srcs[i])
			}
			for tr.Live() > 0 {
				tr.Step()
			}
			out := map[graph.Handle]Result{}
			for src, id := range ids {
				out[src] = tr.Result(id)
			}
			return out
		}
		want := run(identity, 1)
		checkAgainstReference(t, build, opts, want)
		for _, perm := range [][]int{reversed, seamSwap} {
			for _, par := range []int{1, 4} {
				got := run(perm, par)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: seam-crossing admission order (par=%d) changed per-message Results",
						seed, par)
				}
			}
		}
	}
}

// mustPanicContaining runs fn and asserts it panics with a message
// containing want.
func mustPanicContaining(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic (want one containing %q)", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	fn()
}

// TestTrafficMessageIDValidation pins the query-path contract: a
// MessageID the plane never issued panics with the documented flood:
// message instead of a raw index-out-of-range; retired and done messages
// stay queryable; and a closed plane keeps answering Status/Result while
// rejecting Retire.
func TestTrafficMessageIDValidation(t *testing.T) {
	t.Parallel()
	m := core.New(core.SDGR, 100, 4, rng.New(1))
	core.WarmUp(m)
	tr := NewTraffic(m, TrafficOptions{MaxRounds: 20})

	// Unknown IDs before anything is injected.
	mustPanicContaining(t, "flood: unknown MessageID", func() { tr.Status(0) })

	id := tr.Inject(graph.Nil)
	for _, bad := range []MessageID{-1, 1, 99} {
		bad := bad
		mustPanicContaining(t, "flood: unknown MessageID", func() { tr.Status(bad) })
		mustPanicContaining(t, "flood: unknown MessageID", func() { tr.Result(bad) })
		mustPanicContaining(t, "flood: unknown MessageID", func() { tr.Retire(bad) })
	}

	for tr.Live() > 0 {
		tr.Step()
	}
	if tr.Status(id) != MessageDone {
		t.Fatalf("message %d is %v after drain", id, tr.Status(id))
	}
	done := tr.Result(id)
	tr.Retire(id)

	// Retired: queries keep working, a second Retire is rejected.
	if tr.Status(id) != MessageRetired {
		t.Fatalf("Status after Retire = %v", tr.Status(id))
	}
	if got := tr.Result(id); !reflect.DeepEqual(got, done) {
		t.Fatal("Result changed across Retire")
	}
	mustPanicContaining(t, "flood: Retire of a message that is retired", func() { tr.Retire(id) })

	// Closed plane: Status/Result stay valid, mutations are rejected,
	// and unknown IDs still get the documented panic.
	id2 := tr.Inject(graph.Nil)
	tr.Close()
	if tr.Status(id2) != MessageInFlight {
		t.Fatalf("Status on closed plane = %v", tr.Status(id2))
	}
	_ = tr.Result(id2)
	mustPanicContaining(t, "flood: Retire on a closed Traffic plane", func() { tr.Retire(id2) })
	mustPanicContaining(t, "flood: unknown MessageID", func() { tr.Status(42) })
	mustPanicContaining(t, "flood: Inject on a closed Traffic plane", func() { tr.Inject(graph.Nil) })
}

// TestTrafficRepeatedSources pins repeated sources: a source injected
// twice before a Step, and a source injected at a node the last admission
// sweep just informed, each get their own scan, run before the call that
// queued it returns — no scan is ever left pending for a later call to
// merge or repeat — and every message still matches its reference replay
// at every worker count.
func TestTrafficRepeatedSources(t *testing.T) {
	t.Parallel()
	opts := TrafficOptions{MaxRounds: 20, KeepTrajectory: true}
	for seed := uint64(0); seed < 4; seed++ {
		build := func() core.Model {
			m := core.New(core.PDGR, 150, 5, rng.New(seed))
			core.WarmUp(m)
			return m
		}
		for _, par := range testPars() {
			m := build()
			popts := opts
			popts.Parallelism = par
			tr := NewTraffic(m, popts)
			pending := func(at string) {
				if len(tr.scanNodes) != 0 || len(tr.scanLanes) != 0 {
					t.Fatalf("seed %d par %d: %d scans pending after %s", seed, par, len(tr.scanNodes), at)
				}
			}
			src := nthAlive(m.Graph(), 0)
			inj := []trafficInjection{{id: tr.Inject(src), src: src}}
			pending("the first Inject")
			inj = append(inj, trafficInjection{id: tr.Inject(src), src: src})
			pending("the repeated Inject")
			tr.Step()
			pending("Step")
			late := graph.Nil // a node the sweep just informed
			m.Graph().ForEachAlive(func(v graph.Handle) bool {
				if v != src && tr.informed.has(v, 0) {
					late = v
					return false
				}
				return true
			})
			if late.IsNil() {
				t.Fatalf("seed %d: the first round admitted nobody", seed)
			}
			inj = append(inj, trafficInjection{id: tr.Inject(late), step: 1, src: late})
			pending("an Inject at a just-informed node")

			for tr.Live() > 0 {
				tr.Step()
			}
			for i, in := range inj {
				got := tr.Result(in.id)
				if want := replaySingle(build(), opts, in); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d par %d: message %d diverged from the reference\nplane:     %+v\nreference: %+v",
						seed, par, i, got, want)
				}
			}
			tr.Close()
		}
	}
}
