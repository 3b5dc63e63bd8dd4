package flood

import (
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"testing"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/overlay"
	"github.com/dyngraph/churnnet/internal/rng"
	"github.com/dyngraph/churnnet/internal/staticgraph"
)

// testPars sweeps the sharded-execution settings the equivalence tests
// pin: serial, two intermediate shard counts, and the machine's core
// count. Duplicates are fine (GOMAXPROCS may be 1, 2 or 4).
func testPars() []int {
	return []int{1, 2, 4, runtime.GOMAXPROCS(0)}
}

// TestEngineMatchesReference pins the equivalence contract: Run's cut-set
// engine — serial and at every sharded worker count, under the drain
// direction rule and under each direction forced on every drain — and
// the full-rescan reference produce bit-for-bit identical Results on
// every model × mode across seeded trials. Identically seeded models see
// identical churn streams (flooding consumes no randomness), so any
// divergence is an engine bookkeeping bug. The rule must push every
// Inject and pull at least once per model × mode.
func TestEngineMatchesReference(t *testing.T) {
	modes := []Mode{Discretized, Asynchronous}
	for _, kind := range core.Kinds() {
		for _, mode := range modes {
			kind, mode := kind, mode
			t.Run(kind.String()+"-"+mode.String(), func(t *testing.T) {
				t.Parallel()
				pulls := 0
				for seed := uint64(0); seed < 20; seed++ {
					n := 80 + int(seed%4)*40
					d := 2 + int(seed%9)
					opts := Options{
						Mode:           mode,
						MaxRounds:      30,
						KeepTrajectory: true,
						RunToMax:       seed%2 == 0,
					}

					build := func() core.Model {
						m := core.New(kind, n, d, rng.New(seed))
						core.WarmUp(m)
						for !m.Graph().IsAlive(m.LastBorn()) {
							m.AdvanceRound()
						}
						return m
					}
					mRef := build()
					opts.Source = mRef.LastBorn()
					want := RunReference(mRef, opts)

					for _, dir := range drainDirs {
						for _, par := range testPars() {
							opts.Parallelism = par
							var l drainLog
							got := runDir(build(), opts, dir, &l)
							at := fmt.Sprintf("seed %d (n=%d d=%d par=%d %v)", seed, n, d, par, dir)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: engine and reference diverged\nengine:    %+v\nreference: %+v", at, got, want)
							}
							l.check(t, dir, at)
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

// TestEngineRestoresHooks checks that flooding chains a caller's hooks
// while running and restores them afterwards, on a churning model and on
// a static one (which stores hooks it never fires).
func TestEngineRestoresHooks(t *testing.T) {
	m := core.New(core.PDGR, 150, 6, rng.New(3))
	core.WarmUp(m)
	births := 0
	userHooks := core.Hooks{OnBirth: func(graph.Handle) { births++ }}
	m.SetHooks(userHooks)
	Run(m, Options{MaxRounds: 15, RunToMax: true})
	if births == 0 {
		t.Fatal("caller's OnBirth hook was not chained during flooding")
	}
	after := m.Hooks()
	if after.OnDeath != nil || after.OnEdge != nil || after.OnBirth == nil {
		t.Fatalf("hooks not restored after flooding: %+v", after)
	}
	before := births
	m.AdvanceRound()
	if births == before && m.Kind().Poisson() {
		// One round of Poisson churn at n=150 virtually always births.
		t.Log("no birth in post-run round (rare but possible)")
	}

	g, _ := staticgraph.Path(5)
	sm := core.NewStaticModel(g, 1)
	sm.SetHooks(userHooks)
	if sm.Hooks().OnBirth == nil {
		t.Fatal("static model dropped the caller's hooks")
	}
	Run(sm, Options{MaxRounds: 10})
	if after := sm.Hooks(); after.OnDeath != nil || after.OnEdge != nil || after.OnBirth == nil {
		t.Fatalf("static model's hooks not restored after flooding: %+v", after)
	}
}

// TestEngineCutMatchesRecompute is the churn-heavy bookkeeping property
// test: at every freeze, each in-flight lane's frozen cut — tracked
// receivers with their cut counts — must equal the cut recomputed from
// scratch out of the snapshot: for every alive node the lane does not
// inform, the number of its live edge incidences with nodes the lane
// informs. It runs one message (Run's case) and three concurrent ones,
// under the drain direction rule and under each direction forced.
func TestEngineCutMatchesRecompute(t *testing.T) {
	cases := []struct {
		kind core.Kind
		n, d int
		mode Mode
		par  int
	}{
		{core.PDGR, 120, 6, Discretized, 1},
		{core.PDGR, 120, 3, Asynchronous, 4},
		{core.PDG, 150, 4, Discretized, 2},
		{core.SDGR, 100, 5, Discretized, 4},
		{core.SDG, 100, 3, Asynchronous, 1},
	}
	for _, c := range cases {
		c := c
		t.Run(c.kind.String()+"-"+c.mode.String(), func(t *testing.T) {
			t.Parallel()
			for _, dir := range drainDirs {
				for _, messages := range []int{1, 3} {
					for seed := uint64(0); seed < 4; seed++ {
						m := core.New(c.kind, c.n, c.d, rng.New(seed))
						core.WarmUp(m)
						for !m.Graph().IsAlive(m.LastBorn()) {
							m.AdvanceRound()
						}
						tr := NewTraffic(m, TrafficOptions{
							Mode:        c.mode,
							Parallelism: c.par,
							// A horizon well past completion keeps churning the
							// informed network, exercising slot reuse and
							// regeneration against a saturated cut.
							MaxRounds: 50,
							RunToMax:  true,
						})
						round := 0
						tr.onFreeze = func() {
							round++
							checkFrozenCut(t, tr, fmt.Sprintf("%v M=%d seed %d round %d", dir, messages, seed, round))
						}
						var l drainLog
						l.attach(tr, dir)
						for i := 0; i < messages; i++ {
							l.injecting = true
							tr.Inject(nthAlive(m.Graph(), i))
						}
						for tr.Live() > 0 {
							tr.Step()
						}
						tr.Close()
						if round == 0 {
							t.Fatal("freeze never observed")
						}
						l.check(t, dir, fmt.Sprintf("%v M=%d seed %d", dir, messages, seed))
					}
				}
			}
		})
	}
}

// checkFrozenCut compares every in-flight lane's frozen counts with a
// from-scratch recomputation of the incidence multiplicities over the
// current snapshot, checks that no live lane holds a count where it does
// not track, and checks the shard layout: each frozen receiver sits in
// its owner shard, once.
func checkFrozenCut(t *testing.T, tr *Traffic, at string) {
	t.Helper()
	g := tr.g
	live := map[int]bool{}
	for _, li := range tr.inFlight {
		live[li] = true
	}

	got := map[int]map[graph.Handle]int32{}
	for li := range live {
		got[li] = map[graph.Handle]int32{}
	}
	frozen := map[graph.Handle]bool{}
	for si := range tr.shards {
		sh := &tr.shards[si]
		if len(sh.frozenWords) != sh.nFrozen*tr.stride {
			t.Fatalf("%s: shard %d has %d frozen words for %d receivers", at, si, len(sh.frozenWords), sh.nFrozen)
		}
		for i, v := range sh.receivers[:sh.nFrozen] {
			if want := tr.sh.Owner(v.Slot); want != si {
				t.Fatalf("%s: receiver %v frozen in shard %d, owner is %d", at, v, si, want)
			}
			if frozen[v] {
				t.Fatalf("%s: receiver %v frozen twice", at, v)
			}
			frozen[v] = true
			if !g.IsAlive(v) {
				t.Fatalf("%s: frozen receiver %v is dead", at, v)
			}
			row := tr.cnt.row(v.Slot)
			for wi, m := range sh.frozenWords[i*tr.stride : (i+1)*tr.stride] {
				for ; m != 0; m &= m - 1 {
					li := wi<<6 | bits.TrailingZeros64(m)
					if !live[li] {
						t.Fatalf("%s: receiver %v frozen for dormant lane %d", at, v, li)
					}
					if tr.informed.has(v, li) {
						t.Fatalf("%s: receiver %v frozen for lane %d, which informs it", at, v, li)
					}
					got[li][v] = row[li]
				}
			}
		}
	}

	// Outside the frozen cut a live lane's count is zero: the freeze keeps
	// exactly the tracked lanes with a positive count.
	g.ForEachAlive(func(v graph.Handle) bool {
		if !tr.tracked.current(v) {
			return true
		}
		row := tr.cnt.row(v.Slot)
		for li := range live {
			if c := row[li]; c != 0 && (!frozen[v] || !tr.tracked.has(v, li)) {
				t.Fatalf("%s: lane %d holds count %d on %v outside its frozen cut", at, li, c, v)
			}
		}
		return true
	})

	for li := range live {
		// Recompute: alive node lane li does not inform -> number of
		// visits of alive neighbors it does, one per edge incidence.
		want := map[graph.Handle]int32{}
		g.ForEachAlive(func(v graph.Handle) bool {
			if tr.informed.has(v, li) {
				return true
			}
			var mult int32
			g.Neighbors(v, func(u graph.Handle) bool {
				if tr.informed.has(u, li) {
					mult++
				}
				return true
			})
			if mult > 0 {
				want[v] = mult
			}
			return true
		})
		if !reflect.DeepEqual(got[li], want) {
			t.Fatalf("%s: lane %d frozen cut counts diverged from the recompute\ngot  %v\nwant %v", at, li, got[li], want)
		}
	}
}

// TestEngineOverlayMatchesReference extends the differential check to the
// address-gossip overlay, whose edges are dialed from bounded address
// books rather than drawn uniformly — the engine must observe them through
// the same OnEdge events as the core models.
func TestEngineOverlayMatchesReference(t *testing.T) {
	t.Parallel()
	build := func(seed uint64) core.Model {
		o := overlay.New(overlay.Config{N: 200, D: 8, MaxIn: 64}, rng.New(seed))
		o.WarmUp()
		for !o.Graph().IsAlive(o.LastBorn()) {
			o.AdvanceRound()
		}
		return o
	}
	for seed := uint64(0); seed < 3; seed++ {
		mEng, mRef := build(seed), build(seed)
		opts := Options{
			Source:         mEng.LastBorn(),
			MaxRounds:      25,
			KeepTrajectory: true,
			RunToMax:       seed%2 == 0,
			Parallelism:    int(seed) * 2, // 0 (serial), 2, 4
		}
		got := Run(mEng, opts)
		want := RunReference(mRef, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: overlay engine/reference diverged\n%+v\n%+v", seed, got, want)
		}
	}
}

// TestEngineStaticMatchesReference extends the differential check to the
// churn-free static baseline, where the cut structure must stay valid
// across rounds with no events at all.
func TestEngineStaticMatchesReference(t *testing.T) {
	t.Parallel()
	for seed := uint64(0); seed < 3; seed++ {
		gEng, hs := staticgraph.DOut(400, 5, rng.New(seed))
		gRef, _ := staticgraph.DOut(400, 5, rng.New(seed))
		opts := Options{Source: hs[0], MaxRounds: 30, KeepTrajectory: true,
			Parallelism: int(seed) * 3} // 0 (serial), 3, 6
		got := Run(core.NewStaticModel(gEng, 5), opts)
		want := RunReference(core.NewStaticModel(gRef, 5), opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: static engine/reference diverged\n%+v\n%+v", seed, got, want)
		}
	}
}
