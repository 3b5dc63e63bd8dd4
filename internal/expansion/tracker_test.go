package expansion

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"reflect"
	"runtime"
	"testing"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/flood"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/overlay"
	"github.com/dyngraph/churnnet/internal/rng"
	"github.com/dyngraph/churnnet/internal/staticgraph"
)

// trackerTestPars sweeps the seeding-sweep worker counts the equivalence
// tests pin: serial, two intermediate shard counts, and the machine's
// core count (duplicates are fine).
func trackerTestPars() []int {
	return []int{1, 2, 4, runtime.GOMAXPROCS(0)}
}

// checkTrackerAgainstRescan fails the test if VerifyTracker finds a
// tracked set that disagrees with a from-scratch rescan.
func checkTrackerAgainstRescan(t *testing.T, g *graph.Graph, tr *Tracker, tag string) {
	t.Helper()
	if err := VerifyTracker(g, tr); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
}

// TestTrackerMatchesRescan is the rescan-oracle equivalence property
// test: across all four models, two scales and 20 seeds — with the
// seeding sweep run at every worker count — the tracker's boundary sizes and
// ratios must be bit-for-bit what fresh BoundarySize/Ratio rescans
// compute at every sampled round, through churn, slot reuse, both
// regeneration paths and periodic re-seeding.
func TestTrackerMatchesRescan(t *testing.T) {
	for _, kind := range core.Kinds() {
		for _, scale := range []int{60, 200} {
			kind, scale := kind, scale
			t.Run(fmt.Sprintf("%v-n%d", kind, scale), func(t *testing.T) {
				t.Parallel()
				for seed := uint64(0); seed < 20; seed++ {
					n := scale + int(seed%4)*scale/4
					d := 2 + int(seed%9)
					for _, par := range trackerTestPars() {
						m := core.New(kind, n, d, rng.New(seed))
						core.WarmUp(m)
						tr := NewTracker(m, rng.New(seed^0xabcd), TrackerConfig{
							ReseedEvery: 4,
							Parallelism: par,
						})
						for round := 1; round <= 24; round++ {
							m.AdvanceRound()
							if round%3 == 0 {
								tr.Observe() // exercises the re-seed cadence
								checkTrackerAgainstRescan(t, m.Graph(), tr, kind.String())
							}
						}
						tr.Close()
					}
				}
			})
		}
	}
}

// TestTrackerParallelismInvariance pins bit-for-bit equality across
// seeding-sweep worker counts: identically seeded runs must produce
// identical observations and identical per-set states at every W.
func TestTrackerParallelismInvariance(t *testing.T) {
	for _, kind := range []core.Kind{core.SDGR, core.PDG} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			type dump struct {
				Obs  []Observation
				Sets []SetState
			}
			run := func(par int) dump {
				m := core.New(kind, 240, 6, rng.New(7))
				core.WarmUp(m)
				tr := NewTracker(m, rng.New(9), TrackerConfig{ReseedEvery: 3, Parallelism: par})
				defer tr.Close()
				var d dump
				for round := 1; round <= 18; round++ {
					m.AdvanceRound()
					if round%2 == 0 {
						d.Obs = append(d.Obs, tr.Observe())
					}
				}
				d.Sets = tr.Sets()
				return d
			}
			want := run(1)
			for _, par := range trackerTestPars()[1:] {
				if got := run(par); !reflect.DeepEqual(got, want) {
					t.Fatalf("par %d diverged from serial tracker", par)
				}
			}
		})
	}
}

// TestTrackerNeverUndercutsExact is the exact-oracle statistical test: on
// graphs small enough for exhaustive enumeration, every tracked minimum
// is an upper bound on the true h_out — at every sampled round, under
// churn and re-seeding.
func TestTrackerNeverUndercutsExact(t *testing.T) {
	for _, kind := range core.Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(0); seed < 6; seed++ {
				m := core.New(kind, 10, 2+int(seed%3), rng.New(seed))
				core.WarmUp(m)
				tr := NewTracker(m, rng.New(seed^0x55), TrackerConfig{ReseedEvery: 2})
				for round := 1; round <= 30; round++ {
					m.AdvanceRound()
					g := m.Graph()
					if g.NumAlive() == 0 || g.NumAlive() > ExactLimit {
						continue // Poisson population drifted out of Exact range
					}
					exact, _ := Exact(g)
					obs := tr.Observe()
					if obs.Min < exact-1e-12 {
						t.Fatalf("seed %d round %d: tracker min %v undercuts exact h_out %v (witness %+v)",
							seed, round, obs.Min, exact, obs.MinWitness)
					}
				}
				tr.Close()
			}
		})
	}
}

// TestTrackerDichotomy reproduces the regeneration dichotomy of Theorems
// 3.15/4.16 under the tracker exactly as under Estimate: models without
// regeneration yield zero-ratio witnesses (isolated nodes persist), while
// models with regeneration never show a tracked or searched witness below
// the paper's 0.1 bound.
func TestTrackerDichotomy(t *testing.T) {
	t.Parallel()
	cases := []struct {
		kind core.Kind
		n, d int
		// regen models must stay >= 0.1; the rest must hit 0.
		expectZero bool
	}{
		{core.SDG, 2000, 3, true},
		{core.PDG, 2000, 3, true},
		{core.SDGR, 600, 14, false},
		{core.PDGR, 600, 35, false},
	}
	for _, c := range cases {
		m := core.New(c.kind, c.n, c.d, rng.New(11))
		core.WarmUp(m)

		// The searched baseline on the same warmed snapshot.
		estMin, _ := Estimate(m.Graph(), rng.New(12), Config{}).Min()

		tr := NewTracker(m, rng.New(13), TrackerConfig{ReseedEvery: 2})
		trackedMin := math.Inf(1)
		for round := 1; round <= 20; round++ {
			m.AdvanceRound()
			if obs := tr.Observe(); obs.Min < trackedMin {
				trackedMin = obs.Min
			}
		}
		tr.Close()

		if c.expectZero {
			if estMin != 0 {
				t.Errorf("%v: Estimate found no zero witness (min %v)", c.kind, estMin)
			}
			if trackedMin != 0 {
				t.Errorf("%v: tracker found no zero witness over the window (min %v)", c.kind, trackedMin)
			}
		} else {
			if estMin < 0.1 {
				t.Errorf("%v: Estimate witness below 0.1: %v", c.kind, estMin)
			}
			if trackedMin < 0.1 {
				t.Errorf("%v: tracked witness below 0.1: %v", c.kind, trackedMin)
			}
		}
	}
}

// TestTrackerStaleNegativeControl is VerifyTracker's negative control: a
// deliberately stale tracker — its hooks detached for a churn window, so
// it drops events — must diverge from the rescan, and the oracle must
// return an error for it.
func TestTrackerStaleNegativeControl(t *testing.T) {
	t.Parallel()
	m := core.New(core.SDGR, 300, 8, rng.New(21))
	core.WarmUp(m)
	tr := NewTracker(m, rng.New(22), TrackerConfig{})
	defer tr.Close()

	// Healthy phase: tracker matches the rescan.
	for i := 0; i < 5; i++ {
		m.AdvanceRound()
	}
	checkTrackerAgainstRescan(t, m.Graph(), tr, "healthy")

	// Stale phase: drop every event behind the tracker's back.
	chained := m.Hooks()
	m.SetHooks(core.Hooks{})
	for i := 0; i < 2*m.N(); i++ { // long enough to turn over every tracked set
		m.AdvanceRound()
	}
	m.SetHooks(chained)

	if VerifyTracker(m.Graph(), tr) == nil {
		t.Fatal("stale tracker still matched the rescan oracle — the equivalence test cannot detect dropped events")
	}
}

// TestTrackerSharesHookChainWithFlood pins the multi-subscriber contract:
// with a tracker attached, flood.Run chains onto the same hook stream,
// and neither observer drops events — the flooding result is unchanged by
// the tracker's presence, the tracker still matches the rescan oracle
// after the broadcast, and an outer counting hook sees every event
// throughout.
func TestTrackerSharesHookChainWithFlood(t *testing.T) {
	t.Parallel()
	for _, kind := range []core.Kind{core.SDGR, core.PDGR} {
		build := func() core.Model {
			m := core.New(kind, 250, 8, rng.New(31))
			core.WarmUp(m)
			for !m.Graph().IsAlive(m.LastBorn()) {
				m.AdvanceRound()
			}
			return m
		}
		opts := flood.Options{MaxRounds: 20, RunToMax: true, KeepTrajectory: true}

		mPlain := build()
		opts.Source = mPlain.LastBorn()
		want := flood.Run(mPlain, opts)

		m := build()
		edges, deaths := 0, 0
		m.SetHooks(core.Hooks{
			OnEdge:  func(u, v graph.Handle) { edges++ },
			OnDeath: func(h graph.Handle) { deaths++ },
		})
		tr := NewTracker(m, rng.New(32), TrackerConfig{})
		got := flood.Run(m, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: flooding diverged with a tracker on the hook chain\ngot  %+v\nwant %+v", kind, got, want)
		}
		if edges == 0 || deaths == 0 {
			t.Fatalf("%v: outer counting hook lost events under the chain (edges %d, deaths %d)", kind, edges, deaths)
		}
		checkTrackerAgainstRescan(t, m.Graph(), tr, kind.String()+"-after-flood")
		tr.Close()
		after := m.Hooks()
		if after.OnEdge == nil || after.OnDeath == nil {
			t.Fatalf("%v: Close dropped the caller's hooks: %+v", kind, after)
		}
	}
}

// TestTrackerStaticAndOverlayModels extends the oracle beyond the four
// paper models: to the churn-free static wrapper (no events at all — the
// tracked state must simply stay valid) and to the address-gossip overlay,
// whose redials fire OnEdge outside the paper's edge rules.
func TestTrackerStaticAndOverlayModels(t *testing.T) {
	t.Parallel()
	g, _ := staticgraph.DOut(300, 5, rng.New(41))
	m := core.NewStaticModel(g, 5)
	tr := NewTracker(m, rng.New(42), TrackerConfig{})
	for i := 0; i < 5; i++ {
		m.AdvanceRound()
	}
	tr.Observe()
	checkTrackerAgainstRescan(t, g, tr, "static")
	tr.Close()

	o := overlay.New(overlay.Config{N: 200, D: 8, MaxIn: 64}, rng.New(43))
	o.WarmUp()
	tr = NewTracker(o, rng.New(44), TrackerConfig{ReseedEvery: 4})
	for round := 1; round <= 12; round++ {
		o.AdvanceRound()
		if round%3 == 0 {
			tr.Observe()
			checkTrackerAgainstRescan(t, o.Graph(), tr, "overlay")
		}
	}
	tr.Close()
}

// TestTrackerConfigKnobs exercises the family-disabling sentinels and the
// degenerate sizes.
func TestTrackerConfigKnobs(t *testing.T) {
	t.Parallel()
	m := core.New(core.SDGR, 100, 4, rng.New(51))
	core.WarmUp(m)
	tr := NewTracker(m, rng.New(52), TrackerConfig{
		Singletons:        -1,
		RandomSetsPerSize: -1,
		SkipAgeSets:       true,
		BFSSeeds:          -1,
		GreedySeeds:       3,
		MaxGreedySize:     5,
	})
	defer tr.Close()
	sets := tr.Sets()
	if len(sets) != 3 {
		t.Fatalf("tracked %d sets, want the 3 greedy ones", len(sets))
	}
	for _, st := range sets {
		if st.Family != FamilyGreedy {
			t.Fatalf("unexpected family %v with every other family disabled", st.Family)
		}
		if len(st.Members) > 5 {
			t.Fatalf("greedy set exceeded MaxGreedySize: %d", len(st.Members))
		}
	}
	m.AdvanceRound()
	checkTrackerAgainstRescan(t, m.Graph(), tr, "greedy-only")

	// Tiny model: every family degenerates without panicking.
	tiny := core.New(core.PDGR, 2, 2, rng.New(53))
	core.WarmUp(tiny)
	tr2 := NewTracker(tiny, rng.New(54), TrackerConfig{ReseedEvery: 1})
	defer tr2.Close()
	for i := 0; i < 10; i++ {
		tiny.AdvanceRound()
		tr2.Observe()
	}
	checkTrackerAgainstRescan(t, tiny.Graph(), tr2, "tiny")
}

// TestTrackerLastObservation: the pure-read accessor replays the latest
// Observe result without measuring again, and reports absence before the
// first.
func TestTrackerLastObservation(t *testing.T) {
	m := core.NewStreaming(300, 4, true, rng.New(3))
	m.WarmUp()
	tr := NewTracker(m, rng.New(4), TrackerConfig{})
	defer tr.Close()
	if _, ok := tr.LastObservation(); ok {
		t.Fatal("LastObservation reported a value before the first Observe")
	}
	obs := tr.Observe()
	got, ok := tr.LastObservation()
	if !ok || got.Time != obs.Time || got.N != obs.N || got.Min != obs.Min {
		t.Fatalf("LastObservation %+v != Observe %+v", got, obs)
	}
	// Advancing the model must not change the stored observation (pure
	// read).
	m.AdvanceRound()
	got2, _ := tr.LastObservation()
	if got2.Time != obs.Time || got2.N != obs.N || got2.Min != obs.Min {
		t.Fatal("LastObservation mutated by model churn without Observe")
	}
}

// BenchmarkTrackerWindowSDGR measures tracking a 20-round window against
// BenchmarkEstimateSDGR's single-snapshot rescan (see expansion_test.go).
func BenchmarkTrackerWindowSDGR(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := core.NewStreaming(1000, 14, true, rng.New(1))
		m.WarmUp()
		b.StartTimer()
		tr := NewTracker(m, rng.New(2), TrackerConfig{ReseedEvery: 10})
		for round := 1; round <= 20; round++ {
			m.AdvanceRound()
			tr.Observe()
		}
		tr.Close()
	}
}

// trackerGoldenHash is the FNV-64a digest TestTrackerGolden computes,
// recorded from an independent earlier implementation of the tracker (a
// per-slot op log replayed by a sharded flush). It pins every observation
// and every tracked set — membership, RNG draw order, live sizes and
// boundary sizes — so any drift fails.
const trackerGoldenHash = 0x6f4f9c4358be9640

// TestTrackerGolden hashes every Observation (Time, N, Min bits,
// MinWitness) and every SetState after each Observe, over all four models
// and several seeds at n≈3000 with re-seeds every third observation, and
// requires the recorded digest at each worker count.
func TestTrackerGolden(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		par := par
		t.Run(fmt.Sprintf("W%d", par), func(t *testing.T) {
			t.Parallel()
			h := fnv.New64a()
			put := func(v uint64) {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], v)
				h.Write(b[:])
			}
			for _, kind := range core.Kinds() {
				for seed := uint64(1); seed <= 4; seed++ {
					m := core.SampleStationary(kind, 3000, 6, rng.New(seed))
					tr := NewTracker(m, rng.New(seed^0x9e37), TrackerConfig{
						ReseedEvery:   3,
						LadderStride:  2,
						MaxGreedySize: 256, // greedy growth would dominate the run
						Parallelism:   par,
					})
					for round := 1; round <= 10; round++ {
						m.AdvanceRound()
						obs := tr.Observe()
						put(math.Float64bits(obs.Time))
						put(uint64(obs.N))
						put(math.Float64bits(obs.Min))
						put(uint64(obs.MinWitness.Size))
						put(uint64(obs.MinWitness.Boundary))
						put(math.Float64bits(obs.MinWitness.Ratio))
						for _, st := range tr.Sets() {
							put(uint64(st.Family))
							put(uint64(st.Live))
							put(uint64(st.Boundary))
							put(uint64(len(st.Members)))
							for _, mh := range st.Members {
								put(uint64(mh.Slot)<<32 | uint64(mh.Gen))
							}
						}
					}
					tr.Close()
				}
			}
			if got := h.Sum64(); got != trackerGoldenHash {
				t.Fatalf("tracker golden digest %#x, want %#x", got, uint64(trackerGoldenHash))
			}
		})
	}
}

// checkTrackerCounts compares the tracker's per-node state with a
// brute-force count over the member lists: every alive node's membership
// row must hold exactly the sets it is a live member of, and its count
// list exactly one entry per set it borders, holding the number of its
// live edges (with multiplicity) to that set's live members — each count,
// not only the |∂out| sizes VerifyTracker checks. It returns the largest
// count seen.
func checkTrackerCounts(t *testing.T, tr *Tracker, tag string) (maxCnt int32) {
	t.Helper()
	g := tr.g
	memberOf := make(map[graph.Handle][]uint32)
	for s := range tr.sets {
		for _, h := range tr.sets[s].members {
			if g.IsAlive(h) {
				memberOf[h] = append(memberOf[h], uint32(s))
			}
		}
	}
	for _, x := range g.AliveHandles() {
		own := make(map[uint32]bool)
		for _, s := range memberOf[x] {
			own[s] = true
		}
		row := tr.row(x.Slot)
		for s := range tr.sets {
			if in := row != nil && row[s>>6]>>(s&63)&1 == 1; in != own[uint32(s)] {
				t.Fatalf("%s: node %v: membership bit of set %d is %v, member lists say %v", tag, x, s, in, own[uint32(s)])
			}
		}
		want := make(map[uint32]int32)
		g.Neighbors(x, func(y graph.Handle) bool {
			for _, s := range memberOf[y] {
				if !own[s] {
					want[s]++
				}
			}
			return true
		})
		got := make(map[uint32]int32)
		if b := tr.counts(x); b != nil {
			for _, e := range b.entries {
				if _, dup := got[e.set]; dup || e.cnt <= 0 {
					t.Fatalf("%s: node %v: bad count entry %+v in %+v", tag, x, e, b.entries)
				}
				got[e.set] = e.cnt
				maxCnt = max(maxCnt, e.cnt)
			}
		}
		if !maps.Equal(got, want) {
			t.Fatalf("%s: node %v: tracked counts %v, brute force %v", tag, x, got, want)
		}
	}
	return maxCnt
}

// TestTrackerCountsExact checks every count entry against the brute-force
// count on sampled snapshots of all four models at W ∈ {1, 2, 4}: right
// after seeding, then through churn, Observe calls and re-seeds, so both
// the seeding sweep's bit planes and the hooks' maintenance are pinned
// entry by entry.
func TestTrackerCountsExact(t *testing.T) {
	for _, kind := range core.Kinds() {
		for _, par := range []int{1, 2, 4} {
			kind, par := kind, par
			t.Run(fmt.Sprintf("%v-W%d", kind, par), func(t *testing.T) {
				t.Parallel()
				m := core.SampleStationaryPar(kind, 700, 6, rng.New(uint64(par)), par)
				tr := NewTracker(m, rng.New(5), TrackerConfig{ReseedEvery: 2, MaxGreedySize: 64, Parallelism: par})
				defer tr.Close()
				checkTrackerCounts(t, tr, "seeding")
				for round := 1; round <= 6; round++ {
					m.AdvanceRound()
					checkTrackerCounts(t, tr, fmt.Sprintf("round %d", round))
					tr.Observe()
					checkTrackerCounts(t, tr, fmt.Sprintf("Observe %d", round))
				}
			})
		}
	}
}

// TestTrackerCountsPastEightBits seeds on a built graph whose three
// youngest nodes (the hubs) have 255, 256 and 300 parallel incidences
// with the oldest node, which every oldest-k set holds, so the seeding
// sweep's counts cross the eighth and ninth bit planes. Half of each
// hub's incidences are its own requests and half the oldest node's, so
// both halves of the neighbor walk carry. The rest of the graph is a path
// in birth order, which keeps each hub's count into every oldest-k set at
// exactly its incidence count.
func TestTrackerCountsPastEightBits(t *testing.T) {
	const n = 300
	hubs := map[int]int32{n - 1: 255, n - 2: 256, n - 3: 300}
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	for hub, c := range hubs {
		for j := 0; j < int(c); j++ {
			if j%2 == 0 {
				edges = append(edges, [2]int{0, hub})
			} else {
				edges = append(edges, [2]int{hub, 0})
			}
		}
	}
	for _, par := range []int{1, 2, 4} {
		g, hs := staticgraph.FromEdges(n, edges)
		tr := NewTracker(core.NewStaticModel(g, 1), rng.New(3), TrackerConfig{Parallelism: par})
		tag := fmt.Sprintf("W%d", par)
		if maxCnt := checkTrackerCounts(t, tr, tag); maxCnt < 300 {
			t.Fatalf("%s: largest count %d, want the 300-incidence hub's", tag, maxCnt)
		}
		for hub, c := range hubs {
			seen := 0
			for _, e := range tr.counts(hs[hub]).entries {
				if tr.sets[e.set].family == FamilyOldest {
					seen++
					if e.cnt != c {
						t.Fatalf("%s: hub %d: count %d into oldest set %d, want %d", tag, hub, e.cnt, e.set, c)
					}
				}
			}
			if seen == 0 {
				t.Fatalf("%s: hub %d borders no oldest-k set", tag, hub)
			}
		}
		tr.Close()
	}
}

// TestTrackerManySets tracks more than two words' worth of sets (every
// ladder rung, eight random sets a rung), so membership rows span three
// words, and runs churn, Observe calls and re-seeds at W ∈ {1, 2, 4} with
// VerifyTracker after each step. Sets 63, 64, 127 and 128, on either side
// of the word seams, are checked explicitly: every live member carries
// the set's bit in the right word, and the set's live size and boundary
// equal a rescan.
func TestTrackerManySets(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		par := par
		t.Run(fmt.Sprintf("W%d", par), func(t *testing.T) {
			t.Parallel()
			m := core.SampleStationaryPar(core.PDGR, 1000, 5, rng.New(11), par)
			tr := NewTracker(m, rng.New(12), TrackerConfig{
				RandomSetsPerSize: 8,
				ReseedEvery:       2,
				MaxGreedySize:     64,
				Parallelism:       par,
			})
			defer tr.Close()
			g := m.Graph()
			check := func(at string) {
				t.Helper()
				if tr.NumSets() <= 128 {
					t.Fatalf("%s: %d sets, want more than 128", at, tr.NumSets())
				}
				checkTrackerAgainstRescan(t, g, tr, at)
				for _, id := range []int{63, 64, 127, 128} {
					st := &tr.sets[id]
					live := 0
					for _, h := range st.members {
						if !g.IsAlive(h) {
							continue
						}
						live++
						if tr.row(h.Slot)[id>>6]>>(id&63)&1 == 0 {
							t.Fatalf("%s: set %d: live member %v lacks its membership bit", at, id, h)
						}
					}
					if st.live != live || st.boundary != BoundarySize(g, st.members) {
						t.Fatalf("%s: set %d: tracked live %d boundary %d, rescan %d and %d",
							at, id, st.live, st.boundary, live, BoundarySize(g, st.members))
					}
				}
			}
			check("seeding")
			for round := 1; round <= 8; round++ {
				m.AdvanceRound()
				check(fmt.Sprintf("round %d", round))
				tr.Observe()
				check(fmt.Sprintf("Observe %d", round))
			}
			checkTrackerCounts(t, tr, "end")
		})
	}
}
