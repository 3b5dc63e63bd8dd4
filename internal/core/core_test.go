package core

import (
	"math"
	"testing"

	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{SDG: "SDG", SDGR: "SDGR", PDG: "PDG", PDGR: "PDGR"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%v.String() = %q", want, k.String())
		}
	}
	if Kind(0).String() != "Kind(0)" {
		t.Errorf("unknown kind string = %q", Kind(0).String())
	}
}

func TestKindPredicates(t *testing.T) {
	if SDG.Regen() || PDG.Regen() || !SDGR.Regen() || !PDGR.Regen() {
		t.Fatal("Regen predicate wrong")
	}
	if SDG.Poisson() || SDGR.Poisson() || !PDG.Poisson() || !PDGR.Poisson() {
		t.Fatal("Poisson predicate wrong")
	}
	if len(Kinds()) != 4 {
		t.Fatal("Kinds() must list all four models")
	}
}

func TestStreamingGrowthPhase(t *testing.T) {
	m := NewStreaming(10, 2, false, rng.New(1))
	for i := 1; i <= 10; i++ {
		m.Step()
		if got := m.Graph().NumAlive(); got != i {
			t.Fatalf("round %d: size %d", i, got)
		}
	}
	// Steady state: size pinned at n.
	for i := 0; i < 25; i++ {
		m.Step()
		if got := m.Graph().NumAlive(); got != 10 {
			t.Fatalf("steady round: size %d", got)
		}
	}
	if m.Round() != 35 {
		t.Fatalf("Round = %d", m.Round())
	}
}

func TestStreamingLifetimeExactlyN(t *testing.T) {
	const n = 20
	m := NewStreaming(n, 1, false, rng.New(2))
	births := map[graph.Handle]int{}
	m.SetHooks(Hooks{
		OnBirth: func(h graph.Handle) { births[h] = m.Round() },
		OnDeath: func(h graph.Handle) {
			if born, ok := births[h]; !ok {
				t.Fatalf("death of unknown node %v", h)
			} else if m.Round()-born != n {
				t.Fatalf("lifetime %d, want exactly %d", m.Round()-born, n)
			}
		},
	})
	for i := 0; i < 5*n; i++ {
		m.Step()
	}
}

func TestStreamingWarmUpRepresentative(t *testing.T) {
	const n, d = 500, 3
	m := NewStreaming(n, d, false, rng.New(3))
	m.WarmUp()
	g := m.Graph()
	if g.NumAlive() != n {
		t.Fatalf("size after warmup = %d", g.NumAlive())
	}
	// Every alive node was born into a full network, so it carries exactly
	// d out-slots (some targets possibly dead).
	g.ForEachAlive(func(h graph.Handle) bool {
		if got := g.OutSlotCount(h); got != d {
			t.Fatalf("node %v has %d out-slots", h, got)
		}
		return true
	})
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSDGExpectedDegreeLemma61(t *testing.T) {
	// Lemma 6.1: in the SDG snapshot every node has expected degree d.
	const n, d = 2000, 4
	m := NewStreaming(n, d, false, rng.New(4))
	m.WarmUp()
	g := m.Graph()
	sum := 0
	g.ForEachAlive(func(h graph.Handle) bool {
		sum += g.DegreeLive(h)
		return true
	})
	mean := float64(sum) / float64(n)
	if math.Abs(mean-d) > 0.15 {
		t.Fatalf("mean degree %v, want ~%d", mean, d)
	}
}

func TestSDGHasIsolatedNodes(t *testing.T) {
	// Lemma 3.5 shape: for constant d a linear fraction is isolated.
	const n, d = 3000, 2
	m := NewStreaming(n, d, false, rng.New(5))
	m.WarmUp()
	g := m.Graph()
	isolated := 0
	g.ForEachAlive(func(h graph.Handle) bool {
		if g.IsIsolated(h) {
			isolated++
		}
		return true
	})
	// Bound from the lemma: (1/6)·e^(-2d)·n ≈ 9 for these parameters. Ask
	// for at least that many (the true count is far larger).
	if want := int(float64(n) * math.Exp(-2*d) / 6); isolated < want {
		t.Fatalf("isolated = %d, want >= %d", isolated, want)
	}
}

func TestSDGRFullOutDegree(t *testing.T) {
	// With regeneration every node keeps exactly d live out-edges
	// (Definition 3.13), so there are exactly d·n live edges and no
	// isolated nodes.
	const n, d = 800, 3
	m := NewStreaming(n, d, true, rng.New(6))
	m.WarmUp()
	g := m.Graph()
	g.ForEachAlive(func(h graph.Handle) bool {
		if got := g.OutDegreeLive(h); got != d {
			t.Fatalf("node %v live out-degree %d, want %d", h, got, d)
		}
		if g.IsIsolated(h) {
			t.Fatalf("isolated node %v in regen model", h)
		}
		return true
	})
	if got := g.NumEdgesLive(); got != n*d {
		t.Fatalf("live edges = %d, want %d", got, n*d)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingAdvanceRoundEqualsStep(t *testing.T) {
	a := NewStreaming(50, 2, true, rng.New(7))
	b := NewStreaming(50, 2, true, rng.New(7))
	for i := 0; i < 120; i++ {
		a.Step()
		b.AdvanceRound()
	}
	if a.Round() != b.Round() || a.Now() != b.Now() {
		t.Fatal("AdvanceRound and Step disagree")
	}
	if a.Graph().NumAlive() != b.Graph().NumAlive() {
		t.Fatal("sizes diverged")
	}
}

func TestStreamingLastBorn(t *testing.T) {
	m := NewStreaming(10, 2, false, rng.New(8))
	if !m.LastBorn().IsNil() {
		t.Fatal("LastBorn before any birth must be Nil")
	}
	m.Step()
	h := m.LastBorn()
	if !m.Graph().IsAlive(h) {
		t.Fatal("LastBorn not alive")
	}
	if m.Graph().Newest() != h {
		t.Fatal("LastBorn is not the newest node")
	}
}

func TestPoissonSizeConcentration(t *testing.T) {
	// Lemma 4.4 shape: after warmup, size within [0.9n, 1.1n].
	const n = 2000
	m := NewPoisson(n, 2, false, rng.New(9))
	m.WarmUpRounds(8 * n)
	for i := 0; i < 10; i++ {
		m.AdvanceTime(float64(n) / 10)
		size := m.Graph().NumAlive()
		if size < int(0.9*n) || size > int(1.1*n) {
			t.Fatalf("size %d outside [0.9n, 1.1n]", size)
		}
	}
}

func TestPoissonAdvanceRoundTime(t *testing.T) {
	m := NewPoisson(200, 2, true, rng.New(10))
	m.AdvanceRound()
	if math.Abs(m.Now()-1) > 1e-9 {
		t.Fatalf("Now = %v after one round", m.Now())
	}
	m.AdvanceTime(2.5)
	if math.Abs(m.Now()-3.5) > 1e-9 {
		t.Fatalf("Now = %v", m.Now())
	}
}

func TestPoissonRoundCounter(t *testing.T) {
	m := NewPoisson(100, 1, false, rng.New(11))
	for i := 0; i < 500; i++ {
		m.StepEvent()
	}
	if m.Round() != 500 {
		t.Fatalf("Round = %d", m.Round())
	}
}

func TestPDGRRegenInvariant(t *testing.T) {
	// After plenty of churn, every PDGR node that was born into a network
	// with other nodes keeps exactly d live out-edges.
	const n, d = 400, 3
	m := NewPoisson(n, d, true, rng.New(12))
	m.WarmUpRounds(20 * n)
	g := m.Graph()
	bad := 0
	g.ForEachAlive(func(h graph.Handle) bool {
		if g.OutDegreeLive(h) != d {
			bad++
		}
		return true
	})
	if bad > 0 {
		t.Fatalf("%d of %d nodes lack full out-degree", bad, g.NumAlive())
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPDGInvariants(t *testing.T) {
	m := NewPoisson(300, 2, false, rng.New(13))
	m.WarmUpRounds(3000)
	if err := m.Graph().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonHooks(t *testing.T) {
	m := NewPoisson(100, 2, true, rng.New(14))
	births, deaths := 0, 0
	m.SetHooks(Hooks{
		OnBirth: func(h graph.Handle) {
			births++
			if !m.Graph().IsAlive(h) {
				t.Fatal("OnBirth handle not alive")
			}
		},
		OnDeath: func(h graph.Handle) {
			deaths++
			if !m.Graph().IsAlive(h) {
				t.Fatal("OnDeath must fire before removal")
			}
		},
	})
	m.WarmUpRounds(2000)
	if births+deaths != 2000 {
		t.Fatalf("hooks fired %d times, want 2000", births+deaths)
	}
	if births-deaths != m.Graph().NumAlive() {
		t.Fatalf("births %d - deaths %d != alive %d", births, deaths, m.Graph().NumAlive())
	}
}

func TestPoissonLastBornNewest(t *testing.T) {
	m := NewPoisson(50, 2, false, rng.New(15))
	m.WarmUpRounds(500)
	h := m.LastBorn()
	// LastBorn may have died since; if alive it must be the newest.
	if m.Graph().IsAlive(h) && m.Graph().Newest() != h {
		t.Fatal("LastBorn is alive but not newest")
	}
}

func TestNewDispatch(t *testing.T) {
	r := rng.New(16)
	for _, k := range Kinds() {
		m := New(k, 50, 2, r.Split())
		if m.Kind() != k {
			t.Fatalf("New(%v).Kind() = %v", k, m.Kind())
		}
		if m.N() != 50 || m.D() != 2 {
			t.Fatal("params not preserved")
		}
		WarmUp(m)
		if m.Graph().NumAlive() == 0 {
			t.Fatalf("%v: empty after warmup", k)
		}
		if err := m.Graph().CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
}

func TestNewPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(Kind(0)) did not panic")
		}
	}()
	New(Kind(0), 10, 2, rng.New(1))
}

func TestModelDeterminism(t *testing.T) {
	for _, k := range Kinds() {
		a := New(k, 100, 3, rng.New(321))
		b := New(k, 100, 3, rng.New(321))
		WarmUp(a)
		WarmUp(b)
		for i := 0; i < 20; i++ {
			a.AdvanceRound()
			b.AdvanceRound()
		}
		if a.Graph().NumAlive() != b.Graph().NumAlive() {
			t.Fatalf("%v: same seed diverged in size", k)
		}
		if a.Graph().NumEdgesLive() != b.Graph().NumEdgesLive() {
			t.Fatalf("%v: same seed diverged in edges", k)
		}
	}
}

func TestBootstrapFromEmpty(t *testing.T) {
	// The very first node cannot place requests; nothing should panic and
	// invariants must hold through the growth phase.
	for _, k := range Kinds() {
		m := New(k, 10, 3, rng.New(17))
		for i := 0; i < 50; i++ {
			m.AdvanceRound()
		}
		if err := m.Graph().CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
}

func TestStreamingOldestAge(t *testing.T) {
	// In steady state the oldest alive node is exactly n rounds old
	// (born at t-n+1... lives to t+n-... precisely: ages span 1..n).
	const n = 30
	m := NewStreaming(n, 1, false, rng.New(18))
	m.WarmUp()
	g := m.Graph()
	oldest := g.Oldest()
	age := m.Now() - g.BirthTime(oldest)
	if int(age) != n-1 {
		t.Fatalf("oldest age %v rounds, want %d", age, n-1)
	}
}

func TestMakeRequestsParallelEdgesPossible(t *testing.T) {
	// With 2 nodes and d=5 all requests go to the single other node.
	g := graph.New(2, 5)
	r := rng.New(19)
	a := g.AddNode(0)
	b := g.AddNode(1)
	MakeRequests(g, b, 5, UniformDraw(g, r), nil)
	if got := g.OutDegreeLive(b); got != 5 {
		t.Fatalf("out-degree %d, want 5 parallel edges", got)
	}
	if got := g.InDegreeLive(a); got != 5 {
		t.Fatalf("in-degree %d", got)
	}
}

func BenchmarkStreamingStepSDGR(b *testing.B) {
	m := NewStreaming(10000, 20, true, rng.New(1))
	m.WarmUp()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

func BenchmarkPoissonRoundPDGR(b *testing.B) {
	m := NewPoisson(10000, 20, true, rng.New(1))
	m.WarmUpRounds(30000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AdvanceRound()
	}
}
