package churnnet_test

import (
	"math"
	"strings"
	"testing"

	churnnet "github.com/dyngraph/churnnet"
	"github.com/dyngraph/churnnet/internal/expansion"
)

// These tests exercise the public facade end to end: they are the
// library-level integration tests of the whole reproduction.

func TestQuickstartFlow(t *testing.T) {
	m := churnnet.NewWarmModel(churnnet.SDGR, 500, 21, 1)
	res := churnnet.Flood(m, churnnet.FloodOptions{})
	if !res.Completed {
		t.Fatalf("SDGR flooding did not complete: %+v", res)
	}
	if res.CompletionRound <= 0 || res.CompletionRound > 30 {
		t.Fatalf("completion round %d", res.CompletionRound)
	}
}

// TestStationaryModelFacade exercises the fast-warm-up facade: sampled
// models must be measurement-ready (full population, floodable to
// completion at the paper's degrees) and deterministic given the seed.
func TestStationaryModelFacade(t *testing.T) {
	for _, kind := range churnnet.ModelKinds() {
		m := churnnet.NewStationaryModel(kind, 500, 21, 1)
		if m.Kind() != kind {
			t.Fatalf("kind %v", m.Kind())
		}
		alive := m.Graph().NumAlive()
		if alive < 400 || alive > 600 {
			t.Fatalf("%v: population %d far from n=500", kind, alive)
		}
	}
	m := churnnet.NewStationaryModel(churnnet.SDGR, 500, 21, 1)
	res := churnnet.Flood(m, churnnet.FloodOptions{})
	if !res.Completed || res.CompletionRound > 30 {
		t.Fatalf("SDGR flooding from sampled snapshot: %+v", res)
	}
	again := churnnet.Flood(churnnet.NewStationaryModel(churnnet.SDGR, 500, 21, 1),
		churnnet.FloodOptions{})
	if res.CompletionRound != again.CompletionRound || res.EverInformed != again.EverInformed {
		t.Fatal("NewStationaryModel is not deterministic given the seed")
	}
}

func TestModelKinds(t *testing.T) {
	kinds := churnnet.ModelKinds()
	if len(kinds) != 4 {
		t.Fatalf("kinds: %v", kinds)
	}
	names := map[string]bool{}
	for _, k := range kinds {
		names[k.String()] = true
	}
	for _, want := range []string{"SDG", "SDGR", "PDG", "PDGR"} {
		if !names[want] {
			t.Fatalf("missing kind %s", want)
		}
	}
}

func TestAllKindsBuildAndFlood(t *testing.T) {
	for _, kind := range churnnet.ModelKinds() {
		m := churnnet.NewWarmModel(kind, 300, 20, 2)
		if m.Kind() != kind {
			t.Fatalf("kind mismatch: %v", m.Kind())
		}
		res := churnnet.Flood(m, churnnet.FloodOptions{MaxRounds: 40})
		if res.EverInformed < 2 {
			t.Fatalf("%v: flooding went nowhere", kind)
		}
	}
}

func TestStaticBaseline(t *testing.T) {
	g, hs := churnnet.NewDOutGraph(200, 3, 3)
	if g.NumAlive() != 200 || len(hs) != 200 {
		t.Fatal("DOut size")
	}
	m := churnnet.NewStaticModel(g, 3)
	if m.Kind() != churnnet.Static {
		t.Fatal("static kind")
	}
	res := churnnet.Flood(m, churnnet.FloodOptions{Source: hs[0]})
	if !res.Completed {
		t.Fatalf("static d-out flooding: %+v", res)
	}
}

func TestExpansionFacade(t *testing.T) {
	g, hs := churnnet.NewDOutGraph(12, 3, 4)
	exact, witness := churnnet.ExactExpansion(g)
	if exact <= 0 {
		t.Fatalf("exact expansion %v (random 3-out graphs are connected whp)", exact)
	}
	if len(witness) == 0 {
		t.Fatal("no witness")
	}
	prof := churnnet.EstimateExpansion(g, 5, churnnet.ExpansionConfig{})
	est, _ := prof.Min()
	if est < exact-1e-12 {
		t.Fatalf("estimate %v below exact %v", est, exact)
	}
	if b := churnnet.BoundarySize(g, hs[:3]); b < 0 || b > 9 {
		t.Fatalf("boundary %d", b)
	}
}

func TestExpansionTrackerFacade(t *testing.T) {
	m := churnnet.NewWarmModel(churnnet.SDGR, 300, 14, 7)
	tr := churnnet.TrackExpansion(m, 8, churnnet.ExpansionTrackerConfig{ReseedEvery: 2})
	defer tr.Close()
	var last churnnet.ExpansionObservation
	for round := 1; round <= 8; round++ {
		m.AdvanceRound()
		last = tr.Observe()
	}
	if last.N == 0 || last.Profile == nil || len(last.Profile.BestBySize) == 0 {
		t.Fatalf("empty tracked observation: %+v", last)
	}
	if last.Min < 0.1 {
		t.Fatalf("SDGR d=14 tracked witness below 0.1: %+v", last.MinWitness)
	}
	// Tracked numbers must be exactly what a fresh rescan computes.
	g := m.Graph()
	if err := expansion.VerifyTracker(g, tr); err != nil {
		t.Fatal(err)
	}
	// Flooding shares the hook chain with an attached tracker.
	for !g.IsAlive(m.LastBorn()) {
		m.AdvanceRound()
	}
	if res := churnnet.Flood(m, churnnet.FloodOptions{Parallelism: churnnet.FloodAuto}); !res.Completed {
		t.Fatalf("SDGR flood under a tracker did not complete: %+v", res)
	}
}

func TestAutoParallelismFacade(t *testing.T) {
	if w := churnnet.AutoParallelism(1000); w != 1 {
		t.Fatalf("small-n auto parallelism %d, want 1", w)
	}
	if w := churnnet.AutoParallelism(1 << 22); w < 1 {
		t.Fatalf("auto parallelism %d", w)
	}
	m := churnnet.NewReadyModelPar(churnnet.PDGR, 2000, 8, 9, true, churnnet.FloodAuto)
	if m.Graph().NumAlive() == 0 {
		t.Fatal("auto-worker stationary build produced an empty model")
	}
}

func TestAnalysisFacade(t *testing.T) {
	m := churnnet.NewWarmModel(churnnet.SDG, 1000, 2, 6)
	g := m.Graph()
	if churnnet.IsolatedFraction(g) <= 0 {
		t.Fatal("SDG d=2 should have isolated nodes")
	}
	ds := churnnet.Degrees(g)
	if math.Abs(ds.Mean-2) > 0.3 {
		t.Fatalf("mean degree %v", ds.Mean)
	}
	res := churnnet.LifetimeIsolation(m, 0)
	if res.WatchedAtStart == 0 {
		t.Fatal("no watched nodes")
	}
	m2 := churnnet.NewWarmModel(churnnet.SDGR, 500, 10, 7)
	q := churnnet.InDegreeByAgeQuantile(m2.Graph(), 5)
	if len(q) != 5 || q[0] <= q[4] {
		t.Fatalf("age bias quantiles %v", q)
	}
	profile := churnnet.AgeProfile(m2.Graph(), m2.Now(), 100)
	total := 0
	for _, c := range profile {
		total += c
	}
	if total != m2.Graph().NumAlive() {
		t.Fatalf("profile total %d != alive %d", total, m2.Graph().NumAlive())
	}
}

func TestOnionFacade(t *testing.T) {
	res := churnnet.OnionStreaming(50000, 250, 8)
	if !res.Reached && !res.DiedOut {
		t.Fatal("onion cascade must terminate")
	}
	ext := churnnet.OnionExtended(50000, 1200, 0, 9)
	if ext.Target <= 0 {
		t.Fatalf("extended target %d", ext.Target)
	}
}

func TestExperimentFacade(t *testing.T) {
	if len(churnnet.Experiments()) != 25 {
		t.Fatalf("suite size %d", len(churnnet.Experiments()))
	}
	tab, err := churnnet.RunExperiment("F16", churnnet.ScaleSmoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.Markdown(), "Lemma 4.8") {
		t.Fatal("table markdown missing reference")
	}
	if _, err := churnnet.RunExperiment("F99", churnnet.ScaleSmoke, 1); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestParseScaleFacade(t *testing.T) {
	s, err := churnnet.ParseScale("paper")
	if err != nil || s != churnnet.ScalePaper {
		t.Fatal("ParseScale")
	}
}

func TestDeterministicFacade(t *testing.T) {
	a := churnnet.NewWarmModel(churnnet.PDGR, 400, 20, 42)
	b := churnnet.NewWarmModel(churnnet.PDGR, 400, 20, 42)
	if a.Graph().NumAlive() != b.Graph().NumAlive() {
		t.Fatal("same seed, different size")
	}
	ra := churnnet.Flood(a, churnnet.FloodOptions{})
	rb := churnnet.Flood(b, churnnet.FloodOptions{})
	if ra.CompletionRound != rb.CompletionRound || ra.EverInformed != rb.EverInformed {
		t.Fatal("same seed, different flooding")
	}
}

func TestHooksFacade(t *testing.T) {
	m := churnnet.NewModel(churnnet.SDG, 50, 2, 10)
	births := 0
	m.SetHooks(churnnet.Hooks{OnBirth: func(churnnet.Handle) { births++ }})
	for i := 0; i < 30; i++ {
		m.AdvanceRound()
	}
	if births != 30 {
		t.Fatalf("births %d", births)
	}
}

func TestTableOneShapeIntegration(t *testing.T) {
	// The headline qualitative reproduction, via the public API only.
	// Constant d (here 3) with e^{−2d}·n >> 1 puts SDG in the
	// isolated-node regime: most nodes get informed, completion never
	// happens. Regeneration at the theorem's d ≥ 21 flips the outcome to
	// complete O(log n) broadcast.
	const n = 4000
	noRegen := churnnet.Flood(churnnet.NewWarmModel(churnnet.SDG, n, 3, 11), churnnet.FloodOptions{})
	regen := churnnet.Flood(churnnet.NewWarmModel(churnnet.SDGR, n, 21, 11), churnnet.FloodOptions{})
	if noRegen.Completed {
		t.Fatal("SDG completed despite isolated nodes")
	}
	if noRegen.PeakFraction < 0.6 {
		t.Fatalf("SDG peak fraction %v, want most nodes informed", noRegen.PeakFraction)
	}
	if !regen.Completed {
		t.Fatal("SDGR must complete")
	}
}

// TestTrafficFacade exercises the multi-message traffic plane through the
// public API: a staggered schedule of broadcasts over one churn stream,
// each delivering (the regime of TestQuickstartFlow), with retirement
// releasing finished messages while later ones are still in flight.
func TestTrafficFacade(t *testing.T) {
	m := churnnet.NewWarmModel(churnnet.SDGR, 500, 21, 1)
	tr := churnnet.NewTraffic(m, churnnet.TrafficOptions{Parallelism: churnnet.FloodAuto})
	defer tr.Close()

	steps, err := churnnet.TrafficSchedule("staggered", 3, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ids []churnnet.MessageID
	next := 0
	for step := 0; next < len(steps) || tr.Live() > 0; step++ {
		for next < len(steps) && steps[next] == step {
			ids = append(ids, tr.Inject(churnnet.Handle{}))
			next++
		}
		tr.Step()
		// Retire messages as they finish — the production pattern.
		for _, id := range ids {
			if tr.Status(id) == churnnet.MessageDone {
				tr.Retire(id)
			}
		}
		if step > 200 {
			t.Fatal("traffic plane did not drain")
		}
	}
	if tr.Injected() != 3 {
		t.Fatalf("injected %d messages, want 3", tr.Injected())
	}
	for i, id := range ids {
		if tr.Status(id) != churnnet.MessageRetired {
			t.Fatalf("message %d not retired: %v", i, tr.Status(id))
		}
		res := tr.Result(id)
		if !res.Completed || res.CompletionRound <= 0 || res.CompletionRound > 30 {
			t.Fatalf("message %d: %+v", i, res)
		}
	}
}
