package churnnet_test

import (
	"bytes"
	"strings"
	"testing"

	churnnet "github.com/dyngraph/churnnet"
)

// Facade-level tests of the extension APIs: overlay, degree policies,
// components, snapshot serialization.

func TestOverlayFacade(t *testing.T) {
	ov := churnnet.NewOverlay(churnnet.OverlayConfig{N: 300, D: 12, MaxIn: 60}, 1)
	ov.WarmUp()
	if ov.Kind().String() != "OVERLAY" {
		t.Fatalf("kind %v", ov.Kind())
	}
	size := ov.Graph().NumAlive()
	if size < 200 || size > 400 {
		t.Fatalf("population %d", size)
	}
	if !ov.Graph().IsAlive(ov.LastBorn()) {
		ov.AdvanceRound()
	}
	res := churnnet.Flood(ov, churnnet.FloodOptions{})
	if !res.Completed {
		t.Fatalf("overlay flooding: %+v", res)
	}
}

func TestDegreePolicyFacade(t *testing.T) {
	policy := churnnet.DegreePolicy{Choices: 2}
	m := churnnet.NewPoissonVariantModel(500, 10, true, policy, 2)
	for i := 0; i < 3000; i++ {
		m.AdvanceRound()
	}
	ds := churnnet.Degrees(m.Graph())
	// Least-loaded choice compresses the maximum total degree well below
	// the uniform model's Θ(log n) tail.
	plain := churnnet.NewWarmModel(churnnet.PDGR, 500, 10, 2)
	if ds.Max >= churnnet.Degrees(plain.Graph()).Max+5 {
		t.Fatalf("2-choice max degree %d not compressed", ds.Max)
	}
}

func TestComponentsFacade(t *testing.T) {
	m := churnnet.NewWarmModel(churnnet.SDG, 1500, 3, 3)
	cs := churnnet.Components(m.Graph())
	if cs.Count < 2 {
		t.Fatalf("SDG d=3 should be disconnected: %+v", cs)
	}
	if cs.GiantFraction < 0.7 || cs.GiantFraction >= 1 {
		t.Fatalf("giant fraction %v", cs.GiantFraction)
	}
}

func TestSerializationFacade(t *testing.T) {
	g, _ := churnnet.NewDOutGraph(40, 3, 4)
	var dot bytes.Buffer
	if err := churnnet.WriteDOT(&dot, g, "sample"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), `graph "sample"`) {
		t.Fatal("DOT output malformed")
	}

	var edges bytes.Buffer
	if err := churnnet.WriteEdgeList(&edges, g); err != nil {
		t.Fatal(err)
	}
	g2, hs, err := churnnet.ReadEdgeList(&edges, g.NumAlive())
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumAlive() != 40 || len(hs) != 40 {
		t.Fatal("round trip size")
	}
	if g2.NumEdgesLive() != g.NumEdgesLive() {
		t.Fatal("round trip edges")
	}
	// The reloaded snapshot is usable as a static model.
	res := churnnet.Flood(churnnet.NewStaticModel(g2, 3), churnnet.FloodOptions{Source: hs[0]})
	if res.EverInformed < 2 {
		t.Fatal("reloaded graph not floodable")
	}
}

func TestSpectralGapFacade(t *testing.T) {
	// Regen model: constant gap; no-regen with small d: gap ~ 0.
	regen := churnnet.NewWarmModel(churnnet.SDGR, 500, 14, 5)
	if gap := churnnet.SpectralGap(regen.Graph(), 80, 1); gap < 0.05 {
		t.Fatalf("SDGR gap %v", gap)
	}
	noRegen := churnnet.NewWarmModel(churnnet.SDG, 1000, 2, 5)
	if gap := churnnet.SpectralGap(noRegen.Graph(), 80, 1); gap > 0.02 {
		t.Fatalf("SDG d=2 gap %v", gap)
	}
}
