package expansion

import (
	"math"
	"testing"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
	"github.com/dyngraph/churnnet/internal/staticgraph"
)

func TestSpectralGapDisconnected(t *testing.T) {
	g, _ := staticgraph.Disconnected(1, 5)
	if gap := SpectralGap(g, 200, rng.New(1)); gap > 0.02 {
		t.Fatalf("disconnected gap %v, want ~0", gap)
	}
	// Two cliques, no bridge.
	var edges [][2]int
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, [2]int{i, j}, [2]int{5 + i, 5 + j})
		}
	}
	g2, _ := staticgraph.FromEdges(10, edges)
	if gap := SpectralGap(g2, 200, rng.New(2)); gap > 0.02 {
		t.Fatalf("two-clique gap %v, want ~0", gap)
	}
}

func TestSpectralGapCompleteGraph(t *testing.T) {
	g, _ := staticgraph.Complete(12)
	// λ2 of the normalized adjacency of K_n is −1/(n−1); the lazy gap is
	// (1 − λ2)/2 ≈ 0.545.
	gap := SpectralGap(g, 300, rng.New(3))
	want := (1.0 + 1.0/11) / 2
	if math.Abs(gap-want) > 0.02 {
		t.Fatalf("K12 gap %v, want ~%v", gap, want)
	}
	checkGapOneSided(t, g, want, "K12")
}

func TestSpectralGapCycleSmall(t *testing.T) {
	g, _ := staticgraph.Cycle(40)
	// Lazy gap of C_n is (1 − cos(2π/n))/2 ≈ π²/n².
	gap := SpectralGap(g, 800, rng.New(4))
	want := (1 - math.Cos(2*math.Pi/40)) / 2
	if math.Abs(gap-want) > 0.01 {
		t.Fatalf("C40 gap %v, want ~%v", gap, want)
	}
	checkGapOneSided(t, g, want, "C40")
}

// checkGapOneSided pins the direction SpectralGap errs in: whatever the
// iteration count and start, the estimate never falls below the true gap
// (within rounding) — it can only overstate it.
func checkGapOneSided(t *testing.T, g *graph.Graph, want float64, tag string) {
	t.Helper()
	for _, iters := range []int{1, 5, 50} {
		for seed := uint64(1); seed <= 5; seed++ {
			if gap := SpectralGap(g, iters, rng.New(seed)); gap < want-1e-9 {
				t.Fatalf("%s iters=%d seed=%d: gap %v below the true gap %v", tag, iters, seed, gap, want)
			}
		}
	}
}

func TestSpectralGapOrdersModels(t *testing.T) {
	// Expander (static 8-out) >> cycle; regen model ≈ expander baseline.
	r := rng.New(5)
	expander, _ := staticgraph.DOut(300, 8, r)
	cycle, _ := staticgraph.Cycle(300)
	gapExp := SpectralGap(expander, 120, rng.New(6))
	gapCyc := SpectralGap(cycle, 120, rng.New(7))
	if gapExp < 10*gapCyc {
		t.Fatalf("expander gap %v not well above cycle gap %v", gapExp, gapCyc)
	}
	m := core.NewStreaming(300, 14, true, rng.New(8))
	m.WarmUp()
	if gapRegen := SpectralGap(m.Graph(), 120, rng.New(9)); gapRegen < 0.05 {
		t.Fatalf("SDGR spectral gap %v too small", gapRegen)
	}
}

func TestSpectralGapNoRegenSmallD(t *testing.T) {
	// SDG at d=2 has isolated nodes -> disconnected -> near-zero gap,
	// matching the h_out = 0 witnesses of the search.
	m := core.NewStreaming(1500, 2, false, rng.New(10))
	m.WarmUp()
	if gap := SpectralGap(m.Graph(), 200, rng.New(11)); gap > 0.02 {
		t.Fatalf("SDG d=2 gap %v, want ~0", gap)
	}
}

func TestSpectralGapEdgeCases(t *testing.T) {
	if gap := SpectralGap(graph.New(0, 0), 10, rng.New(12)); gap != 0 {
		t.Fatalf("empty graph gap %v", gap)
	}
	g := graph.New(1, 0)
	g.AddNode(0)
	if gap := SpectralGap(g, 10, rng.New(13)); gap != 1 {
		t.Fatalf("singleton gap %v", gap)
	}
	// Edgeless multi-node graph.
	g2 := graph.New(3, 0)
	for i := 0; i < 3; i++ {
		g2.AddNode(float64(i))
	}
	if gap := SpectralGap(g2, 10, rng.New(14)); gap != 0 {
		t.Fatalf("edgeless gap %v", gap)
	}
}

func TestSpectralGapDeterministic(t *testing.T) {
	g, _ := staticgraph.DOut(100, 4, rng.New(15))
	a := SpectralGap(g, 80, rng.New(16))
	b := SpectralGap(g, 80, rng.New(16))
	if a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func BenchmarkSpectralGap(b *testing.B) {
	m := core.NewStreaming(2000, 14, true, rng.New(1))
	m.WarmUp()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SpectralGap(m.Graph(), 60, rng.New(uint64(i)))
	}
}
