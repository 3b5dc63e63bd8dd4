package expansion

import (
	"fmt"
	"math"
	"testing"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
	"github.com/dyngraph/churnnet/internal/staticgraph"
)

func TestBoundarySizeCycleArc(t *testing.T) {
	g, hs := staticgraph.Cycle(8)
	// An arc of 3 consecutive nodes has boundary 2.
	if got := BoundarySize(g, hs[2:5]); got != 2 {
		t.Fatalf("arc boundary = %d", got)
	}
	// The whole cycle has empty boundary.
	if got := BoundarySize(g, hs); got != 0 {
		t.Fatalf("full-set boundary = %d", got)
	}
}

func TestBoundarySizeIgnoresDeadAndDuplicates(t *testing.T) {
	g, hs := staticgraph.Path(4)
	set := []graph.Handle{hs[0], hs[0], hs[1]}
	if got := BoundarySize(g, set); got != 1 {
		t.Fatalf("boundary with duplicates = %d", got)
	}
	g.RemoveNode(hs[0], nil)
	if got := BoundarySize(g, []graph.Handle{hs[0], hs[1]}); got != 1 {
		t.Fatalf("boundary with dead member = %d", got)
	}
}

func TestRatioPanicsOnEmpty(t *testing.T) {
	g, hs := staticgraph.Path(2)
	g.RemoveNode(hs[0], nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Ratio(g, []graph.Handle{hs[0]})
}

func TestExactKnownFamilies(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*graph.Graph, []graph.Handle)
		want  float64
	}{
		{"K6", func() (*graph.Graph, []graph.Handle) { return staticgraph.Complete(6) }, 1},
		{"C8", func() (*graph.Graph, []graph.Handle) { return staticgraph.Cycle(8) }, 0.5},
		{"P8", func() (*graph.Graph, []graph.Handle) { return staticgraph.Path(8) }, 0.25},
		{"Star8", func() (*graph.Graph, []graph.Handle) { return staticgraph.Star(8) }, 0.25},
		{"Disc2+4", func() (*graph.Graph, []graph.Handle) { return staticgraph.Disconnected(2, 4) }, 0},
	}
	for _, c := range cases {
		g, _ := c.build()
		got, witness := Exact(g)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: Exact = %v, want %v (witness %v)", c.name, got, c.want, witness)
		}
		if len(witness) == 0 || len(witness) > g.NumAlive()/2 {
			t.Errorf("%s: witness size %d invalid", c.name, len(witness))
		}
		// The witness must actually achieve the reported ratio.
		if r := Ratio(g, witness); math.Abs(r-got) > 1e-12 {
			t.Errorf("%s: witness ratio %v != reported %v", c.name, r, got)
		}
	}
}

func TestExactPanicsOnLargeGraph(t *testing.T) {
	g, _ := staticgraph.Cycle(ExactLimit + 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Exact(g)
}

func TestEstimateUpperBoundsExact(t *testing.T) {
	// On random graphs small enough for exhaustive search, every witness
	// the estimator finds must be >= the true minimum, and the singleton
	// pass must be exact for size-1 sets.
	for seed := uint64(0); seed < 8; seed++ {
		r := rng.New(seed)
		g, _ := staticgraph.DOut(14, 2, r)
		exact, _ := Exact(g)
		p := Estimate(g, r, Config{})
		est, _ := p.Min()
		if est < exact-1e-12 {
			t.Fatalf("seed %d: estimate %v below exact %v", seed, est, exact)
		}
	}
}

func TestEstimateFindsIsolatedNodes(t *testing.T) {
	g, _ := staticgraph.Disconnected(3, 10)
	p := Estimate(g, rng.New(1), Config{})
	min, w := p.Min()
	if min != 0 {
		t.Fatalf("estimate min = %v, want 0 (isolated nodes)", min)
	}
	if w.Size != 1 || w.Boundary != 0 {
		t.Fatalf("witness %+v, want isolated singleton", w)
	}
}

func TestEstimateFindsPlantedCut(t *testing.T) {
	// Barbell: two 15-cliques joined by one edge. The planted cut (one
	// clique) has ratio 1/15; greedy/BFS candidates must find it.
	const k = 15
	var edges [][2]int
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			edges = append(edges, [2]int{i, j}, [2]int{k + i, k + j})
		}
	}
	edges = append(edges, [2]int{0, k})
	g, _ := staticgraph.FromEdges(2*k, edges)
	p := Estimate(g, rng.New(2), Config{})
	min, w := p.Min()
	if min > 1.0/float64(k)+1e-9 {
		t.Fatalf("estimate min = %v (witness %+v), want <= 1/%d", min, w, k)
	}
}

func TestEstimateRegenModelShape(t *testing.T) {
	// Theorem 3.15 shape: SDGR with d >= 14 has no witness below 0.1
	// anywhere (we check no witness below 0.1 is *found*).
	m := core.NewStreaming(600, 14, true, rng.New(3))
	m.WarmUp()
	p := Estimate(m.Graph(), rng.New(4), Config{})
	min, w := p.Min()
	if min < 0.1 {
		t.Fatalf("SDGR witness below 0.1: %+v", w)
	}
}

func TestEstimateNoRegenShape(t *testing.T) {
	// Lemma 3.5 + 3.6 shape for SDG with small d: zero-expansion
	// singletons exist, yet large sets (>= n·e^{-d/10}) still expand.
	m := core.NewStreaming(2000, 3, false, rng.New(5))
	m.WarmUp()
	p := Estimate(m.Graph(), rng.New(6), Config{})
	min, _ := p.MinInRange(1, 1)
	if min != 0 {
		t.Fatalf("no isolated singleton found in SDG d=3 (min=%v)", min)
	}
}

func TestProfileMinInRange(t *testing.T) {
	p := &Profile{N: 100, BestBySize: map[int]Witness{
		1:  {Size: 1, Boundary: 0, Ratio: 0},
		10: {Size: 10, Boundary: 5, Ratio: 0.5},
		50: {Size: 50, Boundary: 10, Ratio: 0.2},
	}}
	if min, _ := p.Min(); min != 0 {
		t.Fatalf("Min = %v", min)
	}
	if min, w := p.MinInRange(5, 50); min != 0.2 || w.Size != 50 {
		t.Fatalf("MinInRange = %v, %+v", min, w)
	}
	if min, _ := p.MinInRange(60, 90); !math.IsInf(min, 1) {
		t.Fatalf("empty range min = %v", min)
	}
}

func TestEstimateEmptyGraph(t *testing.T) {
	g := graph.New(0, 0)
	p := Estimate(g, rng.New(7), Config{})
	if len(p.BestBySize) != 0 {
		t.Fatal("empty graph must yield empty profile")
	}
	if min, _ := p.Min(); !math.IsInf(min, 1) {
		t.Fatalf("empty profile min = %v", min)
	}
}

func TestSizeLadder(t *testing.T) {
	l := sizeLadder(100)
	if len(l) == 0 || l[len(l)-1] != 50 {
		t.Fatalf("ladder %v must end at n/2", l)
	}
	for i := 1; i < len(l); i++ {
		if l[i] <= l[i-1] {
			t.Fatalf("ladder not increasing: %v", l)
		}
	}
	if got := sizeLadder(3); len(got) != 0 {
		t.Fatalf("tiny ladder %v", got)
	}
	if got := sizeLadder(4); len(got) != 1 || got[0] != 2 {
		t.Fatalf("ladder(4) = %v", got)
	}
}

func TestGreedyGrowStopsAtComponent(t *testing.T) {
	// Greedy growth from an isolated node must terminate immediately with
	// a ratio-0 record and not spin.
	g, hs := staticgraph.Disconnected(1, 5)
	records := map[int]int{}
	greedyGrow(g, hs[0], 3, rng.New(1), func(size, boundary int) { records[size] = boundary })
	if b, ok := records[1]; !ok || b != 0 {
		t.Fatalf("records = %v", records)
	}
}

func TestExactWitnessStability(t *testing.T) {
	// Exact on a 2-clique pair must return one whole clique (ratio 0 is
	// impossible here: choose the correct min).
	var edges [][2]int
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, [2]int{i, j}, [2]int{4 + i, 4 + j})
		}
	}
	edges = append(edges, [2]int{0, 4})
	g, _ := staticgraph.FromEdges(8, edges)
	min, w := Exact(g)
	if math.Abs(min-0.25) > 1e-12 {
		t.Fatalf("barbell exact = %v", min)
	}
	if len(w) != 4 {
		t.Fatalf("witness size %d", len(w))
	}
}

func BenchmarkEstimateSDGR(b *testing.B) {
	m := core.NewStreaming(1000, 14, true, rng.New(1))
	m.WarmUp()
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Estimate(m.Graph(), r, Config{})
	}
}

// BenchmarkGreedyGrow times greedy growth on a stationary SDGR snapshot
// at n = 10⁵, d = 21, where the boundary outgrows greedyCandidateCap in
// the first step: a step then walks a fixed number of neighborhoods, so
// ns/step stays flat as the grown size rises 64-fold.
func BenchmarkGreedyGrow(b *testing.B) {
	g := core.SampleStationary(core.SDGR, 100_000, 21, rng.New(1)).Graph()
	seed := g.AliveHandles()[0]
	for _, size := range []int{256, 2048, 16384} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			r := rng.New(2)
			for i := 0; i < b.N; i++ {
				greedyGrow(g, seed, size, r, func(int, int) {})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/step")
		})
	}
}

func BenchmarkExact16(b *testing.B) {
	g, _ := staticgraph.DOut(16, 3, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Exact(g)
	}
}
