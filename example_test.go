package churnnet_test

import (
	"fmt"
	"math"

	churnnet "github.com/dyngraph/churnnet"
)

// The quickstart: build a warmed Poisson network with edge regeneration
// and broadcast from its newest node.
func ExampleFlood() {
	m := churnnet.NewWarmModel(churnnet.PDGR, 2000, 35, 1)
	res := churnnet.Flood(m, churnnet.FloodOptions{})
	fmt.Println("completed:", res.Completed)
	// Output: completed: true
}

// Static baseline of Lemma B.1: every node makes d uniform requests.
func ExampleNewDOutGraph() {
	g, hs := churnnet.NewDOutGraph(1000, 3, 7)
	fmt.Println("nodes:", g.NumAlive(), "edges:", g.NumEdgesLive())
	res := churnnet.Flood(churnnet.NewStaticModel(g, 3), churnnet.FloodOptions{Source: hs[0]})
	fmt.Println("completed:", res.Completed)
	// Output:
	// nodes: 1000 edges: 3000
	// completed: true
}

// Isolated nodes appear in the models without edge regeneration
// (Lemma 3.5) and vanish with regeneration.
func ExampleIsolatedFraction() {
	noRegen := churnnet.NewWarmModel(churnnet.SDG, 2000, 2, 1)
	regen := churnnet.NewWarmModel(churnnet.SDGR, 2000, 2, 1)
	fmt.Println("SDG has isolated nodes:", churnnet.IsolatedFraction(noRegen.Graph()) > 0)
	fmt.Println("SDGR has isolated nodes:", churnnet.IsolatedFraction(regen.Graph()) > 0)
	// Output:
	// SDG has isolated nodes: true
	// SDGR has isolated nodes: false
}

// The incremental expansion tracker rides the churn event stream and keeps
// its witness sets current, so observing every round costs O(events)
// instead of a fresh search: regeneration keeps every snapshot expanding
// (Theorem 3.15), while without it the tracker keeps finding sets with no
// outgoing edge at all (Lemma 3.5).
func ExampleTrackExpansion() {
	regen := churnnet.NewWarmModel(churnnet.SDGR, 1000, 20, 5)
	plain := churnnet.NewWarmModel(churnnet.SDG, 1000, 3, 5)
	trRegen := churnnet.TrackExpansion(regen, 6, churnnet.ExpansionTrackerConfig{ReseedEvery: 10})
	defer trRegen.Close()
	trPlain := churnnet.TrackExpansion(plain, 7, churnnet.ExpansionTrackerConfig{ReseedEvery: 10})
	defer trPlain.Close()

	regenMin, plainMin := math.Inf(1), math.Inf(1)
	for round := 1; round <= 30; round++ {
		regen.AdvanceRound()
		plain.AdvanceRound()
		regenMin = math.Min(regenMin, trRegen.Observe().Min)
		plainMin = math.Min(plainMin, trPlain.Observe().Min)
	}
	fmt.Println("SDGR d=20 expands every round:", regenMin >= 0.1)
	fmt.Println("SDG d=3 has a zero-expansion witness:", plainMin == 0)
	// Output:
	// SDGR d=20 expands every round: true
	// SDG d=3 has a zero-expansion witness: true
}

// Two broadcasts share one churn stream on a traffic plane: the second is
// injected three rounds after the first, and each finishes on its own
// terms with the Result a separate Flood from the same state would give.
func ExampleNewTraffic() {
	m := churnnet.NewWarmModel(churnnet.PDGR, 2000, 35, 1)
	tr := churnnet.NewTraffic(m, churnnet.TrafficOptions{})
	defer tr.Close()

	first := tr.Inject(churnnet.Handle{}) // Nil: the newest node
	for i := 0; i < 3; i++ {
		tr.Step()
	}
	second := tr.Inject(churnnet.Handle{})
	for tr.Live() > 0 {
		tr.Step()
	}
	for _, id := range []churnnet.MessageID{first, second} {
		res := tr.Result(id)
		fmt.Printf("message %d: %v, completed: %v\n", id, tr.Status(id), res.Completed)
	}
	// Output:
	// message 0: done, completed: true
	// message 1: done, completed: true
}
