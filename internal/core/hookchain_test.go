package core

import (
	"fmt"
	"testing"

	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

// Hook-contract regression tests: every edge-set change of every model
// must be observable through the OnEdge/OnDeath stream (Model's edge-event
// contract, which both the flooding engine and the expansion tracker
// ride), and ChainHooks must let any number of observers share that
// stream without dropping events.

// TestChainHooksComposition pins ChainHooks semantics: nil slots pass the
// other side through, both callbacks fire, and first's runs before next's.
func TestChainHooksComposition(t *testing.T) {
	var order []string
	mk := func(tag string) Hooks {
		return Hooks{
			OnBirth: func(graph.Handle) { order = append(order, tag+"-birth") },
			OnDeath: func(graph.Handle) { order = append(order, tag+"-death") },
			OnEdge:  func(u, v graph.Handle) { order = append(order, tag+"-edge") },
		}
	}
	h := ChainHooks(mk("a"), ChainHooks(mk("b"), mk("c")))
	h.OnBirth(graph.Handle{})
	h.OnEdge(graph.Handle{}, graph.Handle{})
	h.OnDeath(graph.Handle{})
	want := []string{"a-birth", "b-birth", "c-birth", "a-edge", "b-edge", "c-edge", "a-death", "b-death", "c-death"}
	if len(order) != len(want) {
		t.Fatalf("chain fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("chain fired %v, want %v", order, want)
		}
	}

	// Nil slots must not install wrappers around nothing.
	h = ChainHooks(Hooks{}, Hooks{})
	if h.OnBirth != nil || h.OnDeath != nil || h.OnEdge != nil {
		t.Fatal("chaining empty hooks must stay empty")
	}
	births := 0
	h = ChainHooks(Hooks{OnBirth: func(graph.Handle) { births++ }}, Hooks{})
	if h.OnDeath != nil || h.OnEdge != nil {
		t.Fatal("nil slots leaked wrappers")
	}
	h.OnBirth(graph.Handle{})
	if births != 1 {
		t.Fatal("single-sided chain dropped the callback")
	}
}

// edgeLedger audits the event stream against the graph: it maintains the
// live-edge count from OnEdge/OnDeath alone, which balances with
// NumEdgesLive only if every emission path fires exactly once per edge
// change — birth requests (MakeRequests), regeneration (Regenerate), and
// rule-2 removals implied by deaths.
type edgeLedger struct {
	g      *graph.Graph
	edges  int
	births int
	deaths int
	onEdge int
}

func (l *edgeLedger) hooks() Hooks {
	return Hooks{
		OnBirth: func(graph.Handle) { l.births++ },
		OnDeath: func(h graph.Handle) {
			l.deaths++
			// The hook fires pre-removal: the dying node's live degree is
			// exactly the number of edges rule 2 is about to erase.
			l.edges -= l.g.DegreeLive(h)
		},
		OnEdge: func(u, v graph.Handle) {
			if !l.g.IsAlive(u) || !l.g.IsAlive(v) {
				panic("OnEdge fired with a dead endpoint")
			}
			l.onEdge++
			l.edges++
		},
	}
}

func (l *edgeLedger) check(t *testing.T, tag string, round int) {
	t.Helper()
	if got := l.g.NumEdgesLive(); got != l.edges {
		t.Fatalf("%s round %d: event-ledger edge count %d, graph has %d (births %d, deaths %d, onEdge %d)",
			tag, round, l.edges, got, l.births, l.deaths, l.onEdge)
	}
}

// TestEdgeEventLedgerAllModels balances the event ledger on every model
// kind and on the bounded-degree Poisson variants, so each emission path
// — MakeRequests and Regenerate, under the uniform draw and under the
// policy draws — is pinned to fire exactly once per edge change. Each kind also
// runs from a sampled stationary start (no warm-up) at one and two
// sampling workers: the benchmark workloads start there, and the sampled
// graph must leave the models' bookkeeping in a state whose later churn
// still fires every event.
func TestEdgeEventLedgerAllModels(t *testing.T) {
	type model struct {
		tag string
		mk  func() Model
	}
	build := []model{
		{"SDG", func() Model { return New(SDG, 120, 5, rng.New(1)) }},
		{"SDGR", func() Model { return New(SDGR, 120, 5, rng.New(2)) }},
		{"PDG", func() Model { return New(PDG, 120, 5, rng.New(3)) }},
		{"PDGR", func() Model { return New(PDGR, 120, 5, rng.New(4)) }},
		{"PDGR-incap", func() Model { return NewPoissonVariant(120, 5, true, DegreePolicy{InCap: 10}, rng.New(5)) }},
		{"PDGR-choices", func() Model { return NewPoissonVariant(120, 5, true, DegreePolicy{Choices: 2}, rng.New(6)) }},
	}
	warm := len(build)
	for i, kind := range Kinds() {
		for _, w := range []int{1, 2} {
			kind, w, seed := kind, w, uint64(10+2*i+w)
			build = append(build, model{fmt.Sprintf("%v-sampled-w%d", kind, w), func() Model {
				return SampleStationaryPar(kind, 120, 5, rng.New(seed), w)
			}})
		}
	}
	for i, c := range build {
		c, sampled := c, i >= warm
		t.Run(c.tag, func(t *testing.T) {
			t.Parallel()
			m := c.mk()
			if !sampled {
				WarmUp(m)
			}
			led := &edgeLedger{g: m.Graph(), edges: m.Graph().NumEdgesLive()}
			m.SetHooks(led.hooks())
			for round := 1; round <= 40; round++ {
				m.AdvanceRound()
				led.check(t, c.tag, round)
			}
			if led.onEdge == 0 || led.deaths == 0 {
				t.Fatalf("%s: stream too quiet to be a regression test (onEdge %d, deaths %d)",
					c.tag, led.onEdge, led.deaths)
			}
			if m.Kind().Regen() && led.onEdge <= led.births*m.D() {
				t.Fatalf("%s: no regeneration edges observed (onEdge %d, births %d × d %d)",
					c.tag, led.onEdge, led.births, m.D())
			}
		})
	}
}

// TestChainedObserversSeeIdenticalStreams chains two independent counting
// observers through ChainHooks and checks that neither shadows the other
// — the multi-subscriber property the flooding engine and the expansion
// tracker rely on when they share one model.
func TestChainedObserversSeeIdenticalStreams(t *testing.T) {
	type counts struct{ births, deaths, edges int }
	count := func(c *counts) Hooks {
		return Hooks{
			OnBirth: func(graph.Handle) { c.births++ },
			OnDeath: func(graph.Handle) { c.deaths++ },
			OnEdge:  func(u, v graph.Handle) { c.edges++ },
		}
	}
	m := New(PDGR, 150, 6, rng.New(7))
	WarmUp(m)
	var inner, outer counts
	m.SetHooks(count(&inner))
	m.SetHooks(ChainHooks(count(&outer), m.Hooks()))
	for i := 0; i < 30; i++ {
		m.AdvanceRound()
	}
	if inner != outer {
		t.Fatalf("chained observers diverged: inner %+v, outer %+v", inner, outer)
	}
	if inner.edges == 0 || inner.deaths == 0 {
		t.Fatalf("stream too quiet: %+v", inner)
	}
}
