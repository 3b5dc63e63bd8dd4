package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/expansion"
	"github.com/dyngraph/churnnet/internal/flood"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

// warmModel builds a small warmed model of the given kind; identical
// arguments give identical models.
func warmModel(kind core.Kind, seed uint64) core.Model {
	m := core.New(kind, 300, 6, rng.New(seed))
	core.WarmUp(m)
	return m
}

// source returns an alive node to flood from: the newest birth, or the
// newest alive node when churn already removed it.
func source(m core.Model) graph.Handle {
	if h := m.LastBorn(); m.Graph().IsAlive(h) {
		return h
	}
	return m.Graph().Newest()
}

// TestTimedModelHooksUnwrapped pins that the wrapper hands back the hooks
// it was given: after flood.Run, a Traffic plane and a Tracker have each
// saved, chained and restored them, the caller's own hooks are installed
// again and every event is wrapped exactly once.
func TestTimedModelHooksUnwrapped(t *testing.T) {
	tr := newTracer()
	m := newTimedModel(warmModel(core.SDGR, 1), tr)
	var edges int64
	mine := core.Hooks{OnEdge: func(u, v graph.Handle) { edges++ }}
	m.SetHooks(mine)

	flood.Run(m, flood.Options{Source: source(m)})
	plane := flood.NewTraffic(m, flood.TrafficOptions{})
	plane.Inject(source(m))
	plane.Step()
	plane.Close()
	tk := expansion.NewTracker(m, rng.New(2), expansion.TrackerConfig{})
	m.AdvanceRound()
	tk.Close()

	got := m.Hooks()
	if reflect.ValueOf(got.OnEdge).Pointer() != reflect.ValueOf(mine.OnEdge).Pointer() || got.OnDeath != nil || got.OnBirth != nil {
		t.Fatalf("Hooks() after save/chain/restore is not the caller's set: %+v", got)
	}
	before := edges
	tr.edges = 0
	for i := 0; i < 5; i++ {
		m.AdvanceRound()
	}
	if edges-before != tr.edges || tr.edges == 0 {
		t.Fatalf("caller saw %d edge events, wrapper counted %d: an event was wrapped more than once or lost", edges-before, tr.edges)
	}
}

// TestTimedModelResultsIdentical pins that tracing changes no result:
// flood Results, per-message traffic Results and tracker Observations are
// bit-for-bit the same with and without the wrapper on all four models.
func TestTimedModelResultsIdentical(t *testing.T) {
	for _, kind := range core.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			run := func(wrap bool) (flood.Result, []flood.Result, []expansion.Observation) {
				model := func() core.Model {
					m := warmModel(kind, 7)
					if wrap {
						return newTimedModel(m, newTracer())
					}
					return m
				}
				m := model()
				res := flood.Run(m, flood.Options{Source: source(m), Parallelism: 2})

				m = model()
				plane := flood.NewTraffic(m, flood.TrafficOptions{Parallelism: 2})
				alive := m.Graph().AliveHandles()
				ids := []flood.MessageID{plane.Inject(alive[0]), plane.Inject(alive[len(alive)/2])}
				for plane.Live() > 0 {
					plane.Step()
				}
				var msgs []flood.Result
				for _, id := range ids {
					msgs = append(msgs, plane.Result(id))
				}
				plane.Close()

				m = model()
				tk := expansion.NewTracker(m, rng.New(8), expansion.TrackerConfig{ReseedEvery: 3, Parallelism: 2})
				var obs []expansion.Observation
				for i := 0; i < 7; i++ {
					m.AdvanceRound()
					obs = append(obs, tk.Observe())
				}
				tk.Close()
				return res, msgs, obs
			}
			r0, m0, o0 := run(false)
			r1, m1, o1 := run(true)
			if !reflect.DeepEqual(r0, r1) {
				t.Errorf("flood.Run: %+v unwrapped, %+v wrapped", r0, r1)
			}
			if !reflect.DeepEqual(m0, m1) {
				t.Errorf("traffic Results: %+v unwrapped, %+v wrapped", m0, m1)
			}
			if !reflect.DeepEqual(o0, o1) {
				t.Errorf("tracker Observations differ with the wrapper")
			}
		})
	}
}

// TestTimedModelEventLedger pins the wrapper's event counts against the
// graph: an observer installed through the wrapper keeps a live-edge
// ledger from OnEdge and OnDeath alone, which must match NumEdgesLive, and
// the wrapper must count the same events the observer saw.
func TestTimedModelEventLedger(t *testing.T) {
	for _, kind := range core.Kinds() {
		tr := newTracer()
		m := newTimedModel(warmModel(kind, 11), tr)
		g := m.Graph()
		edges := g.NumEdgesLive()
		var births, deaths, onEdge int64
		m.SetHooks(core.Hooks{
			OnBirth: func(graph.Handle) { births++ },
			OnDeath: func(h graph.Handle) { deaths++; edges -= g.DegreeLive(h) },
			OnEdge:  func(u, v graph.Handle) { onEdge++; edges++ },
		})
		for round := 0; round < 30; round++ {
			m.AdvanceRound()
			if edges != g.NumEdgesLive() {
				t.Fatalf("%v round %d: ledger %d edges, graph %d", kind, round, edges, g.NumEdgesLive())
			}
		}
		if tr.births != births || tr.deaths != deaths || tr.edges != onEdge || deaths == 0 {
			t.Fatalf("%v: wrapper counted %d/%d/%d births/deaths/edges, observer saw %d/%d/%d",
				kind, tr.births, tr.deaths, tr.edges, births, deaths, onEdge)
		}
		var hooks int64
		for _, s := range tr.snapshot() {
			hooks += s.Hooks
		}
		if hooks != births+deaths+onEdge {
			t.Fatalf("%v: %d hook callbacks charged to spans, want %d", kind, hooks, births+deaths+onEdge)
		}
	}
}

// TestSelfTimeUnion pins self time under overlapping children: the two
// concurrent children cover [10, 90] together, so the parent's self time
// is 20, not the 0 that subtracting their summed durations would give.
func TestSelfTimeUnion(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 60},
		{Name: "b", Parent: 0, Start: 40, End: 90, Hooks: 2, HookNs: 5},
		{Name: "c", Parent: 1, Start: 20, End: 30},
	}
	got := selfTimes(spans)
	if want := []int64{20, 40, 45, 10}; !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

// TestTimedHandlerLinksSpans pins the request-id link: a request carrying
// a client span's id gets a handler span parented to it, named by method,
// and a request without one is served untraced.
func TestTimedHandlerLinksSpans(t *testing.T) {
	tr := newTracer()
	srv := httptest.NewServer(tr.timedHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})))
	defer srv.Close()

	client := tr.start("http.write", -1)
	req, err := http.NewRequest(http.MethodPost, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(requestIDHeader, fmt.Sprint(client))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tr.finish(client)
	resp, err = srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want the client span and one handler span: %+v", len(spans), spans)
	}
	h := spans[1]
	if h.Name != "serve.write" || h.Parent != client || h.Start < spans[client].Start || h.End > spans[client].End {
		t.Fatalf("handler span %+v is not linked inside client span %+v", h, spans[client])
	}
}
