// Package serve turns the simulator into a service: a live control-plane
// daemon hosting one externally driven churn model of up to 10⁶ simulated
// nodes behind the deterministic event loop, with an HTTP/JSON control
// plane (join/leave/crash/inject/query) and a UDP fast path for
// single-node informed/alive probes.
//
// The concurrency boundary is the heart of the package: request
// goroutines never touch the model. Mutations are enqueued onto a
// single-writer command queue drained between rounds — so the model, the
// traffic plane and the expansion tracker see exactly the serial event
// stream their determinism contracts require — while reads are served
// from versioned copy-on-publish snapshots. Bounded queues surface
// overload as 429/503 instead of latency collapse. See DESIGN.md,
// "Serving live traffic".
package serve

import (
	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

// LiveModel is an externally driven churn model: it keeps the paper's
// edge dynamics — joins make d uniform requests (rule 1), graceful leaves
// regenerate the orphaned requests of survivors (rule 3), crashes do not
// — but births and deaths happen only when commanded, never
// autonomously. AdvanceRound advances the clock one transmission unit
// without churn.
//
// It implements core.Model and keeps its edge-event contract: every
// placed or re-pointed edge fires OnEdge and every departure fires
// OnDeath before the node is removed, exactly like the built-in models,
// so the flooding engines and the expansion tracker ride it unchanged. All mutating methods must be called from a
// single goroutine (the server's writer loop).
type LiveModel struct {
	kind core.Kind // seed-snapshot kind, for reporting; Kind() is Live
	n, d int
	g    *graph.Graph

	time  float64
	round int
	last  graph.Handle
	hooks core.Hooks
	buf   []graph.InEdge
	draw  core.Draw
}

// NewLiveModel builds a live model seeded with a stationary snapshot of
// the given paper model (kind SDG/SDGR/PDG/PDGR, sampled via
// core.SampleStationaryPar with `workers` fill shards) — or empty when
// n == 0. The seed fixes both the initial snapshot and every subsequent
// commanded draw, so an identical command sequence reproduces the served
// network bit for bit.
func NewLiveModel(kind core.Kind, n, d int, seed uint64, workers int) *LiveModel {
	r := rng.New(seed)
	m := &LiveModel{kind: kind, n: n, d: d}
	if n > 0 {
		seeded := core.SampleStationaryPar(kind, n, d, r.Split(), workers)
		m.g = seeded.Graph()
		m.time = seeded.Now()
		m.last = seeded.LastBorn()
	} else {
		m.g = graph.New(0, d)
	}
	m.draw = core.UniformDraw(m.g, r)
	return m
}

// Kind identifies the model as externally driven.
func (m *LiveModel) Kind() core.Kind { return core.Live }

// SeedKind returns the paper model the initial snapshot was sampled from.
func (m *LiveModel) SeedKind() core.Kind { return m.kind }

// Graph exposes the current snapshot; callers must not mutate it.
func (m *LiveModel) Graph() *graph.Graph { return m.g }

// N returns the nominal size parameter (the seeded population).
func (m *LiveModel) N() int { return m.n }

// D returns the out-degree parameter.
func (m *LiveModel) D() int { return m.d }

// Now returns elapsed model time in transmission units.
func (m *LiveModel) Now() float64 { return m.time }

// Round returns the number of AdvanceRound calls.
func (m *LiveModel) Round() int { return m.round }

// LastBorn returns the most recently joined node, or Nil.
func (m *LiveModel) LastBorn() graph.Handle { return m.last }

// SetHooks installs event callbacks (replacing any previous ones).
func (m *LiveModel) SetHooks(h core.Hooks) { m.hooks = h }

// Hooks returns the currently installed callbacks.
func (m *LiveModel) Hooks() core.Hooks { return m.hooks }

// AdvanceRound advances the clock one transmission unit. No churn: the
// network between commands is frozen.
func (m *LiveModel) AdvanceRound() {
	m.round++
	m.time++
}

// Join births a node that makes d uniform requests (rule 1) and returns
// its handle.
func (m *LiveModel) Join() graph.Handle {
	h := m.g.AddNode(m.time)
	m.last = h
	core.MakeRequests(m.g, h, m.d, m.draw, m.hooks.OnEdge)
	if m.hooks.OnBirth != nil {
		m.hooks.OnBirth(h)
	}
	return h
}

// Leave removes h gracefully: survivors whose requests pointed at it
// redial uniformly at random (rule 3, the regenerating models'
// departure). It panics if h is not alive — the server validates before
// commanding.
func (m *LiveModel) Leave(h graph.Handle) {
	m.depart(h, true)
}

// Crash removes h abruptly: orphaned requests of survivors dangle, as in
// the no-regeneration models. It panics if h is not alive.
func (m *LiveModel) Crash(h graph.Handle) {
	m.depart(h, false)
}

func (m *LiveModel) depart(h graph.Handle, regen bool) {
	if m.hooks.OnDeath != nil {
		m.hooks.OnDeath(h)
	}
	m.buf = m.g.RemoveNode(h, m.buf[:0])
	if regen {
		core.Regenerate(m.g, m.buf, m.draw, m.hooks.OnEdge)
	}
}
