// Package core is hookfire testdata: adjacency mutations above the hook
// plane must be post-dominated by an OnEdge fire.
package core

import "churnvettest/internal/graph"

type Hooks struct {
	OnEdge func(u, v int)
}

type Model struct {
	g     *graph.Graph
	hooks Hooks
}

// goodGuarded uses the conventional nil-guarded direct fire.
func (m *Model) goodGuarded(u, v int) {
	m.g.AddOutEdge(u, v)
	if m.hooks.OnEdge != nil {
		m.hooks.OnEdge(u, v)
	}
}

// bad mutates and returns without any fire.
func (m *Model) bad(u, v int) {
	m.g.AddOutEdge(u, v) // want `graph\.AddOutEdge is not followed by an OnEdge hook fire on every path`
}

// leakyBranch fires on the fallthrough path but leaks through the early
// return: some path reaches the exit unhooked.
func (m *Model) leakyBranch(u, v int, drop bool) {
	m.g.RedirectOutEdge(u, 0, v) // want `graph\.RedirectOutEdge is not followed by an OnEdge hook fire on every path`
	if drop {
		return
	}
	if m.hooks.OnEdge != nil {
		m.hooks.OnEdge(u, v)
	}
}

// hookedBranches fires on every branch before returning: accepted.
func (m *Model) hookedBranches(u, v int, fast bool) {
	m.g.AddOutEdge(u, v)
	if fast {
		m.hooks.OnEdge(u, v)
		return
	}
	fireEdgeHooks(m.hooks.OnEdge, u, v)
}

// fireEdgeHooks is the replay-helper idiom: passing the hook along counts
// as a fire at the call site.
func fireEdgeHooks(on func(u, v int), u, v int) {
	if on != nil {
		on(u, v)
	}
}

// forwarded hands the hook to the helper.
func (m *Model) forwarded(u, v int) {
	m.g.AddOutEdge(u, v)
	fireEdgeHooks(m.hooks.OnEdge, u, v)
}

// exempt documents a deliberate silent mutation.
//
//churnvet:hookexempt rebuild path replays the full edge set through hooks afterwards
func (m *Model) exempt(u, v int) {
	m.g.AddOutEdge(u, v)
}

// wireBad bulk-fills without replaying hooks.
func (m *Model) wireBad(s *graph.Snapshot) {
	graph.WireSnapshotEdges(m.g, s) // want `graph\.WireSnapshotEdges is not followed by an OnEdge hook fire on every path`
}

// wireGood bulk-fills then replays unconditionally. (A replay wrapped in a
// `for` loop would NOT count: the zero-iteration path skips the fire.)
func (m *Model) wireGood(s *graph.Snapshot) {
	graph.WireSnapshotEdges(m.g, s)
	replaySnapshot(m.hooks.OnEdge, s)
}

// wiringBad ends an incremental wiring without replaying hooks.
func (m *Model) wiringBad(w *graph.SnapshotWiring) {
	w.Wire() // want `graph\.Wire is not followed by an OnEdge hook fire on every path`
}

// wiringGood ends an incremental wiring, then replays unconditionally.
func (m *Model) wiringGood(w *graph.SnapshotWiring, s *graph.Snapshot) {
	w.Wire()
	replaySnapshot(m.hooks.OnEdge, s)
}

func replaySnapshot(on func(u, v int), s *graph.Snapshot) {
	if on == nil {
		return
	}
	for i := range s.Src {
		on(s.Src[i], s.Dst[i])
	}
}

// inLit checks that function literals get their own CFG: the goroutine
// body fires before returning, the outer function never mutates.
func (m *Model) inLit(u, v int) {
	done := make(chan struct{})
	go func() {
		m.g.AddOutEdge(u, v)
		if m.hooks.OnEdge != nil {
			m.hooks.OnEdge(u, v)
		}
		close(done)
	}()
	<-done
}

// inLitBad is the same shape without the fire.
func (m *Model) inLitBad(u, v int) {
	func() {
		m.g.AddOutEdge(u, v) // want `graph\.AddOutEdge is not followed by an OnEdge hook fire on every path`
	}()
}

// notAMutator: same method name on a non-graph type is ignored.
type fakeGraph struct{}

func (fakeGraph) AddOutEdge(u, v int) {}

func useFake(u, v int) {
	var f fakeGraph
	f.AddOutEdge(u, v)
}
