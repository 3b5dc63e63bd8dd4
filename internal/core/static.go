package core

import "github.com/dyngraph/churnnet/internal/graph"

// Static is the churn-free Kind used by the baseline model: the graph never
// changes. It is not part of Kinds().
const Static Kind = 5

// Overlay is the Kind reported by the address-gossip overlay of package
// overlay (the Bitcoin-style protocol of Section 1.1). Not part of Kinds().
const Overlay Kind = 6

// Live is the Kind reported by externally driven models: no autonomous
// churn — every join, leave and crash is commanded by a caller (the
// control-plane daemon of internal/serve). Not part of Kinds().
const Live Kind = 7

// StaticModel wraps a fixed graph as a Model with no churn: AdvanceRound
// only advances the clock. It is the substrate for the paper's static
// d-out baseline (Lemma B.1) and for unit-testing processes against known
// topologies.
type StaticModel struct {
	g     *graph.Graph
	n, d  int
	now   float64
	hooks Hooks
}

// NewStaticModel wraps g; n and d are reported as the model parameters.
func NewStaticModel(g *graph.Graph, d int) *StaticModel {
	return &StaticModel{g: g, n: g.NumAlive(), d: d}
}

// Kind implements Model.
func (m *StaticModel) Kind() Kind { return Static }

// Graph implements Model.
func (m *StaticModel) Graph() *graph.Graph { return m.g }

// N implements Model.
func (m *StaticModel) N() int { return m.n }

// D implements Model.
func (m *StaticModel) D() int { return m.d }

// AdvanceRound implements Model; only time passes.
func (m *StaticModel) AdvanceRound() { m.now++ }

// Now implements Model.
func (m *StaticModel) Now() float64 { return m.now }

// LastBorn implements Model; it is the newest node of the wrapped graph.
func (m *StaticModel) LastBorn() graph.Handle { return m.g.Newest() }

// SetHooks implements Model. A static model stores the callbacks so that
// Hooks reads them back, but never fires them: its edge set never changes,
// so the edge-event contract holds vacuously.
func (m *StaticModel) SetHooks(h Hooks) { m.hooks = h }

// Hooks implements Model.
func (m *StaticModel) Hooks() Hooks { return m.hooks }
