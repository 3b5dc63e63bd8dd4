// Package core implements the four dynamic random-graph models of the
// paper, composing the churn processes of package churn with the edge
// dynamics over the arena of package graph:
//
//   - SDG  — streaming churn, no edge regeneration (Definition 3.4)
//   - SDGR — streaming churn, with edge regeneration (Definition 3.13)
//   - PDG  — Poisson churn, no edge regeneration (Definition 4.9)
//   - PDGR — Poisson churn, with edge regeneration (Definition 4.14)
//
// Shared edge dynamics (the numbered rules of those definitions):
//
//  1. A node entering the network makes d independent connection requests,
//     each to a node chosen uniformly at random among the other nodes
//     currently in the network (the paper's 1/(n−1) destination law,
//     Lemma 3.14). Requests may repeat a destination: the graph is a
//     multigraph.
//  2. When a node dies, all its incident edges disappear.
//  3. (Regeneration models only.) When a node loses one of its d outgoing
//     edges because the destination died, it immediately replaces it with a
//     fresh request to a uniformly random other node.
//
// Both model families implement Model, whose AdvanceRound advances the
// network by exactly one message-transmission time unit — one round in the
// streaming model, one unit of continuous time in the Poisson model (the
// paper chooses units with λ = 1 so that both coincide, Section 1.1).
package core

import (
	"fmt"
	"math"

	"github.com/dyngraph/churnnet/internal/churn"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

// Kind enumerates the four models.
type Kind uint8

// The four dynamic-graph models of the paper.
const (
	SDG Kind = iota + 1
	SDGR
	PDG
	PDGR
)

// String returns the paper's acronym for the model.
func (k Kind) String() string {
	switch k {
	case SDG:
		return "SDG"
	case SDGR:
		return "SDGR"
	case PDG:
		return "PDG"
	case PDGR:
		return "PDGR"
	case Static:
		return "STATIC"
	case Overlay:
		return "OVERLAY"
	case Live:
		return "LIVE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Regen reports whether the model regenerates edges (rule 3).
func (k Kind) Regen() bool { return k == SDGR || k == PDGR }

// Poisson reports whether the model uses Poisson churn.
func (k Kind) Poisson() bool { return k == PDG || k == PDGR }

// Kinds lists all four models in the paper's presentation order.
func Kinds() []Kind { return []Kind{SDG, SDGR, PDG, PDGR} }

// Hooks receive model events; any field may be nil. OnBirth runs after the
// newborn has made its requests; OnDeath runs just before the node is
// removed, while its edges are still inspectable. OnEdge runs right after a
// request edge u→v is created or re-pointed (rule 1 and rule 3), with both
// endpoints alive — it lets observers such as the incremental flooding
// engine track edge-set changes without rescanning neighborhoods.
type Hooks struct {
	OnBirth func(h graph.Handle)
	OnDeath func(h graph.Handle)
	OnEdge  func(u, v graph.Handle)
}

// ChainHooks composes two observers' hooks into one: every event invokes
// first's callback and then next's. Hooks deliberately holds plain funcs —
// a model carries exactly one Hooks value — so an observer that wants to
// listen without evicting an earlier one must chain: save the model's
// current Hooks, install ChainHooks(mine, saved), and restore saved when
// done. Both the incremental flooding engine (flood.Run) and the expansion
// tracker (expansion.Tracker) follow that discipline, which is what lets
// them ride one model's event stream simultaneously without dropping
// events (pinned by the hook-contract tests in hookchain_test.go and the
// shared-chain test in internal/expansion). Observer lifetimes must nest:
// restoring a saved Hooks value unchains everything installed after it.
func ChainHooks(first, next Hooks) Hooks {
	return Hooks{
		OnBirth: chain1(first.OnBirth, next.OnBirth),
		OnDeath: chain1(first.OnDeath, next.OnDeath),
		OnEdge:  chain2(first.OnEdge, next.OnEdge),
	}
}

func chain1(a, b func(graph.Handle)) func(graph.Handle) {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(h graph.Handle) { a(h); b(h) }
}

func chain2(a, b func(u, v graph.Handle)) func(u, v graph.Handle) {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(u, v graph.Handle) { a(u, v); b(u, v) }
}

// EdgeEventSource is the former declaration of the edge-event contract,
// which every Model now keeps (see Model). No model in internal/
// implements it and nothing checks it. It is kept only because
// cmd/churnbench's timedModel still names it, and goes once that wrapper
// drops its EmitsEdgeEvents method.
type EdgeEventSource interface {
	// EmitsEdgeEvents reports whether Model's edge-event contract holds.
	EmitsEdgeEvents() bool
}

// Model is the dynamic network seen by flooding and measurement code.
//
// Every Model keeps the edge-event contract: its edge set changes only
// through events observable via Hooks. Every created or re-pointed edge
// fires Hooks.OnEdge (rules 1 and 3 in the paper models), and every
// removal is implied by an OnDeath (rule 2 is the only way an edge
// disappears). The incremental observers — flood's cut engine and
// expansion's Tracker — ride this stream instead of rescanning
// neighborhoods, so a model that mutates edges behind the hooks' back
// breaks them silently. churnvet's hookfire analyzer checks that every
// AddOutEdge/RedirectOutEdge is followed by an OnEdge fire, and the
// hook-ledger tests replay each model's stream against its graph.
type Model interface {
	// Kind identifies the model.
	Kind() Kind
	// Graph exposes the current snapshot; callers must not mutate it.
	Graph() *graph.Graph
	// N returns the size parameter (steady-state size in the streaming
	// model, expected size λ/µ in the Poisson model).
	N() int
	// D returns the out-degree parameter.
	D() int
	// AdvanceRound advances by one message-transmission time unit.
	AdvanceRound()
	// Now returns elapsed model time in those units.
	Now() float64
	// LastBorn returns the most recently born node (the paper's flooding
	// source: "I_t0 contains the node joining the network at round t0"),
	// or Nil before any birth.
	LastBorn() graph.Handle
	// SetHooks installs event callbacks (replacing any previous ones).
	SetHooks(Hooks)
	// Hooks returns the currently installed callbacks, so observers that
	// need the event stream temporarily (e.g. flood.Run) can chain and
	// later restore them instead of silently dropping a caller's hooks.
	Hooks() Hooks
}

// --- streaming models ---

// Streaming is the SDG/SDGR model: deterministic churn per Definition 3.2
// plus the shared edge dynamics.
type Streaming struct {
	kind  Kind
	n, d  int
	r     *rng.RNG
	g     *graph.Graph
	clock *churn.Streaming
	ring  []graph.Handle // ring[t mod n] = node born at round t
	last  graph.Handle
	hooks Hooks
	buf   []graph.InEdge
	draw  Draw
}

// NewStreaming builds an empty SDG (regen=false) or SDGR (regen=true) model
// with steady-state size n and out-degree d. It panics if n <= 0 or d < 0.
func NewStreaming(n, d int, regen bool, r *rng.RNG) *Streaming {
	if n <= 0 || d < 0 {
		panic("core: NewStreaming requires n > 0 and d >= 0")
	}
	kind := SDG
	if regen {
		kind = SDGR
	}
	g := graph.New(n+1, d)
	return &Streaming{
		kind:  kind,
		n:     n,
		d:     d,
		r:     r,
		g:     g,
		clock: churn.NewStreaming(n),
		ring:  make([]graph.Handle, n),
		draw:  UniformDraw(g, r),
	}
}

// Kind implements Model.
func (m *Streaming) Kind() Kind { return m.kind }

// Graph implements Model.
func (m *Streaming) Graph() *graph.Graph { return m.g }

// N implements Model.
func (m *Streaming) N() int { return m.n }

// D implements Model.
func (m *Streaming) D() int { return m.d }

// Now implements Model; streaming time is the round counter.
func (m *Streaming) Now() float64 { return float64(m.clock.Round()) }

// Round returns the current round t (number of Step calls).
func (m *Streaming) Round() int { return m.clock.Round() }

// LastBorn implements Model.
func (m *Streaming) LastBorn() graph.Handle { return m.last }

// SetHooks implements Model.
func (m *Streaming) SetHooks(h Hooks) { m.hooks = h }

// Hooks implements Model.
func (m *Streaming) Hooks() Hooks { return m.hooks }

// Step advances one round of Definition 3.2: the node born n rounds ago
// (if any) dies, then a new node is born and makes its d requests.
func (m *Streaming) Step() {
	dies := m.clock.Tick()
	t := m.clock.Round()
	slot := t % m.n
	if dies {
		m.die(m.ring[slot])
	}
	m.born(t, slot)
}

// AdvanceRound implements Model: one streaming round per time unit.
func (m *Streaming) AdvanceRound() { m.Step() }

// WarmUp runs 2n rounds so that the network is full (size exactly n) and
// every alive node was born into an already-full network, making the
// snapshot distribution representative of the paper's "fixed t > n".
func (m *Streaming) WarmUp() {
	for i := 0; i < 2*m.n; i++ {
		m.Step()
	}
}

func (m *Streaming) die(h graph.Handle) {
	if m.hooks.OnDeath != nil {
		m.hooks.OnDeath(h)
	}
	m.buf = m.g.RemoveNode(h, m.buf[:0])
	if m.kind.Regen() {
		Regenerate(m.g, m.buf, m.draw, m.hooks.OnEdge)
	}
}

func (m *Streaming) born(round, slot int) {
	h := m.g.AddNode(float64(round))
	m.ring[slot] = h
	m.last = h
	MakeRequests(m.g, h, m.d, m.draw, m.hooks.OnEdge)
	if m.hooks.OnBirth != nil {
		m.hooks.OnBirth(h)
	}
}

// --- Poisson models ---

// Poisson is the PDG/PDGR model: jump-chain churn per Definition 4.5 plus
// the shared edge dynamics. The paper's normalization λ = 1, µ = 1/n is
// built in.
type Poisson struct {
	kind   Kind
	n, d   int
	r      *rng.RNG
	g      *graph.Graph
	proc   churn.Poisson
	policy DegreePolicy
	time   float64
	round  int
	last   graph.Handle
	hooks  Hooks
	buf    []graph.InEdge
	draw   Draw // m.pickTarget, bound once

	// pending is the jump-chain event whose exponential wait overshot the
	// last AdvanceTime horizon: the residual wait and the already-sampled
	// kind are carried to the next call, so AdvanceTime(a); AdvanceTime(b)
	// consumes the RNG exactly like AdvanceTime(a+b) (chunking invariance).
	// Valid because no event is applied between sampling and consumption:
	// the population — and with it both the exponential rate and the
	// birth/death split — is unchanged, and the exponential residual keeps
	// the same law by memorylessness.
	pendingDt   float64
	pendingKind churn.EventKind
	hasPending  bool
}

// NewPoisson builds an empty PDG (regen=false) or PDGR (regen=true) model
// with expected size n and out-degree d. It panics if n <= 0 or d < 0.
func NewPoisson(n, d int, regen bool, r *rng.RNG) *Poisson {
	if n <= 0 || d < 0 {
		panic("core: NewPoisson requires n > 0 and d >= 0")
	}
	kind := PDG
	if regen {
		kind = PDGR
	}
	m := &Poisson{
		kind: kind,
		n:    n,
		d:    d,
		r:    r,
		g:    graph.New(n+n/2, d),
		proc: churn.NewPoisson(n),
	}
	m.draw = m.pickTarget
	return m
}

// Kind implements Model.
func (m *Poisson) Kind() Kind { return m.kind }

// Graph implements Model.
func (m *Poisson) Graph() *graph.Graph { return m.g }

// N implements Model.
func (m *Poisson) N() int { return m.n }

// D implements Model.
func (m *Poisson) D() int { return m.d }

// Now implements Model; Poisson time is continuous with λ = 1.
func (m *Poisson) Now() float64 { return m.time }

// Round returns the jump-chain round counter r of Definition 4.5.
func (m *Poisson) Round() int { return m.round }

// LastBorn implements Model.
func (m *Poisson) LastBorn() graph.Handle { return m.last }

// SetHooks implements Model.
func (m *Poisson) SetHooks(h Hooks) { m.hooks = h }

// Hooks implements Model.
func (m *Poisson) Hooks() Hooks { return m.hooks }

// next returns the pending carried event if one exists, otherwise samples a
// fresh jump-chain step.
func (m *Poisson) next() (dt float64, kind churn.EventKind) {
	if m.hasPending {
		m.hasPending = false
		return m.pendingDt, m.pendingKind
	}
	return m.proc.Next(m.r, m.g.NumAlive())
}

// StepEvent advances one jump-chain round and returns the event kind.
func (m *Poisson) StepEvent() churn.EventKind {
	dt, kind := m.next()
	m.time += dt
	m.round++
	m.apply(kind)
	return kind
}

// AdvanceRound implements Model: process every churn event in the next
// unit of continuous time.
func (m *Poisson) AdvanceRound() { m.AdvanceTime(1) }

// AdvanceTime runs the model forward by duration time units. The event
// whose wait overshoots the horizon is carried — residual wait and kind —
// to the next call, so trajectories do not depend on how the timeline is
// chunked into AdvanceTime calls.
func (m *Poisson) AdvanceTime(duration float64) {
	target := m.time + duration
	for {
		dt, kind := m.next()
		if m.time+dt > target {
			m.pendingDt = m.time + dt - target
			m.pendingKind = kind
			m.hasPending = true
			m.time = target
			return
		}
		m.time += dt
		m.round++
		m.apply(kind)
	}
}

// WarmUpRounds advances k jump-chain rounds.
func (m *Poisson) WarmUpRounds(k int) {
	for i := 0; i < k; i++ {
		m.StepEvent()
	}
}

// WarmUp advances the jump chain for 7·n·ln(n) rounds, the horizon after
// which the paper's Poisson-model statements hold (fixed r >= 7·n·log n in
// Lemmas 4.8, 4.10 and Theorems 4.16, 4.20).
func (m *Poisson) WarmUp() {
	m.WarmUpRounds(int(7 * float64(m.n) * math.Log(float64(m.n)+1)))
}

func (m *Poisson) apply(kind churn.EventKind) {
	if kind == churn.Birth {
		h := m.g.AddNode(m.time)
		m.last = h
		MakeRequests(m.g, h, m.d, m.draw, m.hooks.OnEdge)
		if m.hooks.OnBirth != nil {
			m.hooks.OnBirth(h)
		}
		return
	}
	victim := m.g.RandomAlive(m.r)
	if victim.IsNil() {
		return // cannot happen: death events need a non-empty population
	}
	if m.hooks.OnDeath != nil {
		m.hooks.OnDeath(victim)
	}
	m.buf = m.g.RemoveNode(victim, m.buf[:0])
	if m.kind.Regen() {
		Regenerate(m.g, m.buf, m.draw, m.hooks.OnEdge)
	}
}

// --- shared edge dynamics ---

// Draw picks the target of a request made by src, or returns Nil when no
// other node exists. Models bind theirs once, at construction.
type Draw func(src graph.Handle) graph.Handle

// UniformDraw is the paper's destination draw: uniform over the alive
// nodes of g other than the requester.
func UniformDraw(g *graph.Graph, r *rng.RNG) Draw {
	return func(src graph.Handle) graph.Handle { return g.RandomAliveExcept(r, src) }
}

// MakeRequests performs rule 1: d independent requests from h, each to the
// target draw picks, firing onEdge (if non-nil) per placed edge. In a
// network with no other node (only during bootstrap) requests cannot be
// placed and are skipped.
func MakeRequests(g *graph.Graph, h graph.Handle, d int, draw Draw, onEdge func(u, v graph.Handle)) {
	for i := 0; i < d; i++ {
		tgt := draw(h)
		if tgt.IsNil() {
			return
		}
		g.AddOutEdge(h, tgt)
		if onEdge != nil {
			onEdge(h, tgt)
		}
	}
}

// Regenerate performs rule 3 for every request orphaned by a death,
// re-pointing each to the target draw picks and firing onEdge (if non-nil)
// per re-pointed edge. A request is dropped only if no other node exists
// (bootstrap corner case).
func Regenerate(g *graph.Graph, orphans []graph.InEdge, draw Draw, onEdge func(u, v graph.Handle)) {
	for _, e := range orphans {
		tgt := draw(e.Src)
		if tgt.IsNil() {
			continue
		}
		g.RedirectOutEdge(e.Src, e.Slot, tgt)
		if onEdge != nil {
			onEdge(e.Src, tgt)
		}
	}
}

// New builds any of the four models from its Kind with a fresh graph.
func New(kind Kind, n, d int, r *rng.RNG) Model {
	switch kind {
	case SDG, SDGR:
		return NewStreaming(n, d, kind.Regen(), r)
	case PDG, PDGR:
		return NewPoisson(n, d, kind.Regen(), r)
	default:
		panic("core: unknown model kind")
	}
}

// WarmUpper is implemented by models that must simulate a transient before
// measurements are representative. The core models implement it (2n rounds
// for streaming, 7·n·ln n jump rounds for Poisson — the paper's horizons),
// and so does the address-gossip overlay.
type WarmUpper interface {
	// WarmUp advances the model to its measurement-ready state.
	WarmUp()
}

// WarmUp brings any model to its measurement-ready state via its WarmUpper
// implementation. Models without one — static wrappers, custom Model
// implementations whose initial state is already representative — are left
// untouched: WarmUp is deliberately a no-op for them, not a panic, so
// generic harness code can warm whatever Model it is handed.
func WarmUp(m Model) {
	if w, ok := m.(WarmUpper); ok {
		w.WarmUp()
	}
}
