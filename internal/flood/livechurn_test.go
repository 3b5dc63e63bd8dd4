package flood

import (
	"fmt"
	"math/bits"
	"testing"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

// churnTestModel is a command-driven churn model in the shape of a live
// server's: join (d uniform requests), leave (orphaned requests redial)
// and crash (orphaned requests dangle) may run at any time, not only
// inside AdvanceRound, and AdvanceRound runs a few of the same operations
// so churn also lands inside Steps. Every placed or redirected edge fires
// OnEdge and every departure fires OnDeath before the node is removed
// (core.Model's edge-event contract). The core models confine all churn to
// AdvanceRound; this one is how the tests reach the plane's
// between-Step contract.
type churnTestModel struct {
	g        *graph.Graph
	r        *rng.RNG
	n, d     int
	perRound int // operations inside each AdvanceRound
	round    int
	last     graph.Handle
	hooks    core.Hooks
	buf      []graph.InEdge
}

// newChurnTestModel grows n nodes by joins, each requesting d earlier
// nodes, with no hooks installed.
func newChurnTestModel(n, d, perRound int, seed uint64) *churnTestModel {
	m := &churnTestModel{g: graph.New(n, d), r: rng.New(seed), n: n, d: d, perRound: perRound}
	for i := 0; i < n; i++ {
		m.join()
	}
	return m
}

func (m *churnTestModel) Kind() core.Kind        { return core.Live }
func (m *churnTestModel) Graph() *graph.Graph    { return m.g }
func (m *churnTestModel) N() int                 { return m.n }
func (m *churnTestModel) D() int                 { return m.d }
func (m *churnTestModel) Now() float64           { return float64(m.round) }
func (m *churnTestModel) LastBorn() graph.Handle { return m.last }
func (m *churnTestModel) SetHooks(h core.Hooks)  { m.hooks = h }
func (m *churnTestModel) Hooks() core.Hooks      { return m.hooks }

func (m *churnTestModel) AdvanceRound() {
	m.round++
	m.churn(m.perRound)
}

// churn runs ops random operations: a join half the time (always while
// fewer than two nodes are alive), otherwise a leave or a crash of a
// uniformly random node.
func (m *churnTestModel) churn(ops int) {
	for i := 0; i < ops; i++ {
		if m.g.NumAlive() < 2 || m.r.Bool() {
			m.join()
		} else {
			m.depart(m.g.RandomAlive(m.r), m.r.Bool())
		}
	}
}

func (m *churnTestModel) join() graph.Handle {
	h := m.g.AddNode(float64(m.round))
	m.last = h
	for i := 0; i < m.d; i++ {
		tgt := m.g.RandomAliveExcept(m.r, h)
		if tgt.IsNil() {
			break
		}
		m.g.AddOutEdge(h, tgt)
		if m.hooks.OnEdge != nil {
			m.hooks.OnEdge(h, tgt)
		}
	}
	if m.hooks.OnBirth != nil {
		m.hooks.OnBirth(h)
	}
	return h
}

func (m *churnTestModel) depart(h graph.Handle, redial bool) {
	if m.hooks.OnDeath != nil {
		m.hooks.OnDeath(h)
	}
	m.buf = m.g.RemoveNode(h, m.buf[:0])
	if !redial {
		return
	}
	for _, e := range m.buf {
		tgt := m.g.RandomAliveExcept(m.r, e.Src)
		if tgt.IsNil() {
			continue
		}
		m.g.RedirectOutEdge(e.Src, e.Slot, tgt)
		if m.hooks.OnEdge != nil {
			m.hooks.OnEdge(e.Src, tgt)
		}
	}
}

// liveChurnConfig is one between-Step churn scenario; see
// checkBetweenStepChurn.
type liveChurnConfig struct {
	seed             uint64
	n, d             int
	messages         int
	mode             Mode
	par              int
	perRound, perGap int            // churn operations inside / between Steps
	dir              drainDirection // the plane's drain direction
}

func (c liveChurnConfig) String() string {
	return fmt.Sprintf("seed %d n=%d d=%d M=%d %v W=%d churn %d/%d %v",
		c.seed, c.n, c.d, c.messages, c.mode, c.par, c.perRound, c.perGap, c.dir)
}

// checkBetweenStepChurn drives a plane over a churnTestModel with churn,
// injections and retirements between Steps, and checks every Step against
// a reference kept here: at each freeze the plane's counts must equal the
// recomputed cut (checkFrozenCut), and the reference records each
// in-flight message's frozen (receiver, sender) pairs; after the Step a
// message must inform exactly its earlier informed set plus the frozen
// receivers that survived with a sender the mode accepts (any under
// Asynchronous, a surviving one under Discretized), among the alive
// nodes, and its EverInformed and FinalInformed must agree. After every
// Step and every operation between Steps, the chained incremental capture
// must answer like a fresh full one (checkViewChain). The plane's drains
// take c.dir, and under the rule no Inject into a network of two or more
// alive nodes pulls.
func checkBetweenStepChurn(t *testing.T, c liveChurnConfig) {
	t.Helper()
	m := newChurnTestModel(c.n, c.d, c.perRound, c.seed)
	g := m.g
	tr := NewTraffic(m, TrafficOptions{Mode: c.mode, MaxRounds: 12, Parallelism: c.par})
	defer tr.Close()
	var l drainLog
	l.attach(tr, c.dir)
	defer l.check(t, c.dir, c.String())
	drv := rng.New(c.seed ^ 0x9e3779b97f4a7c15)

	type pair struct{ recv, sender graph.Handle }
	ever := map[MessageID]map[graph.Handle]bool{}
	frozen := map[MessageID][]pair{}
	step := 0
	tr.onFreeze = func() {
		at := fmt.Sprintf("%v: step %d", c, step)
		checkFrozenCut(t, tr, at)
		for _, li := range tr.inFlight {
			id := tr.lanes[li].id
			var ps []pair
			for u := range ever[id] {
				if !g.IsAlive(u) {
					continue
				}
				g.Neighbors(u, func(x graph.Handle) bool {
					if !ever[id][x] {
						ps = append(ps, pair{x, u})
					}
					return true
				})
			}
			frozen[id] = ps
		}
	}

	var view *TrafficView
	captured := func(op string) {
		view = tr.CaptureView(view)
		checkViewChain(t, tr, view, fmt.Sprintf("%v: step %d: after %s", c, step, op))
	}

	injected := 0
	inject := func() {
		src := g.RandomAlive(drv)
		l.injecting = g.NumAlive() > 1 // a lone node's source drain may pull
		ever[tr.Inject(src)] = map[graph.Handle]bool{src: true}
		injected++
	}
	// Half the messages start as a burst, so more than 64 lanes are in
	// flight at once when M is large.
	for injected < c.messages/2 {
		inject()
	}
	for step = 0; step < 40; step++ {
		// Between Steps: churn, inject and retire in a random interleaving.
		for op := 0; op < c.perGap; op++ {
			switch {
			case injected < c.messages && drv.Intn(3) == 0:
				inject()
				captured("inject")
			case drv.Intn(8) == 0:
				for id := MessageID(0); int(id) < tr.Injected(); id++ {
					if tr.Status(id) == MessageDone {
						tr.Retire(id)
						delete(ever, id)
						break
					}
				}
				captured("retire")
			default:
				m.churn(1)
				captured("churn")
			}
		}
		if tr.Live() == 0 {
			if injected == c.messages {
				return
			}
			continue
		}
		for id := range frozen {
			delete(frozen, id)
		}
		tr.Step()
		captured("Step")
		for id, ps := range frozen {
			for _, p := range ps {
				if g.IsAlive(p.recv) && (c.mode == Asynchronous || g.IsAlive(p.sender)) {
					ever[id][p.recv] = true
				}
			}
			li := tr.msgs[id].laneIdx
			informedAlive := 0
			g.ForEachAlive(func(v graph.Handle) bool {
				if want := ever[id][v]; tr.informed.has(v, li) != want {
					t.Fatalf("%v: step %d: message %d informs %v = %v, reference %v", c, step, id, v, !want, want)
				}
				if ever[id][v] {
					informedAlive++
				}
				return true
			})
			res := tr.Result(id)
			if res.EverInformed != len(ever[id]) || res.FinalInformed != informedAlive {
				t.Fatalf("%v: step %d: message %d EverInformed/FinalInformed %d/%d, reference %d/%d",
					c, step, id, res.EverInformed, res.FinalInformed, len(ever[id]), informedAlive)
			}
		}
	}
}

// TestTrafficBetweenStepChurn checks the plane when churn and injections
// arrive between Steps, as a live server's commands do: a node admitted
// or injected that leaves before the next Step, an edge made toward it,
// and an edge made toward an informed node between Steps (which belongs
// to the next freeze's snapshot, so it admits in that Step under
// Discretized semantics). Two and 130 messages (both 64-lane word seams)
// at several worker counts, under the drain direction rule and under each
// direction forced.
func TestTrafficBetweenStepChurn(t *testing.T) {
	t.Parallel()
	for _, dir := range drainDirs {
		dir := dir
		t.Run(dir.String(), func(t *testing.T) {
			t.Parallel()
			betweenStepChurn(t, dir)
		})
	}
}

// betweenStepChurn is TestTrafficBetweenStepChurn's sweep under one drain
// direction.
func betweenStepChurn(t *testing.T, dir drainDirection) {
	for seed := uint64(0); seed < 6; seed++ {
		for _, mode := range []Mode{Discretized, Asynchronous} {
			for _, messages := range []int{2, 130} {
				for _, par := range []int{1, 3} {
					checkBetweenStepChurn(t, liveChurnConfig{
						seed: seed, n: 60 + int(seed)*15, d: 1 + int(seed%4),
						messages: messages, mode: mode, par: par,
						perRound: int(seed % 3), perGap: 4 + int(seed%3)*6,
						dir: dir,
					})
				}
			}
		}
	}
	// A network spanning several view pages, so an incremental capture
	// shares the pages nothing changed on and a missed change shows.
	checkBetweenStepChurn(t, liveChurnConfig{
		seed: 0, n: 2*viewPageSlots + 500, d: 2, messages: 70,
		mode: Discretized, par: 2, perRound: 2, perGap: 6, dir: dir,
	})
}

// checkViewChain checks an incremental capture against a fresh full one
// taken at the same instant: the same in-flight messages, and the same
// Informed answer for each of them (the lane words masked to the
// in-flight lanes agree) at every alive node and at every node a page of
// the incremental view still records as alive, where a dead one must read
// uninformed. It also checks that the plane holds informed lanes on live
// nodes only: a death clears the node's row.
func checkViewChain(t *testing.T, tr *Traffic, v *TrafficView, at string) {
	t.Helper()
	full := tr.buildView(nil)
	if fmt.Sprint(v.ids) != fmt.Sprint(full.ids) {
		t.Fatalf("%s: incremental view in flight %v, full %v", at, v.ids, full.ids)
	}
	live := make([]uint64, full.stride)
	for _, li := range full.laneOf {
		live[li>>6] |= 1 << (li & 63)
	}
	check := func(h graph.Handle) {
		for i, m := range live {
			a, _ := v.word(h, i)
			b, _ := full.word(h, i)
			if x := a ^ b; x&m != 0 {
				li := i<<6 | bits.TrailingZeros64(x&m)
				t.Fatalf("%s: lane %d at %v (alive %v): incremental view informed %v, full %v",
					at, li, h, tr.g.IsAlive(h), a&(1<<(li&63)) != 0, b&(1<<(li&63)) != 0)
			}
		}
	}
	tr.g.ForEachAlive(func(h graph.Handle) bool {
		check(h)
		return true
	})
	for p, pg := range v.pages {
		for o, gen := range pg.gens {
			if gen != 0 {
				check(graph.Handle{Slot: uint32(p<<viewPageShift + o), Gen: gen})
			}
		}
	}
	for s := 0; s < tr.informed.slots(); s++ {
		if tr.informed.anyLane(uint32(s)) && tr.g.SlotHandle(uint32(s)).IsNil() {
			t.Fatalf("%s: slot %d holds informed lanes but no live node", at, s)
		}
	}
}
