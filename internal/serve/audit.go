package serve

import (
	"fmt"

	"github.com/dyngraph/churnnet/internal/flood"
)

// VerifySnapshot compares a published snapshot field by field against
// direct model and plane queries: alive totals, per-node liveness and
// births, per-message lifecycle and informed membership (totals and
// per-node bits). It is the consistency audit behind every serve bench
// row's audit and the scenario tests.
//
// It must run with the writer quiescent and the snapshot freshly
// published — i.e. inside Server.Audit, which guarantees both.
func VerifySnapshot(m *LiveModel, plane *flood.Traffic, snap *Snapshot) error {
	g := m.Graph()
	if snap.Alive != g.NumAlive() {
		return fmt.Errorf("snapshot alive %d != model %d", snap.Alive, g.NumAlive())
	}
	if snap.Steps != plane.Steps() {
		return fmt.Errorf("snapshot steps %d != plane %d", snap.Steps, plane.Steps())
	}
	if snap.Time != m.Now() {
		return fmt.Errorf("snapshot time %g != model %g", snap.Time, m.Now())
	}
	if snap.NumMsgs() != plane.Injected() {
		return fmt.Errorf("snapshot has %d messages, plane admitted %d", snap.NumMsgs(), plane.Injected())
	}
	inFlight := snap.view.InFlight()
	if len(inFlight) != plane.Live() {
		return fmt.Errorf("snapshot tracks %d in-flight messages, plane has %d", len(inFlight), plane.Live())
	}
	aliveSeen := 0
	for id := 0; id < snap.nodes.len(); id++ {
		rec := snap.nodes.get(id)
		if rec.state != nodeAlive {
			if g.IsAlive(rec.h) {
				return fmt.Errorf("node %d departed in snapshot, alive in model", id)
			}
			continue
		}
		aliveSeen++
		if !g.IsAlive(rec.h) {
			return fmt.Errorf("node %d alive in snapshot, dead in model", id)
		}
		if got := g.BirthTime(rec.h); got != rec.birth {
			return fmt.Errorf("node %d birth %g in snapshot, %g in model", id, rec.birth, got)
		}
		for _, mid := range inFlight {
			if got, want := snap.view.Informed(mid, rec.h), plane.Informed(mid, rec.h); got != want {
				return fmt.Errorf("node %d msg %d informed: snapshot %v, plane %v", id, mid, got, want)
			}
		}
	}
	if aliveSeen != snap.Alive {
		return fmt.Errorf("snapshot lists %d alive nodes, totals say %d", aliveSeen, snap.Alive)
	}
	for i := 0; i < snap.NumMsgs(); i++ {
		mv, err := snap.MsgStatus(uint64(i))
		if err != nil {
			return fmt.Errorf("msg %d: %s", i, err.Msg)
		}
		mid := flood.MessageID(i)
		if mv.Status != plane.Status(mid).String() {
			return fmt.Errorf("msg %d status %q != plane %q", i, mv.Status, plane.Status(mid))
		}
		if mv.InformedAlive != plane.InformedAlive(mid) {
			return fmt.Errorf("msg %d informed %d != plane %d", i, mv.InformedAlive, plane.InformedAlive(mid))
		}
	}
	return nil
}
