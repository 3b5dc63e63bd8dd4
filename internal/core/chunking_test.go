package core

import (
	"testing"

	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

// fingerprint captures everything observable about a Poisson model's state:
// clock, jump-chain position, and the full alive graph with every out-slot
// (dead requests included, as Nil, since no-regeneration models keep them).
func fingerprint(t *testing.T, m *Poisson) []uint64 {
	t.Helper()
	g := m.Graph()
	fp := []uint64{
		uint64(m.Round()),
		uint64(g.NumAlive()),
		uint64(g.NextBirthSeq()),
	}
	g.ForEachAlive(func(h graph.Handle) bool {
		fp = append(fp, uint64(h.Slot), uint64(h.Gen), g.BirthSeq(h))
		for i := 0; i < g.OutSlotCount(h); i++ {
			tgt, _ := g.OutTarget(h, i)
			fp = append(fp, uint64(tgt.Slot), uint64(tgt.Gen))
		}
		return true
	})
	return fp
}

func equalFP(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPoissonAdvanceTimeChunkingInvariant is the regression test for the
// discarded-overshoot bug: AdvanceTime used to sample (dt, kind) and throw
// the kind away when dt overshot the horizon, so chunked advancement
// drained the RNG differently from one-shot advancement and identically
// seeded trajectories diverged with snapshot granularity. With the pending
// event carried across calls, any chunking of the same timeline must
// produce the same population and graph.
func TestPoissonAdvanceTimeChunkingInvariant(t *testing.T) {
	for _, regen := range []bool{false, true} {
		for seed := uint64(0); seed < 5; seed++ {
			const n, d = 120, 3
			oneShot := NewPoisson(n, d, regen, rng.New(seed))
			perUnit := NewPoisson(n, d, regen, rng.New(seed))
			ragged := NewPoisson(n, d, regen, rng.New(seed))

			const horizon = 40
			oneShot.AdvanceTime(horizon)
			for i := 0; i < horizon; i++ {
				perUnit.AdvanceTime(1)
			}
			for elapsed := 0.0; elapsed < horizon; elapsed += 0.7 {
				step := 0.7
				if horizon-elapsed < step {
					step = horizon - elapsed
				}
				ragged.AdvanceTime(step)
			}

			want := fingerprint(t, oneShot)
			if got := fingerprint(t, perUnit); !equalFP(got, want) {
				t.Fatalf("regen=%v seed %d: AdvanceTime(1)×%d diverged from AdvanceTime(%d)",
					regen, seed, horizon, horizon)
			}
			if got := fingerprint(t, ragged); !equalFP(got, want) {
				t.Fatalf("regen=%v seed %d: ragged chunking diverged from one-shot",
					regen, seed)
			}
			if oneShot.Now() != perUnit.Now() || oneShot.Now() != ragged.Now() {
				t.Fatalf("clocks diverged: %v %v %v", oneShot.Now(), perUnit.Now(), ragged.Now())
			}

			// The carried pending event must also keep subsequent jump-chain
			// stepping in lockstep.
			for i := 0; i < 50; i++ {
				ka := oneShot.StepEvent()
				kb := perUnit.StepEvent()
				if ka != kb {
					t.Fatalf("regen=%v seed %d: post-advance StepEvent %d diverged", regen, seed, i)
				}
			}
			if !equalFP(fingerprint(t, oneShot), fingerprint(t, perUnit)) {
				t.Fatalf("regen=%v seed %d: post-advance stepping diverged", regen, seed)
			}
		}
	}
}

// TestPoissonStepEventConsumesPending pins the StepEvent/AdvanceTime
// interleaving: the event whose wait straddled the horizon is the next
// event the jump chain delivers.
func TestPoissonStepEventConsumesPending(t *testing.T) {
	a := NewPoisson(80, 2, true, rng.New(7))
	b := NewPoisson(80, 2, true, rng.New(7))
	a.WarmUpRounds(500)
	b.WarmUpRounds(500)
	// a: split the next 5 units in two; b: one shot. Then step both.
	a.AdvanceTime(2.5)
	a.AdvanceTime(2.5)
	b.AdvanceTime(5)
	if a.Round() != b.Round() {
		t.Fatalf("rounds diverged: %d vs %d", a.Round(), b.Round())
	}
	for i := 0; i < 20; i++ {
		if a.StepEvent() != b.StepEvent() {
			t.Fatalf("step %d diverged after chunked advancement", i)
		}
	}
}
