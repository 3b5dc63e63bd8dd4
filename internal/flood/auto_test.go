package flood

import (
	"reflect"
	"testing"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/rng"
)

// TestAutoParallelismInvariance pins the -floodpar 0 contract: a flood
// run with Options.Parallelism = Auto produces bit-for-bit the serial
// engine's Result (the policy resolves before the engine starts; results
// are already invariant at every explicit W).
func TestAutoParallelismInvariance(t *testing.T) {
	for _, kind := range []core.Kind{core.SDGR, core.PDGR} {
		build := func() core.Model {
			m := core.New(kind, 400, 8, rng.New(5))
			core.WarmUp(m)
			for !m.Graph().IsAlive(m.LastBorn()) {
				m.AdvanceRound()
			}
			return m
		}
		mSerial := build()
		opts := Options{Source: mSerial.LastBorn(), MaxRounds: 25, KeepTrajectory: true, Parallelism: 1}
		want := Run(mSerial, opts)
		opts.Parallelism = Auto
		if got := Run(build(), opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: Auto parallelism diverged from serial\ngot  %+v\nwant %+v", kind, got, want)
		}
	}
}
