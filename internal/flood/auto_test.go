package flood

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/rng"
)

// TestAutoParallelismPolicy pins the Auto worker policy's envelope: always
// in [1, GOMAXPROCS], serial for small networks, and monotone
// non-decreasing in n (more slots never means fewer workers).
func TestAutoParallelismPolicy(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	prev := 0
	for _, n := range []int{0, 1, 1000, 1 << 15, 1 << 16, 1 << 18, 1 << 20, 1 << 24} {
		w := AutoParallelism(n)
		if w < 1 || w > max {
			t.Fatalf("AutoParallelism(%d) = %d, want within [1, %d]", n, w, max)
		}
		if w < prev {
			t.Fatalf("AutoParallelism not monotone: %d workers at n=%d after %d", w, n, prev)
		}
		prev = w
	}
	if AutoParallelism(1000) != 1 {
		t.Fatalf("small networks must stay serial, got %d workers", AutoParallelism(1000))
	}
}

// TestResolveParallelism pins the shared normalization rule every engine
// entry point (the traffic plane, and through it Run) routes through: ANY
// negative value selects the Auto policy — not just the Auto constant —
// and 0 runs serial. Negative values used to be honored only on the auto
// path; resolveParallelism is the uniform fix.
func TestResolveParallelism(t *testing.T) {
	const n = 1 << 20
	auto := AutoParallelism(n)
	cases := []struct{ par, want int }{
		{Auto, auto},
		{-7, auto}, // any negative, not just the Auto constant
		{0, 1},
		{1, 1},
		{6, 6},
	}
	for _, c := range cases {
		if got := resolveParallelism(c.par, n); got != c.want {
			t.Errorf("resolveParallelism(%d, %d) = %d, want %d", c.par, n, got, c.want)
		}
	}
	if got := resolveParallelism(-3, 1000); got != 1 {
		t.Errorf("negative par on a small network must resolve serial, got %d", got)
	}
}

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
