package flood

import (
	"reflect"
	"testing"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/rng"
)

// drainDirs are the drain directions the oracles sweep: the rule, and
// each direction forced on every drain.
var drainDirs = []drainDirection{drainAuto, drainPush, drainPull}

func (d drainDirection) String() string {
	return [...]string{"auto", "push", "pull"}[d]
}

// drainLog records the directions a plane's drains take, in order. The
// harness sets injecting right before each Inject, and that Inject's
// drain — every Inject drains its source — clears it, so injectPulls
// counts the pulls inside Inject.
type drainLog struct {
	dirs        []bool // true = pull
	pulls       int
	injectPulls int
	injecting   bool
}

// attach forces dir on tr and logs its drains.
func (l *drainLog) attach(tr *Traffic, dir drainDirection) {
	tr.drainDir = dir
	tr.onDrain = func(pull bool) {
		l.dirs = append(l.dirs, pull)
		if pull {
			l.pulls++
			if l.injecting {
				l.injectPulls++
			}
		}
		l.injecting = false
	}
}

// check fails unless the log fits dir: a forced direction is the only
// one taken, and the rule never pulls inside an Inject.
func (l *drainLog) check(t *testing.T, dir drainDirection, at string) {
	t.Helper()
	switch {
	case dir == drainPush && l.pulls != 0:
		t.Fatalf("%s: forced push ran %d pulls", at, l.pulls)
	case dir == drainPull && l.pulls != len(l.dirs):
		t.Fatalf("%s: forced pull ran %d pushes", at, len(l.dirs)-l.pulls)
	case dir == drainAuto && l.injectPulls != 0:
		t.Fatalf("%s: the rule pulled inside %d Injects", at, l.injectPulls)
	}
}

// runDir is Run with the drain direction forced to dir, logged into l.
func runDir(m core.Model, opts Options, dir drainDirection, l *drainLog) Result {
	return run(m, opts, func(tr *Traffic) {
		l.attach(tr, dir)
		l.injecting = true
	})
}

// TestDrainDirectionRule pins the rule on a flood that saturates in a few
// waves (SDGR, d = 21): the source's drain pushes, the dense wave pulls,
// the direction sequence is the same at every worker count (the rule
// reads plane counters only), and the Result is the reference's under
// every direction.
func TestDrainDirectionRule(t *testing.T) {
	t.Parallel()
	m := core.SampleStationary(core.SDGR, 3000, 21, rng.New(5))
	want := RunReference(m, Options{})
	var serial []bool
	for _, par := range testPars() {
		for _, dir := range drainDirs {
			var l drainLog
			got := runDir(core.SampleStationary(core.SDGR, 3000, 21, rng.New(5)), Options{Parallelism: par}, dir, &l)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("par %d %v: engine and reference diverged\nengine:    %+v\nreference: %+v", par, dir, got, want)
			}
			l.check(t, dir, "rule")
			if dir != drainAuto {
				continue
			}
			if len(l.dirs) == 0 || l.dirs[0] || l.pulls == 0 {
				t.Fatalf("par %d: directions %v, want a push for the source and a pull later", par, l.dirs)
			}
			if serial == nil {
				serial = l.dirs
			} else if !reflect.DeepEqual(l.dirs, serial) {
				t.Fatalf("par %d: directions %v, serial %v", par, l.dirs, serial)
			}
		}
	}
}

// The drain benchmarks time a to-completion broadcast at n = 10⁵, d = 21
// on a sampled stationary SDGR model under each drain direction; the
// model is built outside the timer, from the same seeds in all three.

func benchDrain(b *testing.B, dir drainDirection) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := core.SampleStationary(core.SDGR, 100_000, 21, rng.New(uint64(i)))
		var l drainLog
		b.StartTimer()
		if res := runDir(m, Options{}, dir, &l); !res.Completed {
			b.Fatal("unexpected non-completion")
		}
	}
}

func BenchmarkFloodDrainPush(b *testing.B) { benchDrain(b, drainPush) }
func BenchmarkFloodDrainPull(b *testing.B) { benchDrain(b, drainPull) }
func BenchmarkFloodDrainAuto(b *testing.B) { benchDrain(b, drainAuto) }
