package flood

import (
	"reflect"
	"testing"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/rng"
)

// FuzzTrafficMatchesReference is the coverage-guided form of
// TestTrafficMatchesSingleMessageOracle: the fuzzer picks the seed, the
// model, n ≤ 2000, d, M ≤ 130 messages, the mode, the injection schedule
// and the worker count W, runs two planes — one under the drain direction
// rule, one pulling on every drain — and compares every message's Result
// under each with its RunReference replay on an identically seeded model.
// The committed seed corpus (testdata/fuzz/FuzzTrafficMatchesReference)
// replays under a plain go test; CI also runs the target for a fixed
// -fuzztime.
//
// An input costs about n·d·M: every message is replayed on its own
// warmed-up model, and warm-up and flood both scale with the n·d edges. So
// M is drawn from 1..min(130, fuzzTrafficWork/(n·d)), which keeps the
// slowest input (PDGR at n=2000, d=24, M=6: eight warm-ups, two for the
// planes and six for the replays) near 1.7 s uninstrumented, well inside
// the fuzzer's 10 s per-input limit under coverage instrumentation, while
// both 64-lane word seams stay reachable wherever n·d ≤ 2461.
func FuzzTrafficMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint16(120), uint8(4), uint8(3), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, model uint8, n uint16, d, messages, mode, schedule, w uint8) {
		kinds := core.Kinds()
		kind := kinds[int(model)%len(kinds)]
		nn := 16 + int(n)%1985 // 16..2000
		dd := 1 + int(d)%24
		mm := 1 + int(messages)%min(130, fuzzTrafficWork/(nn*dd))
		opts := TrafficOptions{
			Mode:           Mode(mode % 2),
			MaxRounds:      20,
			KeepTrajectory: true,
			RunToMax:       mode&2 != 0,
			Parallelism:    int(w) % 5,
		}
		name := []string{"burst", "staggered", "poisson"}[int(schedule)%3]
		gap := 1 + int(schedule/3)%3
		steps, err := TrafficSchedule(name, mm, gap, seed)
		if err != nil {
			t.Fatal(err)
		}
		build := func() core.Model {
			m := core.New(kind, nn, dd, rng.New(seed))
			core.WarmUp(m)
			return m
		}
		got, inj := runTrafficPlane(build(), opts, steps)
		pulled, _ := runTrafficPlaneDir(build(), opts, steps, drainPull, &drainLog{})
		for i, in := range inj {
			want := replaySingle(build(), opts, in)
			for _, p := range []struct {
				dir drainDirection
				got Result
			}{{drainAuto, got[i]}, {drainPull, pulled[i]}} {
				if !reflect.DeepEqual(p.got, want) {
					t.Fatalf("%v n=%d d=%d M=%d %v %s/%d W=%d %v: message %d (step %d) diverged from its replay\nplane:  %+v\nsingle: %+v",
						kind, nn, dd, mm, opts.Mode, name, gap, opts.Parallelism, p.dir, i, in.step, p.got, want)
				}
			}
		}
	})
}

// fuzzTrafficWork bounds n·d·M for one FuzzTrafficMatchesReference input.
const fuzzTrafficWork = 320000

// FuzzTrafficBetweenStepChurn is the coverage-guided form of
// TestTrafficBetweenStepChurn: the fuzzer picks the seed, n ≤ 300, d,
// M ≤ 130, the mode, the worker count W and how many churn operations
// land inside and between Steps, and checkBetweenStepChurn checks every
// freeze against the recomputed cut and every Step's admissions against
// the frozen edges, once under the drain direction rule and once pulling
// on every drain. Its committed corpus
// (testdata/fuzz/FuzzTrafficBetweenStepChurn) replays under a plain go
// test.
func FuzzTrafficBetweenStepChurn(f *testing.F) {
	f.Add(uint64(1), uint16(60), uint8(2), uint8(3), uint8(0), uint8(0), uint8(1), uint8(6))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, d, messages, mode, w, perRound, perGap uint8) {
		c := liveChurnConfig{
			seed:     seed,
			n:        8 + int(n)%293, // 8..300
			d:        1 + int(d)%8,
			messages: 1 + int(messages)%130,
			mode:     Mode(mode % 2),
			par:      int(w) % 5,
			perRound: int(perRound) % 6,
			perGap:   int(perGap) % 24,
		}
		checkBetweenStepChurn(t, c)
		c.dir = drainPull
		checkBetweenStepChurn(t, c)
	})
}
