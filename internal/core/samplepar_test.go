package core

import (
	"fmt"
	"testing"

	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

// TestSampleStationaryParInvariance pins that the snapshot-wiring worker
// count never surfaces in the sampled model: identical seeds must produce
// graphs that agree on every adjacency observable — including in-list
// order — at any workers setting. (The RNG-consuming draws are serial in
// both paths; only the arena fill shards.)
func TestSampleStationaryParInvariance(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(0); seed < 3; seed++ {
				serial := SampleStationary(kind, 400, 2+int(seed)*5, rng.New(seed))
				for _, workers := range []int{2, 8} {
					par := SampleStationaryPar(kind, 400, 2+int(seed)*5, rng.New(seed), workers)
					compareSnapshots(t, serial.Graph(), par.Graph(), kind, seed, workers)
					if serial.LastBorn() != par.LastBorn() {
						t.Fatalf("%v seed %d workers %d: LastBorn differs", kind, seed, workers)
					}
				}
			}
		})
	}
}

func compareSnapshots(t *testing.T, a, b *graph.Graph, kind Kind, seed uint64, workers int) {
	t.Helper()
	if a.NumAlive() != b.NumAlive() || a.NumSlots() != b.NumSlots() {
		t.Fatalf("%v seed %d workers %d: population differs (%d/%d vs %d/%d)",
			kind, seed, workers, a.NumAlive(), a.NumSlots(), b.NumAlive(), b.NumSlots())
	}
	a.ForEachAlive(func(h graph.Handle) bool {
		var oa, ob, ia, ib []graph.Handle
		a.OutTargets(h, func(x graph.Handle) bool { oa = append(oa, x); return true })
		b.OutTargets(h, func(x graph.Handle) bool { ob = append(ob, x); return true })
		a.InSources(h, func(x graph.Handle) bool { ia = append(ia, x); return true })
		b.InSources(h, func(x graph.Handle) bool { ib = append(ib, x); return true })
		if len(oa) != len(ob) || len(ia) != len(ib) {
			t.Fatalf("%v seed %d workers %d: node %v degree differs", kind, seed, workers, h)
		}
		for i := range oa {
			if oa[i] != ob[i] {
				t.Fatalf("%v seed %d workers %d: node %v out target %d differs", kind, seed, workers, h, i)
			}
		}
		for i := range ia {
			if ia[i] != ib[i] {
				t.Fatalf("%v seed %d workers %d: node %v in source %d differs", kind, seed, workers, h, i)
			}
		}
		return true
	})
}

// BenchmarkSampleStationary times one stationary snapshot build — the
// request draws, the in-degree count and the wiring — for SDGR and PDGR
// at n = 10⁵, d = 21, serial and at two workers. Run it with -benchmem:
// B/op is the snapshot's arenas plus the build's transient arrays.
func BenchmarkSampleStationary(b *testing.B) {
	const n, d = 100_000, 21
	for _, kind := range []Kind{SDGR, PDGR} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%v/W=%d", kind, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					SampleStationaryPar(kind, n, d, rng.New(uint64(i)+1), workers)
				}
			})
		}
	}
}
