package expansion

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

// fuzzTrackerWork bounds n·d·rounds for one FuzzTrackerMatchesRescan
// input: the churn rounds of a script stop once the next one would pass
// it.
const fuzzTrackerWork = 120000

// fuzzTrackerOps caps the script length, so the Observe and reseed
// oracles a script triggers stay bounded too.
const fuzzTrackerOps = 48

// FuzzTrackerMatchesRescan is the coverage-guided form of
// TestTrackerMatchesRescan and TestTrackerParallelismInvariance, aimed at
// the sharded seeding sweep. The fuzzer picks the seed, the model,
// n ≤ 400, d ≤ 16, the seeding-sweep worker count W ∈ {1, 2, 3, 4}, the
// re-seed cadence and a script whose bytes are churn rounds, Observe calls
// and explicit re-seeds. The tracker under test runs on a model sampled
// with its snapshot fill at W workers; VerifyTracker checks it against a
// from-scratch rescan after every Observe and re-seed, and at the end its
// observations and set states must equal those of a W = 1 tracker on an
// identically seeded, serially sampled model. The committed corpus
// (testdata/fuzz/FuzzTrackerMatchesRescan) replays under a plain go test.
//
// Neither W nor n changes which code runs, so coverage gives the fuzzer
// no lead toward the inputs where a bug confined to one shard shows. The
// decoding makes up for it: W sits in the low bits of shape, which the
// fuzzer's add/subtract mutation changes almost every time it picks
// shape, and n is drawn above (W−1)·graph.ShardBlock, so every shard owns
// slots in every input. Empty shards are covered by
// TestTrackerMatchesRescan (n = 60 at W = 4).
func FuzzTrackerMatchesRescan(f *testing.F) {
	f.Add(uint64(1), uint16(0b0101_011_01_01), uint16(120), []byte{0, 1, 2, 4, 9, 3, 2, 6})
	f.Fuzz(func(t *testing.T, seed uint64, shape, n uint16, script []byte) {
		// shape, low bits first: W−1 (2 bits), model (2), re-seed
		// cadence (3, mod 5), d−1 (4).
		par := 1 + int(shape&3)
		kinds := core.Kinds()
		kind := kinds[int(shape>>2&3)]
		cfg := TrackerConfig{ReseedEvery: int(shape>>4&7) % 5, MaxGreedySize: 64}
		dd := 1 + int(shape>>7&15)
		lo := max(8, (par-1)*graph.ShardBlock+1)
		nn := lo + int(n)%(401-lo) // lo..400
		if len(script) > fuzzTrackerOps {
			script = script[:fuzzTrackerOps]
		}
		maxRounds := fuzzTrackerWork / (nn * dd)
		tag := fmt.Sprintf("%v n=%d d=%d W=%d every=%d", kind, nn, dd, par, cfg.ReseedEvery)

		type run struct {
			Obs  []Observation
			Sets []SetState
		}
		play := func(par int, check bool) run {
			m := core.SampleStationaryPar(kind, nn, dd, rng.New(seed), par)
			c := cfg
			c.Parallelism = par
			tr := NewTracker(m, rng.New(seed^0x5eed), c)
			defer tr.Close()
			verify := func(at string, op int) {
				if check {
					if err := VerifyTracker(m.Graph(), tr); err != nil {
						t.Fatalf("%s: %s at op %d: %v", tag, at, op, err)
					}
				}
			}
			verify("seeding", -1)
			var out run
			rounds := 0
			for op, b := range script {
				switch b % 4 {
				case 0, 1: // churn: 1..32 rounds, within the work bound
					for k := 1 + int(b>>2)%32; k > 0 && rounds < maxRounds; k-- {
						m.AdvanceRound()
						rounds++
					}
				case 2:
					out.Obs = append(out.Obs, tr.Observe())
					verify("Observe", op)
				case 3:
					tr.reseed()
					verify("reseed", op)
				}
			}
			out.Sets = tr.Sets()
			return out
		}
		got := play(par, true)
		if want := play(1, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: tracker diverged from the W=1 tracker on an identically seeded model", tag)
		}
	})
}
