package flood

import (
	"reflect"
	"testing"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/rng"
)

// TestEngineMatchesReferenceFromSampled extends the equivalence contract of
// TestEngineMatchesReference beyond warmed-up starts: flooding started from
// a core.SampleStationary snapshot must produce bit-for-bit identical
// Results on the cut-set engine and the full-rescan reference. Sampling is
// deterministic given the seed, so two identically seeded samplers build
// identical models with identical residual RNG streams — any divergence is
// an engine bookkeeping bug against the sampled-snapshot shape (e.g. SDG
// snapshots materialize no dangling out-slots, Poisson snapshots restart
// the jump chain).
func TestEngineMatchesReferenceFromSampled(t *testing.T) {
	modes := []Mode{Discretized, Asynchronous}
	for _, kind := range core.Kinds() {
		for _, mode := range modes {
			kind, mode := kind, mode
			t.Run(kind.String()+"-"+mode.String(), func(t *testing.T) {
				t.Parallel()
				for seed := uint64(0); seed < 20; seed++ {
					n := 80 + int(seed%4)*40
					d := 2 + int(seed%9)
					opts := Options{
						Mode:           mode,
						MaxRounds:      30,
						KeepTrajectory: true,
						RunToMax:       seed%2 == 0,
					}

					mEng := core.SampleStationary(kind, n, d, rng.New(seed))
					mRef := core.SampleStationary(kind, n, d, rng.New(seed))
					opts.Source = mEng.LastBorn()

					got := Run(mEng, opts)
					want := RunReference(mRef, opts)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d (n=%d d=%d): engine and reference diverged from sampled start\nengine:    %+v\nreference: %+v",
							seed, n, d, got, want)
					}
				}
			})
		}
	}
}

// TestFloodFromSampledCompletes is the end-to-end sanity check of the
// fast-warm-up path: flooding a sampled SDGR/PDGR snapshot at the paper's
// degrees completes quickly, exactly as from a warmed snapshot.
func TestFloodFromSampledCompletes(t *testing.T) {
	for _, c := range []struct {
		kind core.Kind
		d    int
	}{
		{core.SDGR, 21},
		{core.PDGR, 35},
	} {
		m := core.SampleStationary(c.kind, 2000, c.d, rng.New(1))
		res := Run(m, Options{})
		if !res.Completed {
			t.Fatalf("%v: flooding from a sampled snapshot did not complete: %+v", c.kind, res)
		}
		if res.CompletionRound > 30 {
			t.Fatalf("%v: completion took %d rounds from a sampled snapshot", c.kind, res.CompletionRound)
		}
	}
}
