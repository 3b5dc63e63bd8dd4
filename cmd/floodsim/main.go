// Command floodsim runs flooding broadcasts over a dynamic model and
// reports completion statistics and, optionally, per-round trajectories.
//
// Usage:
//
//	floodsim -model SDGR -n 10000 -d 21 -trials 20 -seed 1
//	floodsim -model PDG -n 4000 -d 3 -trials 50 -trajectory
//	floodsim -model SDGR -n 10000 -d 21 -traffic -messages 16 -schedule staggered -inject-gap 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	churnnet "github.com/dyngraph/churnnet"
)

func main() {
	var (
		modelName = flag.String("model", "SDGR", "model: SDG, SDGR, PDG or PDGR")
		n         = flag.Int("n", 10000, "size parameter")
		d         = flag.Int("d", 21, "out-degree")
		trials    = flag.Int("trials", 10, "independent broadcasts (fresh network each)")
		seed      = flag.Uint64("seed", 1, "deterministic root seed")
		maxRounds = flag.Int("max-rounds", 0, "round cap (0 = default)")
		async     = flag.Bool("async", false, "asynchronous semantics (Definition 4.2)")
		traj      = flag.Bool("trajectory", false, "print per-round informed counts of trial 0")
		fastWarm  = flag.Bool("fastwarmup", false, "sample the stationary snapshot directly instead of simulating warm-up")
		floodPar  = flag.Int("floodpar", 1, "worker shards inside each broadcast (and each -fastwarmup snapshot fill); 0 picks W from GOMAXPROCS and n; results are identical at any value")
		traffic   = flag.Bool("traffic", false, "multi-message mode: inject -messages concurrent broadcasts per -schedule over one churn stream")
		messages  = flag.Int("messages", 8, "messages per trial in -traffic mode")
		schedule  = flag.String("schedule", "burst", "injection schedule in -traffic mode: burst, staggered or poisson")
		injectGap = flag.Int("inject-gap", 1, "rounds between injections (staggered) or mean inter-arrival (poisson)")
	)
	flag.Parse()

	kind, err := parseKind(*modelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "floodsim:", err)
		os.Exit(2)
	}
	if err := validateFlags(*trials, *n, *d, *maxRounds, *floodPar); err != nil {
		usageError(err.Error())
	}
	if *traffic {
		if err := validateTrafficFlags(*messages, *schedule, *injectGap); err != nil {
			usageError(err.Error())
		}
	}
	if *floodPar == 0 {
		*floodPar = churnnet.FloodAuto
	}
	mode := churnnet.Discretized
	if *async {
		mode = churnnet.Asynchronous
	}

	if *traffic {
		runTraffic(kind, *n, *d, *trials, *seed, *maxRounds, mode, *fastWarm,
			*floodPar, *messages, *schedule, *injectGap)
		return
	}

	fmt.Printf("flooding %s (n=%d, d=%d, %d trials, mode %v)\n", kind, *n, *d, *trials, mode)

	completed := 0
	var rounds, fractions []float64
	for trial := 0; trial < *trials; trial++ {
		m := churnnet.NewReadyModelPar(kind, *n, *d, *seed+uint64(trial), *fastWarm, *floodPar)
		res := churnnet.Flood(m, churnnet.FloodOptions{
			Mode:           mode,
			MaxRounds:      *maxRounds,
			KeepTrajectory: *traj && trial == 0,
			Parallelism:    *floodPar,
		})
		if res.Completed {
			completed++
			rounds = append(rounds, float64(res.CompletionRound))
		}
		frac := res.PeakFraction
		fractions = append(fractions, frac)
		if *traj && trial == 0 {
			fmt.Println("\ntrial 0 trajectory (round: informed/alive):")
			for i := range res.Informed {
				fmt.Printf("  %3d: %d/%d\n", i, res.Informed[i], res.Alive[i])
			}
			fmt.Println()
		}
	}

	fmt.Printf("\ncompleted        %d/%d (%.1f%%)\n", completed, *trials,
		100*float64(completed)/float64(*trials))
	if len(rounds) > 0 {
		sort.Float64s(rounds)
		fmt.Printf("rounds           median %.0f, min %.0f, max %.0f\n",
			rounds[len(rounds)/2], rounds[0], rounds[len(rounds)-1])
	}
	if len(fractions) > 0 {
		sort.Float64s(fractions)
		fmt.Printf("peak informed    median %.1f%%, min %.1f%%\n",
			100*fractions[len(fractions)/2], 100*fractions[0])
	}
	if completed == 0 {
		fmt.Println("\nno completion: in models without regeneration this is the expected")
		fmt.Println("outcome at constant d (Lemma 3.5/4.10: isolated nodes persist).")
	}
}

// runTraffic is the -traffic mode: per trial, one traffic plane injects
// `messages` broadcasts per the schedule over a single churn stream,
// retiring each as it completes, and the run reports per-message
// completion-latency statistics.
func runTraffic(kind churnnet.ModelKind, n, d, trials int, seed uint64, maxRounds int,
	mode churnnet.FloodMode, fastWarm bool, floodPar, messages int, schedule string, injectGap int) {
	fmt.Printf("traffic %s (n=%d, d=%d, %d trials × %d messages, %s schedule, mode %v)\n",
		kind, n, d, trials, messages, schedule, mode)

	completed := 0
	var latencies []float64
	var mem churnnet.TrafficMemStats
	for trial := 0; trial < trials; trial++ {
		trialSeed := seed + uint64(trial)
		steps, err := churnnet.TrafficSchedule(schedule, messages, injectGap, trialSeed)
		if err != nil {
			usageError(err.Error())
		}
		m := churnnet.NewReadyModelPar(kind, n, d, trialSeed, fastWarm, floodPar)
		tr := churnnet.NewTraffic(m, churnnet.TrafficOptions{
			Mode:        mode,
			MaxRounds:   maxRounds,
			Parallelism: floodPar,
		})
		var ids []churnnet.MessageID
		next := 0
		for next < len(steps) || tr.Live() > 0 {
			for next < len(steps) && steps[next] == tr.Steps() {
				ids = append(ids, tr.Inject(churnnet.Handle{}))
				next++
			}
			tr.Step()
			for _, id := range ids {
				if tr.Status(id) == churnnet.MessageDone {
					if res := tr.Result(id); res.Completed {
						completed++
						latencies = append(latencies, float64(res.CompletionRound))
					}
					tr.Retire(id)
				}
			}
		}
		if trial == trials-1 {
			mem = tr.MemStats()
		}
		tr.Close()
	}

	if mem.Lanes > 0 {
		packed := float64(mem.PackedInformedBytes) / float64(mem.Lanes)
		baseline := float64(mem.MarksBaselineBytes) / float64(mem.Lanes)
		fmt.Printf("\ninformed state   %d slots × %.3g B/slot packed: %.1f B/lane vs %.1f B/lane as one Marks per lane (%.1fx)\n",
			mem.Slots, float64(mem.PackedInformedBytes)/float64(mem.Slots), packed, baseline, baseline/packed)
	}

	total := trials * messages
	fmt.Printf("\ndelivered        %d/%d (%.1f%%)\n", completed, total,
		100*float64(completed)/float64(total))
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		fmt.Printf("latency (rounds) median %.0f, p90 %.0f, max %.0f\n",
			latencies[len(latencies)/2], latencies[len(latencies)*9/10], latencies[len(latencies)-1])
	}
	if completed == 0 {
		fmt.Println("\nno delivery: in models without regeneration this is the expected")
		fmt.Println("outcome at constant d (Lemma 3.5/4.10: isolated nodes persist).")
	}
}

// validateFlags rejects invalid flag values before any work starts; the
// returned error names the offending flag. Kept separate from main so the
// flag paths are regression-testable (see main_test.go).
func validateFlags(trials, n, d, maxRounds, floodPar int) error {
	switch {
	case trials < 1:
		return errors.New("-trials must be >= 1")
	case n < 1:
		return errors.New("-n must be >= 1")
	case d < 0:
		return errors.New("-d must be >= 0")
	case maxRounds < 0:
		return errors.New("-max-rounds must be >= 0 (0 = default)")
	case floodPar < 0:
		return errors.New("-floodpar must be >= 0 (0 = auto from GOMAXPROCS and n)")
	}
	return nil
}

// validateTrafficFlags rejects invalid -traffic mode values; schedule
// names are checked by TrafficSchedule at injection time, but a dry probe
// here reports them before any network is built.
func validateTrafficFlags(messages int, schedule string, injectGap int) error {
	switch {
	case messages < 1:
		return errors.New("-messages must be >= 1")
	case injectGap < 1:
		return errors.New("-inject-gap must be >= 1")
	}
	if _, err := churnnet.TrafficSchedule(schedule, 1, injectGap, 1); err != nil {
		return fmt.Errorf("-schedule: %v", err)
	}
	return nil
}

// usageError reports a bad flag value and exits with the conventional
// usage status 2.
func usageError(msg string) {
	fmt.Fprintln(os.Stderr, "floodsim:", msg)
	flag.Usage()
	os.Exit(2)
}

func parseKind(s string) (churnnet.ModelKind, error) {
	for _, k := range churnnet.ModelKinds() {
		if strings.EqualFold(k.String(), s) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown model %q (want SDG, SDGR, PDG or PDGR)", s)
}
