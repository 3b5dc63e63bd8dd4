// Command tablegen regenerates the paper's tables and figures (the
// reproduction suite T1, F1..F24) and writes them as Markdown, CSV or
// aligned text. Its Markdown output at -scale standard is the source of
// EXPERIMENTS.md.
//
// Trials run on all cores by default; results are bit-identical at any
// -par setting, including -par 1.
//
// Usage:
//
//	tablegen                       # full suite, markdown, stdout
//	tablegen -scale paper -o EXPERIMENTS.md
//	tablegen -id F10 -format text  # one experiment, terminal table
//	tablegen -par 1 -progress      # serial run with live trial ticks
//	tablegen -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	churnnet "github.com/dyngraph/churnnet"
)

func main() {
	var (
		scaleName = flag.String("scale", "standard", "smoke, standard or paper")
		seed      = flag.Uint64("seed", 1, "deterministic root seed")
		id        = flag.String("id", "", "run a single experiment (e.g. F10); empty = full suite")
		format    = flag.String("format", "markdown", "markdown, csv or text")
		out       = flag.String("o", "", "output file (default stdout)")
		list      = flag.Bool("list", false, "list the experiment suite and exit")
		par       = flag.Int("par", 0, "trial parallelism (0 = all cores, 1 = serial; output is identical either way)")
		progress  = flag.Bool("progress", false, "report per-trial progress on stderr")
		fastWarm  = flag.Bool("fastwarmup", false, "build trial models by direct stationary sampling instead of simulated warm-up (same distribution, different draw than the committed record)")
		floodPar  = flag.Int("floodpar", 1, "worker shards inside each flooding run, -fastwarmup snapshot fill and -trackexp tracker; 0 picks W from GOMAXPROCS and n; output is identical at any value")
		trackExp  = flag.Bool("trackexp", false, "measure the expansion experiments (F3/F4/F8/F9) with the incremental event-driven tracker over a churn window instead of per-snapshot witness searches (different draw than the committed record)")
	)
	flag.Parse()

	if *list {
		for _, e := range churnnet.Experiments() {
			fmt.Printf("%-4s [%s] %s\n", e.ID, e.PaperRef, e.Title)
		}
		return
	}

	if err := validateFlags(*par, *floodPar); err != nil {
		fatal(err)
	}
	scale, err := churnnet.ParseScale(*scaleName)
	if err != nil {
		fatal(err)
	}
	if *floodPar == 0 {
		*floodPar = churnnet.FloodAuto
	}
	cfg := churnnet.ExperimentConfig{Scale: scale, Seed: *seed, Parallelism: *par,
		FastWarmUp: *fastWarm, FloodParallelism: *floodPar, TrackExpansion: *trackExp}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	start := time.Now()
	if *id != "" {
		if *progress {
			cfg.Progress = progressLine(*id)
		}
		tab, err := churnnet.RunExperimentWith(*id, cfg)
		if err != nil {
			fatal(err)
		}
		switch *format {
		case "csv":
			fmt.Fprint(w, tab.CSV())
		case "text":
			fmt.Fprint(w, tab.Text())
		default:
			fmt.Fprint(w, tab.Markdown())
		}
		fmt.Fprintf(os.Stderr, "tablegen: %s done in %v\n", *id, time.Since(start).Round(time.Millisecond))
		return
	}

	rep := churnnet.NewExperimentReport(cfg)
	for _, e := range churnnet.Experiments() {
		ecfg := cfg
		if *progress {
			ecfg.Progress = progressLine(e.ID)
		}
		expStart := time.Now()
		tab, err := churnnet.RunExperimentWith(e.ID, ecfg)
		if err != nil {
			fatal(err)
		}
		rep.Add(tab)
		fmt.Fprintf(os.Stderr, "tablegen: %-4s done in %v\n", e.ID,
			time.Since(expStart).Round(time.Millisecond))
	}
	switch *format {
	case "csv":
		for _, tab := range rep.Tables {
			fmt.Fprintf(w, "# %s — %s\n%s\n", tab.ID, tab.Title, tab.CSV())
		}
	case "text":
		for _, tab := range rep.Tables {
			fmt.Fprintln(w, tab.Text())
		}
	default:
		fmt.Fprint(w, rep.Markdown())
		fmt.Fprintf(w, notes, *seed)
	}
	fmt.Fprintf(os.Stderr, "tablegen: suite done in %v\n", time.Since(start).Round(time.Millisecond))
}

// progressLine returns a Progress callback that rewrites one stderr line
// with the experiment's completed/total trial count.
func progressLine(id string) func(done, total int) {
	return func(done, total int) {
		fmt.Fprintf(os.Stderr, "\rtablegen: %-4s %d/%d trials", id, done, total)
		if done == total {
			// Blank the line so the following "done in ..." line does
			// not inherit a stale tail.
			fmt.Fprintf(os.Stderr, "\r%*s\r", 40, "")
		}
	}
}

// notes is the reproduction appendix emitted after the full markdown suite.
const notes = `---

## Reproduction notes

**Regenerating this file.** Every table above is produced by

` + "```sh\ngo run ./cmd/tablegen -scale standard -seed %d -o EXPERIMENTS.md\n```" + `

Single experiments: ` + "`go run ./cmd/tablegen -id F10 -format text`" + `. The
` + "`-scale paper`" + ` flag runs the largest parameterizations; ` + "`-scale smoke`" + ` is
the sub-second version exercised by ` + "`go test`" + ` and ` + "`go test -bench=.`" + `
(one benchmark per table, see ` + "`bench_test.go`" + `).

**How to read the numbers.**

- *w.h.p. claims* are reproduced as frequencies over independent seeded
  trials; "pass" columns check the claimed inequality on the measured
  values.
- *Expansion values* are witness-search results: upper bounds on the true
  minimum ratio h_out (computing it exactly is NP-hard). The suite
  therefore reproduces the paper's *shape* — zero-ratio witnesses exist
  exactly where the paper proves isolated nodes, and no witness below 0.1
  is ever found where the paper proves expansion. The spectral-gap column
  (F8/F9) is an independent witness-free cross-check, and expansion.Exact
  validates the search against exhaustive enumeration on small graphs in
  the test suite.
- *Flooding times* are in message-transmission units (one streaming round,
  one unit of Poisson time). The paper's lower-bound constants (e.g.
  Ω(e^(−d²)) in F5) are loose by design; measured rates dominate them
  wherever the bound is resolvable at the trial count.
- The paper proves asymptotic statements for sufficiently large d and n;
  the tables show the same inequalities already holding at the simulated
  sizes, with the theory constants (0.1 expansion, e^(−2d)/6 isolation,
  d/20 cascade growth) annotated inline.

**Flooding engine and the large-n record.** Every flooding number above
runs on the incremental cut-set engine (see DESIGN.md, "The cut-set
flooding engine"), which is pinned bit-for-bit against the definition-level
reference implementation. The committed BENCH_flood.json (regenerated by
` + "`go run ./cmd/benchjson -bench flood -scale large -reps 2`" + `) records the engine at sizes the
rescan implementation could not sustain: an SDGR n = 10⁶, d = 21 broadcast
completes in seconds, and on the 100-round measurement window used by
F6/F7/F19/F23 the engine beats the reference ≈ 55–64× at n = 10⁵–10⁶
(e.g. SDGR n = 10⁵: 0.32 s vs 20.7 s; n = 10⁶: 6.5 s vs 358 s, single
core).

**Warm-up.** Every model above is warmed by simulating the paper's
transient (2n rounds / 7·n·ln n jump events), which keeps this record
bit-reproducible. The ` + "`-fastwarmup`" + ` flag instead samples the stationary
snapshot directly (O(n·d); see DESIGN.md, "Stationary snapshot
sampling") — statistically equivalent, a different deterministic draw,
and ≥ 20× faster at n = 10⁶ per the committed BENCH_warmup.json.

**Sharded flooding.** The ` + "`-floodpar W`" + ` flag shards the cut engine
inside each single broadcast (and each ` + "`-fastwarmup`" + ` snapshot fill)
across W per-slot-range workers; ` + "`-floodpar 0`" + ` picks W automatically
from GOMAXPROCS and n. Output is bit-identical at every setting — the
committed record keeps the default (serial), and the sweep lives in
BENCH_floodpar.json (regenerated by
` + "`go run ./cmd/benchjson -bench floodpar -scale large -reps 1`" + `; see
DESIGN.md, "Sharded cut execution"). Every row of that record
re-verifies Result equality between the serial and sharded engines, at
n up to 10⁷.

**Incremental expansion tracking.** Every expansion number above comes
from per-snapshot witness searches (expansion.Estimate). The ` + "`-trackexp`" + `
flag instead measures F3/F4/F8/F9 with the incremental event-driven
tracker (expansion.Tracker): the witness families ride the churn event
stream across a short window and the tables report minima over time — a
strictly stronger reading of the paper's "every snapshot expands"
claims, bit-for-bit pinned against fresh boundary rescans and ≥ 10×
cheaper per observation at n = 10⁶ (see BENCH_expansion.json and
DESIGN.md, "Incremental expansion tracking"). The committed record keeps
the default (per-snapshot search), so its numbers are unchanged.

**Bounded degree at large n (the F22 row the suite cannot reach).** The
F22 table above stops at suite-sized n; the committed
BENCH_edgerate.json (` + "`go run ./cmd/benchjson -bench edgerate -scale large -reps 1`" + `,
simulated warm-up — the policy variants have no
closed-form stationary law) extends the bounded-degree comparison to
n = 10⁶ through the cut engine's own event feed (PDGR dynamics, d = 20,
inbound cap 2d = 40):

| policy | n | OnEdge events / time unit | regen share | max regen burst | mean burst | flood on engine | completed |
|---|---|---|---|---|---|---|---|
| uniform | 100 000 | 40.1 | 51.8%% | 57 | 20.2 | 0.53 s | round 5 |
| inbound cap 2d | 100 000 | 40.9 | 50.7%% | **40** (= cap) | 20.2 | 0.61 s | round 5 |
| uniform | 1 000 000 | 40.5 | 49.0%% | 52 | 19.9 | 6.1 s | round 5 |
| inbound cap 2d | 1 000 000 | 41.3 | 50.2%% | **40** (= cap) | 20.2 | 5.0 s | round 5 |

The OnEdge rate the engine absorbs is Θ(d) per transmission time unit —
*independent of n* — under both policies, so the bounded-degree variants
ride the incremental engine unchanged at any scale; what the cap changes
is the worst-case per-death regeneration burst (the dying node's live
in-degree), pinned to the cap instead of growing as Θ(log n / log log n).
Flooding on the capped network stays O(log n)-round complete, measured
on the engine at n = 10⁶ — the Section 5 conjecture's behavior at three
orders of magnitude beyond the F22 table.

**Substitutions.** None. The paper is self-contained mathematics; every
model, process and baseline is implemented directly (see DESIGN.md). The
extension experiments F21–F24 test the paper's informal Section 1.1/5
claims (overlay realism, bounded-degree dynamics, giant-component
structure) rather than formal theorems.
`

// validateFlags rejects invalid flag values before any work starts; the
// returned error names the offending flag. Kept separate from main so the
// flag paths are regression-testable (see main_test.go).
func validateFlags(par, floodPar int) error {
	switch {
	case par < 0:
		return errors.New("-par must be >= 0 (0 = all cores)")
	case floodPar < 0:
		return errors.New("-floodpar must be >= 0 (0 = auto from GOMAXPROCS and n)")
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tablegen:", err)
	os.Exit(2)
}
