package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// metricDef names one reported metric; BENCHMARK.json at the repository
// root lists the same names and units, with direction and bound.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the simulator sees, reported on every
// workload by the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"done_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
	{"alloc_mb_per_op", "MB"},
}

// perLayer is reported on every workload by the traced run. A layer a
// workload does not reach reads 0 in its shares and counts; the timings
// are chosen so that every workload has them.
var perLayer = []metricDef{
	{"setup.build_s", "s"},
	{"check_s", "s"},
	{"engine.call_max_ms", "ms"},
	{"core.advance_share", "ratio"},
	{"core.hook_share", "ratio"},
	{"flood.run_share", "ratio"},
	{"traffic.inject_share", "ratio"},
	{"traffic.step_share", "ratio"},
	{"traffic.poll_share", "ratio"},
	{"expansion.attach_share", "ratio"},
	{"expansion.observe_share", "ratio"},
	{"expansion.reseed_share", "ratio"},
	{"serve.read_share", "ratio"},
	{"serve.write_share", "ratio"},
	{"http.overhead_share", "ratio"},
	{"core.edge_events", "count"},
	{"core.death_events", "count"},
	{"core.birth_events", "count"},
	{"flood.rounds", "count"},
	{"traffic.steps", "count"},
	{"traffic.packed_informed_mb", "MB"},
	{"expansion.sets", "count"},
	{"expansion.reseeds", "count"},
	{"serve.publishes_per_s", "1/s"},
	{"serve.queue_depth_max", "count"},
	{"serve.queue_depth_mean", "count"},
	{"mem.alloc_mb", "MB"},
	{"mem.num_gc", "count"},
	{"mem.gc_pause_ms", "ms"},
	{"mem.gc_cpu_frac", "ratio"},
	{"machine.probe_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// workloads maps each workload name to its runner, in BENCHMARK.json order.
var workloads = []struct {
	name string
	run  func(*env) *outcome
}{
	{"flood-1m", runFlood},
	{"traffic-burst64", runTraffic},
	{"expansion-window", runExpansion},
	{"serve-1m", runServe},
}

// config is the parsed command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spans    string
	scale    string
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var c config
	var trace int
	fs := flag.NewFlagSet("churnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "workload to run: flood-1m, traffic-burst64, expansion-window or serve-1m")
	fs.Uint64Var(&c.seed, "seed", 1, "seed every input of the run is generated from")
	fs.IntVar(&c.seconds, "seconds", 20, "how long the run measures, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics; 0 prints the end-to-end metrics")
	fs.StringVar(&c.spans, "spans", "", "with -trace 1, write every span as JSON to this file")
	fs.StringVar(&c.scale, "scale", "full", "full, or smoke for networks of at most 10^4 nodes")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	c.trace = trace == 1
	switch {
	case fs.NArg() > 0:
		return c, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case c.seconds < 1:
		return c, fmt.Errorf("-seconds must be at least 1, got %d", c.seconds)
	case trace != 0 && trace != 1:
		return c, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	case c.spans != "" && !c.trace:
		return c, errors.New("-spans needs -trace 1")
	case c.scale != "full" && c.scale != "smoke":
		return c, fmt.Errorf("-scale must be full or smoke, got %q", c.scale)
	}
	for _, w := range workloads {
		if w.name == c.workload {
			return c, nil
		}
	}
	return c, fmt.Errorf("unknown -workload %q", c.workload)
}

func main() {
	c, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "churnbench:", err)
		}
		os.Exit(2)
	}
	// Every workload runs its engine on two worker shards; pinning the
	// scheduler to two threads keeps the garbage collector's share of the
	// machine the same on larger hosts.
	runtime.GOMAXPROCS(shards)
	if !run(newEnv(c), os.Stdout, os.Stderr) {
		os.Exit(1)
	}
}

// run executes one workload, prints its metrics and reports whether every
// check passed.
func run(e *env, stdout, stderr io.Writer) bool {
	var o *outcome
	for _, w := range workloads {
		if w.name == e.workload {
			g0 := readGC()
			o = w.run(e)
			o.heap.Stop()
			o.gc = readGC().since(g0)
		}
	}
	for _, err := range o.errs {
		fmt.Fprintf(stderr, "churnbench: %s: check failed: %v\n", e.workload, err)
	}
	defs, values := endToEnd, endToEndValues(o)
	if e.tr != nil {
		defs, values = perLayer, perLayerValues(o, e.tr)
		if e.spans != "" {
			if err := e.tr.writeFile(e.spans); err != nil {
				fmt.Fprintln(stderr, "churnbench:", err)
				o.errs = append(o.errs, err)
			}
		}
	}
	report(stdout, e.workload, o, defs, values)
	return len(o.errs) == 0
}

// report prints the notes and one `workload metric value unit` line per
// metric, then the result as one JSON object on the last line.
func report(w io.Writer, workload string, o *outcome, defs []metricDef, values map[string]float64) {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "# %s %s\n", workload, n)
	}
	metrics := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(w, "%s %s %v %s\n", workload, d.name, v, d.unit)
		metrics[d.name] = jsonMetric{v, d.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(o.errs) == 0, o.attempted, o.failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// outcome is what one workload run measured. Untraced operations feed the
// end-to-end metrics; traced ones only the per-layer metrics.
type outcome struct {
	errs              []error // failed checks
	attempted, failed int

	setup     []float64 // seconds per set-up
	build     []float64 // seconds per model build, part of a set-up
	ops       []float64 // seconds per untraced operation
	tracedOps []float64 // seconds per traced operation
	rates     []float64 // units of work completed per second, per untraced operation or time slot
	allocs    []float64 // bytes allocated per untraced operation
	peaks     []float64 // bytes of peak live heap per untraced operation
	heap      *heapSampler
	check     float64   // seconds in the oracles
	probes    []float64 // seconds per machine-speed probe
	gc        gcStats   // the whole run

	layer map[string]float64 // per-layer values only the workload knows
	notes []string
}

func newOutcome() *outcome {
	return &outcome{layer: map[string]float64{}, heap: startHeapSampler()}
}

func (o *outcome) fail(format string, args ...any) {
	o.errs = append(o.errs, fmt.Errorf(format, args...))
}

// addOp records one timed operation, which completed units of work.
func (o *outcome) addOp(traced bool, d time.Duration, alloc uint64, units int) {
	peak := o.heap.take()
	if traced {
		o.tracedOps = append(o.tracedOps, d.Seconds())
		return
	}
	o.peaks = append(o.peaks, float64(peak))
	o.ops = append(o.ops, d.Seconds())
	o.allocs = append(o.allocs, float64(alloc))
	o.rates = append(o.rates, float64(units)/d.Seconds())
}

// speed is the factor that scales this run's times to the reference
// machine speed (see probe.go).
func (o *outcome) speed() float64 {
	if len(o.probes) == 0 {
		return 1
	}
	return probeRef / median(o.probes)
}

const mb = 1 << 20

func endToEndValues(o *outcome) map[string]float64 {
	f := o.speed()
	o.notes = append(o.notes, fmt.Sprintf("unscaled: setup_s %.4g, op_ms %.4g, done_per_s %.4g; speed factor %.4f from %d probes",
		median(o.setup), median(o.ops)*1e3, median(o.rates), f, len(o.probes)))
	return map[string]float64{
		"setup_s":         median(o.setup) * f,
		"op_ms":           median(o.ops) * 1e3 * f,
		"done_per_s":      median(o.rates) / f,
		"peak_heap_mb":    median(o.peaks) / mb,
		"alloc_mb_per_op": median(o.allocs) / mb,
	}
}

// perLayerValues derives the per-layer metrics from the spans of the
// traced operations. Their timed wall time is the duration of the "timed"
// root spans minus the oracle checks inside them; layer shares divide each
// layer's self time by the summed self time of every layer (hooks
// included), so they add up to 1 per workload; trace.coverage is the part
// of the timed wall time that layer spans account for.
func perLayerValues(o *outcome, tr *tracer) map[string]float64 {
	spans := tr.snapshot()
	self := selfTimes(spans)
	tr.mu.Lock()
	births, deaths, edges, looseHookNs := tr.births, tr.deaths, tr.edges, tr.looseHookNs
	tr.mu.Unlock()
	root := make([]int, len(spans))
	inCheck := make([]bool, len(spans))
	var timed, glue, hooks, callMax int64
	selfBy := map[string]int64{}
	for i, s := range spans {
		root[i] = i
		if s.Parent >= 0 {
			root[i], inCheck[i] = root[s.Parent], inCheck[s.Parent]
		}
		inCheck[i] = inCheck[i] || s.Name == spanCheck
		if spans[root[i]].Name != spanTimed {
			continue
		}
		switch {
		case root[i] == i:
			timed += s.End - s.Start
			glue += self[i]
		case s.Name == spanCheck && s.Parent == root[i]:
			timed -= s.End - s.Start
		case !inCheck[i]:
			selfBy[s.Name] += self[i]
			hooks += s.HookNs
			if s.Name != "core.advance" && s.Name != "http.read" && s.Name != "http.write" {
				callMax = max(callMax, s.End-s.Start)
			}
		}
	}
	var layers int64
	for _, v := range selfBy {
		layers += v
	}
	layers += hooks
	share := func(names ...string) float64 {
		var sum int64
		for _, n := range names {
			sum += selfBy[n]
		}
		return ratio(float64(sum), float64(layers))
	}
	ops := float64(len(o.tracedOps))
	f := o.speed()
	v := map[string]float64{
		"setup.build_s":           median(o.build) * f,
		"check_s":                 o.check * f,
		"engine.call_max_ms":      float64(callMax) / 1e6 * f,
		"core.advance_share":      share("core.advance"),
		"core.hook_share":         ratio(float64(hooks+looseHookNs), float64(layers)),
		"flood.run_share":         share("flood.run"),
		"traffic.inject_share":    share("traffic.inject"),
		"traffic.step_share":      share("traffic.step"),
		"traffic.poll_share":      share("traffic.poll"),
		"expansion.attach_share":  share("expansion.attach"),
		"expansion.observe_share": share("expansion.observe"),
		"expansion.reseed_share":  share("expansion.reseed"),
		"serve.read_share":        share("serve.read"),
		"serve.write_share":       share("serve.write"),
		"http.overhead_share":     share("http.read", "http.write"),
		"core.edge_events":        ratio(float64(edges), ops),
		"core.death_events":       ratio(float64(deaths), ops),
		"core.birth_events":       ratio(float64(births), ops),
		"mem.alloc_mb":            float64(o.gc.alloc) / mb,
		"mem.num_gc":              float64(o.gc.num),
		"mem.gc_pause_ms":         float64(o.gc.pauseNs) / 1e6 * f,
		"mem.gc_cpu_frac":         ratio(o.gc.gcCPU, o.gc.allCPU),
		"machine.probe_ms":        median(o.probes) * 1e3,
		"trace.coverage":          1 - ratio(float64(glue), float64(timed)),
		"trace.overhead_frac":     ratio(median(o.tracedOps), median(o.ops)) - 1,
	}
	for k, x := range o.layer {
		v[k] = x
	}
	return v
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
