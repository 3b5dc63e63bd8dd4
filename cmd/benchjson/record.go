package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// record is the one envelope every bench writes: which bench at which
// scale, when and where it ran, and one row per measured case.
type record struct {
	Bench     string `json:"bench"`
	Scale     string `json:"scale"`
	Generated string `json:"generated"`
	Env       struct {
		Go     string `json:"go"`
		GOOS   string `json:"goos"`
		GOARCH string `json:"goarch"`
		// Records converted from the pre-envelope schemas omit what those
		// schemas never captured (nproc everywhere, gomaxprocs for flood
		// and warmup).
		GOMAXPROCS int `json:"gomaxprocs,omitempty"`
		NProc      int `json:"nproc,omitempty"`
	} `json:"env"`
	Rows []row `json:"rows"`
}

// row is one measured case. NS holds each timed side's wall time (the
// minimum over its repetitions) and Reps how many repetitions that side
// actually ran, so the two maps share their keys. Values holds every
// other measured number, and Audit the row's oracle check; baseline rows
// (a sweep's serial row, benches without an oracle) omit it.
type row struct {
	Case   map[string]any     `json:"case"`
	Seed   uint64             `json:"seed"`
	Reps   map[string]int     `json:"reps"`
	NS     map[string]int64   `json:"ns"`
	Values map[string]float64 `json:"values"`
	Audit  *struct {
		Kind  string `json:"kind"`
		Equal bool   `json:"equal"`
	} `json:"audit,omitempty"`
}

func newRow(seed uint64, params map[string]any) row {
	return row{Case: params, Seed: seed,
		Reps: map[string]int{}, NS: map[string]int64{}, Values: map[string]float64{}}
}

// keepMin counts one repetition of side and keeps ns when it is the
// fastest so far — the standard way to suppress scheduler noise. It
// reports whether ns was kept, so callers can keep that repetition's
// values alongside.
func (r *row) keepMin(side string, ns int64) bool {
	r.Reps[side]++
	if old, ok := r.NS[side]; ok && old <= ns {
		return false
	}
	r.NS[side] = ns
	return true
}

// timed runs fn after a forced collection, so no side pays another's
// garbage, and keeps its wall time through keepMin.
func (r *row) timed(side string, fn func()) bool {
	runtime.GC()
	t0 := time.Now()
	fn()
	return r.keepMin(side, int64(time.Since(t0)))
}

// audit records the row's oracle check. A failed check aborts the run, so
// a written record never carries equal: false.
func (r *row) audit(kind string, equal bool) {
	r.Audit = &struct {
		Kind  string `json:"kind"`
		Equal bool   `json:"equal"`
	}{kind, equal}
	if !equal {
		fatal("ERROR: %v diverged from its oracle (%s)", r.Case, kind)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func ratio(num, den int64) float64 { return float64(num) / float64(den) }

// fatal reports a runtime failure and exits 1.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}

// run measures every case of bench name at scale into one record. Only an
// unknown bench or scale is an error; failures while measuring abort.
func run(name, scale string, seed uint64, reps int) (record, error) {
	b, ok := benches[name]
	if !ok {
		return record{}, fmt.Errorf("unknown -bench %q (want one of %v)", name, benchNames())
	}
	cases, ok := b.cases[scale]
	if !ok {
		return record{}, fmt.Errorf("unknown -scale %q (want smoke or large)", scale)
	}
	rec := record{Bench: name, Scale: scale, Generated: time.Now().UTC().Format(time.RFC3339)}
	rec.Env.Go, rec.Env.GOOS, rec.Env.GOARCH = runtime.Version(), runtime.GOOS, runtime.GOARCH
	rec.Env.GOMAXPROCS, rec.Env.NProc = runtime.GOMAXPROCS(0), runtime.NumCPU()
	for i, c := range cases {
		fmt.Fprintf(os.Stderr, "benchjson: %s case %d/%d: n=%d d=%d...\n", name, i+1, len(cases), c.n, c.d)
		rec.Rows = append(rec.Rows, b.measure(c, seed, reps)...)
	}
	return rec, nil
}

// encode marshals rec and passes the bytes through parseRecord, so every
// written record is one the shared reader accepts.
func encode(rec record) ([]byte, error) {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	if _, err := parseRecord(data); err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// write encodes rec to out (stdout for "-").
func write(out string, rec record) {
	data, err := encode(rec)
	if err != nil {
		fatal("%v", err)
	}
	if out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("wrote %d rows to %s\n", len(rec.Rows), out)
}

// parseRecord is the one reader for every BENCH record, committed or
// freshly measured. Besides the envelope's shape it enforces the audit
// contract: every row that has an oracle carries an audit with equal:
// true, baseline rows carry none, and traffic rows audit at least one
// message, report a throughput for what they delivered and keep the
// packed-layout bound on burst rows.
func parseRecord(data []byte) (record, error) {
	var rec record
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return rec, err
	}
	if _, ok := benches[rec.Bench]; !ok {
		return rec, fmt.Errorf("unknown bench %q", rec.Bench)
	}
	if rec.Scale != "smoke" && rec.Scale != "large" {
		return rec, fmt.Errorf("%s: unknown scale %q", rec.Bench, rec.Scale)
	}
	if len(rec.Rows) == 0 {
		return rec, fmt.Errorf("%s: no rows", rec.Bench)
	}
	for _, r := range rec.Rows {
		if err := checkRow(rec.Bench, r); err != nil {
			return rec, fmt.Errorf("%s row %v: %w", rec.Bench, r.Case, err)
		}
	}
	return rec, nil
}

func checkRow(bench string, r row) error {
	if len(r.Case) == 0 {
		return errors.New("no case parameters")
	}
	if len(r.NS) == 0 {
		return errors.New("no timed side")
	}
	for side, ns := range r.NS {
		if ns <= 0 || r.Reps[side] < 1 {
			return fmt.Errorf("side %q: ns %d over %d reps", side, ns, r.Reps[side])
		}
	}
	if len(r.Reps) != len(r.NS) {
		return errors.New("reps name a side that was never timed")
	}
	// Baselines: benches without an oracle, and floodpar's serial rows.
	oracle := bench != "warmup" && bench != "edgerate" && !(bench == "floodpar" && r.Case["par"] == 1.0)
	switch {
	case oracle && r.Audit == nil:
		return errors.New("missing audit")
	case !oracle && r.Audit != nil:
		return errors.New("baseline row carries an audit")
	case r.Audit != nil && r.Audit.Kind == "":
		return errors.New("audit names no oracle")
	case r.Audit != nil && !r.Audit.Equal:
		return fmt.Errorf("audit against %s is not equal", r.Audit.Kind)
	}
	if bench != "traffic" {
		return nil
	}
	if r.Values["oracle_audited"] < 1 {
		return errors.New("oracle audited no messages")
	}
	if r.Values["delivered"] > 0 && r.Values["delivered_per_sec"] <= 0 {
		return errors.New("messages delivered at delivered_per_sec <= 0")
	}
	// On burst rows the whole message population floods at once, and from
	// one full word of lanes up the packed layout must undercut the
	// Marks-per-lane baseline by >= 4x (it lands near 38x at M = 64).
	if m, _ := r.Case["messages"].(float64); r.Case["schedule"] == "burst" && m >= 64 && r.Values["informed_reduction_x"] < 4 {
		return fmt.Errorf("informed_reduction_x = %.1f, want >= 4", r.Values["informed_reduction_x"])
	}
	return nil
}

func benchNames() []string {
	names := make([]string, 0, len(benches))
	for name := range benches {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
