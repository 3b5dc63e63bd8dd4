package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestValidateFlags pins the -reps >= 1 guard rail (main exits with
// status 2 on error).
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		reps    int
		wantErr bool
	}{
		{"defaults", 3, false},
		{"one rep", 1, false},
		{"zero reps", 0, true},
		{"negative reps", -2, true},
	}
	for _, c := range cases {
		err := validateFlags(c.reps)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: validateFlags = %v, wantErr %v", c.name, err, c.wantErr)
		}
	}
}

// TestSmokeRecords measures benches at smoke scale and passes each record
// through the shared reader, which rejects any audit that is not equal.
// (Divergence also aborts the run with exit 1; the reader keeps the
// guarantee even if that aborting path regresses.) serve's rate-limited
// case needs an inject with no later command to be published.
func TestSmokeRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke benches skipped in -short mode")
	}
	for _, name := range []string{"floodpar", "traffic", "serve"} {
		t.Run(name, func(t *testing.T) {
			rec, err := run(name, "smoke", 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := encode(rec); err != nil { // encode runs the shared reader
				t.Fatal(err)
			}
			if name == "floodpar" && !hasRow(rec, "op", "wire-fill") {
				t.Error("floodpar smoke record has no wire-fill rows")
			}
		})
	}
}

func hasRow(rec record, param string, want any) bool {
	for _, r := range rec.Rows {
		if r.Case[param] == want {
			return true
		}
	}
	return false
}

// TestCommittedRecordsEqualityColumns parses every committed benchmark
// record with the shared reader, so a record regenerated elsewhere (e.g.
// the multi-core CI job) cannot be committed with a silent divergence or
// in another schema.
func TestCommittedRecordsEqualityColumns(t *testing.T) {
	for _, name := range benchNames() {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			rec, err := parseRecord(data)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Bench != name {
				t.Errorf("BENCH_%s.json holds bench %q", name, rec.Bench)
			}
		})
	}
}

// validTraffic is a minimal traffic record the reader accepts: one burst
// row at M = 64 with an equal audit.
func validTraffic() record {
	rec := record{Bench: "traffic", Scale: "smoke", Generated: "2026-01-01T00:00:00Z"}
	r := newRow(1, map[string]any{"model": "SDGR", "n": 2000, "d": 21, "schedule": "burst", "gap": 1, "messages": 64, "par": 1})
	r.keepMin("traffic", 1000)
	r.Values["oracle_audited"] = 64
	r.Values["informed_reduction_x"] = 38
	r.Values["delivered"] = 64
	r.Values["delivered_per_sec"] = 1
	r.audit("flood.RunReference replay", true)
	rec.Rows = []row{r}
	return rec
}

// TestRecordReaderRejects is the negative control of every rejection the
// shared reader makes: each mutation of a valid record must fail with the
// named reason.
func TestRecordReaderRejects(t *testing.T) {
	if _, err := parseRecord(mustMarshal(t, validTraffic())); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(rec *record)
		want   string
	}{
		{"unknown bench", func(rec *record) { rec.Bench = "nosuch" }, "unknown bench"},
		{"unknown scale", func(rec *record) { rec.Scale = "huge" }, "unknown scale"},
		{"no rows", func(rec *record) { rec.Rows = nil }, "no rows"},
		{"no case", func(rec *record) { rec.Rows[0].Case = nil }, "no case parameters"},
		{"no timed side", func(rec *record) { rec.Rows[0].NS, rec.Rows[0].Reps = nil, nil }, "no timed side"},
		{"zero ns", func(rec *record) { rec.Rows[0].NS["traffic"] = 0 }, "ns 0"},
		{"side without reps", func(rec *record) { delete(rec.Rows[0].Reps, "traffic") }, "over 0 reps"},
		{"reps without side", func(rec *record) { rec.Rows[0].Reps["oracle"] = 1 }, "never timed"},
		{"missing audit", func(rec *record) { rec.Rows[0].Audit = nil }, "missing audit"},
		{"baseline with audit", func(rec *record) { rec.Bench = "warmup" }, "baseline row carries an audit"},
		{"audit without kind", func(rec *record) { rec.Rows[0].Audit.Kind = "" }, "names no oracle"},
		{"unequal audit", func(rec *record) { rec.Rows[0].Audit.Equal = false }, "is not equal"},
		{"no audited message", func(rec *record) { rec.Rows[0].Values["oracle_audited"] = 0 }, "audited no messages"},
		{"zero throughput", func(rec *record) { rec.Rows[0].Values["delivered_per_sec"] = 0 }, "delivered_per_sec"},
		{"packed layout bound", func(rec *record) { rec.Rows[0].Values["informed_reduction_x"] = 3.9 }, "want >= 4"},
	}
	for _, c := range cases {
		rec := validTraffic()
		c.mutate(&rec)
		if _, err := parseRecord(mustMarshal(t, rec)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: parseRecord error = %v, want one containing %q", c.name, err, c.want)
		}
	}
	// A pre-envelope record (a top-level "cases" list) is not a record.
	if _, err := parseRecord([]byte(`{"benchmark": "traffic", "cases": []}`)); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("old-schema record: parseRecord error = %v, want an unknown-field error", err)
	}
}

func mustMarshal(t *testing.T, rec record) []byte {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWarmupValuesFollowSeed pins the warmup record's snapshot values to
// the seed: two measurements of the n = 2000 smoke cases at one seed give
// equal values apart from the timing ratio, whichever repetition ran
// fastest in each.
func TestWarmupValuesFollowSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke benches skipped in -short mode")
	}
	for _, c := range benches["warmup"].cases["smoke"] {
		if c.n != 2000 {
			continue
		}
		var values [2]map[string]float64
		for i := range values {
			rows := measureWarmup(c, 5, 3)
			values[i] = rows[0].Values
			delete(values[i], "speedup")
		}
		if !reflect.DeepEqual(values[0], values[1]) {
			t.Errorf("%v n=%d: values differ between two runs at one seed:\n%v\n%v", c.kind, c.n, values[0], values[1])
		}
	}
}
