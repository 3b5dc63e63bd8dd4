package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

func TestParseFlags(t *testing.T) {
	ok := [][]string{
		{"--workload", "flood-1m"},
		{"--workload", "serve-1m", "--seed", "9", "--seconds", "3", "--trace", "1", "--spans", "s.json", "--scale", "smoke"},
	}
	for _, args := range ok {
		if _, err := parseFlags(args, io.Discard); err != nil {
			t.Errorf("parseFlags(%q) = %v, want ok", args, err)
		}
	}
	bad := [][]string{
		{},
		{"--workload", "flood"},
		{"--workload", "flood-1m", "--seconds", "0"},
		{"--workload", "flood-1m", "--trace", "2"},
		{"--workload", "flood-1m", "--spans", "s.json"},
		{"--workload", "flood-1m", "--scale", "large"},
		{"--workload", "flood-1m", "extra"},
		{"--workload", "flood-1m", "--seed", "-1"},
	}
	for _, args := range bad {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%q) accepted a bad command line (main exits 2 on it)", args)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]struct {
		Value float64
		Unit  string
	}
}

// smoke runs one workload at smoke scale for the given time and returns
// its output and whether its checks passed.
func smoke(t *testing.T, workload string, trace bool, seconds time.Duration, corrupt string) (string, bool) {
	t.Helper()
	e := newEnv(config{workload: workload, seed: 3, trace: trace, scale: "smoke"})
	e.seconds, e.corrupt = seconds, corrupt
	var out bytes.Buffer
	ok := run(e, &out, io.Discard)
	return out.String(), ok
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// TestSmokeAllWorkloads runs every workload of BENCHMARK.json untraced and
// traced at smoke scale and checks that each prints every metric the file
// names for that mode, as a `workload metric value unit` line and in the
// final JSON object, and passes its checks.
func TestSmokeAllWorkloads(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				if workloads[i].name != w.Name {
					t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].name)
				}
				out, ok := smoke(t, w.Name, trace, 300*time.Millisecond, "")
				if !ok {
					t.Fatalf("checks failed:\n%s", out)
				}
				var res result
				if err := json.Unmarshal([]byte(lastLine(out)), &res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, out)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v: want correct, attempted >= 1, failed 0", res)
				}
				want := bf.EndToEnd
				if trace {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, found := res.Metrics[m.Name]
					if !found || got.Unit != m.Unit {
						t.Errorf("metric %s: printed %+v (found %v), want unit %s", m.Name, got, found, m.Unit)
					}
					prefix := fmt.Sprintf("\n%s %s ", w.Name, m.Name)
					if !strings.Contains(out, prefix) || !strings.Contains(out, prefix+fmt.Sprint(got.Value)+" "+m.Unit+"\n") {
						t.Errorf("no `%s %s value %s` line", w.Name, m.Name, m.Unit)
					}
				}
			})
		}
	}
}

// TestNegativeControls corrupts the input of each workload's checker —
// a flood.Result, a traffic Result, a tracked set, the audited snapshot —
// and requires the run to report failure, which main turns into exit 1.
func TestNegativeControls(t *testing.T) {
	for _, w := range workloads {
		name := strings.SplitN(w.name, "-", 2)[0]
		t.Run(w.name, func(t *testing.T) {
			out, ok := smoke(t, w.name, false, 100*time.Millisecond, name)
			if ok {
				t.Fatalf("corrupted %s check passed:\n%s", name, out)
			}
			var res result
			if err := json.Unmarshal([]byte(lastLine(out)), &res); err != nil || res.Correct {
				t.Fatalf("result line %q: want correct=false (err %v)", lastLine(out), err)
			}
		})
	}
}
