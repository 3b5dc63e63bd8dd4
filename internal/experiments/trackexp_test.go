package experiments

import (
	"runtime"
	"strings"
	"testing"
)

// TestTrackExpansionMode pins the -trackexp wiring: the expansion
// experiments run on the event-driven tracker, report the measurement-mode
// note, and still reproduce the paper's shape — regeneration rows pass
// the 0.1 bound and the no-regeneration band stays ≥ 0.1 — at smoke scale.
func TestTrackExpansionMode(t *testing.T) {
	for _, id := range []string{"F3", "F8"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("unknown experiment %s", id)
			}
			tab := e.Run(Config{Scale: Smoke, Seed: 5, TrackExpansion: true})
			md := tab.Markdown()
			if !strings.Contains(md, "event-driven tracker") {
				t.Fatalf("%s: tracked table missing the measurement-mode note:\n%s", id, md)
			}
			if strings.Contains(md, "fail") {
				t.Fatalf("%s: tracked run failed the paper's bound:\n%s", id, md)
			}
		})
	}
}

// TestTrackExpansionParallelismInvariance pins bit-identical tables across
// the worker counts of FloodParallelism, which shards the tracker's
// seeding sweep, serial through auto.
func TestTrackExpansionParallelismInvariance(t *testing.T) {
	e, ok := ByID("F8")
	if !ok {
		t.Fatal("unknown experiment F8")
	}
	base := Config{Scale: Smoke, Seed: 9, TrackExpansion: true, FloodParallelism: 1}
	want := e.Run(base).Markdown()
	for _, par := range []int{2, 4, runtime.GOMAXPROCS(0), -1} {
		cfg := base
		cfg.FloodParallelism = par
		if got := e.Run(cfg).Markdown(); got != want {
			t.Fatalf("FloodParallelism %d produced a different table than serial:\n--- serial\n%s\n--- par=%d\n%s",
				par, want, par, got)
		}
	}
}

// TestTrackExpansionOffMatchesEstimate guards the committed record: with
// TrackExpansion unset, the expansion tables must be exactly the
// per-snapshot Estimate output (the tracked path must not perturb the
// default pipeline's draws).
func TestTrackExpansionOffMatchesEstimate(t *testing.T) {
	e, ok := ByID("F8")
	if !ok {
		t.Fatal("unknown experiment F8")
	}
	a := e.Run(Config{Scale: Smoke, Seed: 3}).Markdown()
	b := e.Run(Config{Scale: Smoke, Seed: 3, FloodParallelism: 4}).Markdown()
	if a != b {
		t.Fatal("FloodParallelism changed the untracked table")
	}
	if strings.Contains(a, "event-driven tracker") {
		t.Fatal("untracked table carries the tracked-mode note")
	}
}
