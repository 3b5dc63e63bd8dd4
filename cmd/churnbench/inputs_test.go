package main

import (
	"reflect"
	"testing"
)

// TestInputsArePureFunctionsOfTheSeed pins that every generated input —
// repetition seeds, traffic sources and serve scripts — repeats exactly
// for the same seed and changes with it.
func TestInputsArePureFunctionsOfTheSeed(t *testing.T) {
	if repSeed(1, 0) != repSeed(1, 0) || repSeed(1, 0) == repSeed(2, 0) || repSeed(1, 0) == repSeed(1, 1) {
		t.Fatal("repetition seeds must repeat per (seed, rep) and differ across them")
	}

	a, b := trafficSources(5, 1000, burst), trafficSources(5, 1000, burst)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("traffic sources differ for the same seed")
	}
	if reflect.DeepEqual(a, trafficSources(6, 1000, burst)) {
		t.Fatal("traffic sources are the same for different seeds")
	}
	seen := map[int]bool{}
	for _, i := range a {
		if i < 0 || i >= 1000 || seen[i] {
			t.Fatalf("sources %v are not distinct positions in [0, 1000)", a)
		}
		seen[i] = true
	}

	draw := func(seed uint64, client int) []request {
		sc := newScript(seed, client, 1000)
		out := make([]request, 5000)
		for i := range out {
			out[i] = sc.next()
		}
		return out
	}
	s := draw(5, 0)
	if !reflect.DeepEqual(s, draw(5, 0)) {
		t.Fatal("client scripts differ for the same seed")
	}
	if reflect.DeepEqual(s, draw(6, 0)) || reflect.DeepEqual(s, draw(5, 1)) {
		t.Fatal("client scripts repeat across seeds or clients")
	}

	var kinds [5]int
	own := 0
	for _, r := range s {
		kinds[r.kind]++
		switch r.kind {
		case reqJoin:
			own++
		case reqLeave:
			if own--; own < 0 {
				t.Fatal("the script leaves a node it never joined")
			}
		case reqNodeInfo:
			if r.node >= 1000 {
				t.Fatalf("node-info target %d outside the seeded population", r.node)
			}
		}
	}
	// The mix: about 70% node-info, 10% status, 10% joins, 9% leaves, 1% steps.
	want := [5]float64{0.70, 0.10, 0.10, 0.09, 0.01}
	for k, n := range kinds {
		if f := float64(n) / float64(len(s)); f < want[k]-0.03 || f > want[k]+0.03 {
			t.Errorf("request kind %d makes %.3f of the script, want about %.2f", k, f, want[k])
		}
	}
}
