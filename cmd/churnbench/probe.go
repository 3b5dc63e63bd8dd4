package main

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// The machine-speed probe. On a shared host the same code runs up to a
// third faster or slower from one minute to the next, far more than any
// regression bound, so every time the benchmark reports is scaled to a
// reference speed: a time t measured in a run whose probes took p (their
// median) is reported as t·probeRef/p.
//
// The workloads are bound by memory: they chase pointers through graphs
// larger than the last-level cache and allocate fresh memory by the
// gigabyte. So a probe times two fixed loops, each on as many goroutines
// as the engines have shards: a pointer chase through a table larger than
// the last-level cache, which tracks memory latency under the
// neighbours' load, and a write to every page of freshly mapped
// memory, which tracks the cost of faulting memory in. Over ten minutes of
// alternating probes and operations, scaling by their geometric mean cut
// the spread of traffic-burst64 bursts from 21% to 10%, of flood-1m
// broadcasts from 36% to 12% and of model sampling from 22% to 8%; a
// CPU-bound loop tracked none of them as well. The probe calls no code of
// this repository, so no change to the simulator moves it, and its memory
// lives outside the Go heap, so it changes neither the measured heap nor
// when the collector runs. The raw times are in the comment lines and the
// probe in machine.probe_ms.

// probeRef is the probe's time, in seconds, at the reference speed: its
// typical time on the two-core Xeon host the baseline was recorded on.
const probeRef = 0.05

const (
	probeChases = 400_000  // chase steps per goroutine
	probeFresh  = 64 << 20 // bytes of fresh memory each goroutine writes
	pageBytes   = 4096
)

// speedProbe holds the chase table: little-endian uint32 indices forming
// one cycle through every entry.
type speedProbe struct {
	table []byte
}

// newSpeedProbe builds a table of the given size, a power of two. The
// cycle is the full-period recurrence j → a·j + c mod n, so building it
// takes one pass and following it defeats the prefetchers.
func newSpeedProbe(bytes int) *speedProbe {
	p := &speedProbe{table: mapMemory(bytes)}
	n := uint64(bytes / 4)
	for j := uint64(0); j < n; j++ {
		binary.LittleEndian.PutUint32(p.table[4*j:], uint32((6364136223846793005*j+1442695040888963407)&(n-1)))
	}
	return p
}

// run times both loops and returns the geometric mean of their wall
// times, in seconds.
func (p *speedProbe) run() float64 {
	half := uint32(len(p.table) / 8)
	chase := onShards(func(w int) uint64 {
		j := uint32(w) * half
		for i := 0; i < probeChases; i++ {
			j = binary.LittleEndian.Uint32(p.table[4*j:])
		}
		return uint64(j)
	})
	fresh := onShards(func(int) uint64 {
		b := mapMemory(probeFresh)
		for i := 0; i < len(b); i += pageBytes {
			b[i] = 1
		}
		unmapMemory(b)
		return 1
	})
	return math.Sqrt(chase * fresh)
}

// probeSink keeps the loops' results alive.
var probeSink atomic.Uint64

// onShards runs fn on `shards` goroutines at once and returns the wall
// time in seconds.
func onShards(fn func(w int) uint64) float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	wg.Add(shards)
	for w := 0; w < shards; w++ {
		go func(w int) {
			defer wg.Done()
			probeSink.Add(fn(w))
		}(w)
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}
