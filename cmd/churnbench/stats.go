package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"github.com/dyngraph/churnnet/internal/stats"
)

// median returns the median of xs, or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}

// tailPercentiles are the percentiles a timing's tail is reported at, with
// the thousandths of the samples that lie beyond each.
var tailPercentiles = []struct {
	pct    float64
	beyond int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}}

// tail returns the highest of tailPercentiles that has at least ten of the
// samples beyond it, and the value there; ok is false when none has, so a
// tail is never read off a handful of samples.
func tail(xs []float64) (pct, value float64, ok bool) {
	for _, p := range tailPercentiles {
		if len(xs)*p.beyond >= 10*1000 {
			return p.pct, stats.Quantile(xs, p.pct/100), true
		}
	}
	return 0, 0, false
}

// timingNote describes a set of timings the way every timing is reported:
// the median, the highest percentile with ten samples beyond it, and the
// sample count.
func timingNote(name string, seconds []float64, scale float64, unit string) string {
	if len(seconds) == 0 {
		return fmt.Sprintf("%s: no samples", name)
	}
	note := fmt.Sprintf("%s: p50 %.4g %s", name, median(seconds)*scale, unit)
	if p, v, ok := tail(seconds); ok {
		note += fmt.Sprintf(", p%g %.4g %s", p, v*scale, unit)
	}
	return note + fmt.Sprintf(", n=%d", len(seconds))
}

// heapSampler reads the live heap, as the last collection marked it, every
// 10ms through runtime/metrics, which does not stop the world, and keeps
// the peak. The live heap leaves out garbage not yet collected, whose
// amount depends on when the collector happened to run; sampling every
// heap object instead read 7% apart between runs of traffic-burst64.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	mu   sync.Mutex
	peak uint64
}

func startHeapSampler() *heapSampler {
	hs := &heapSampler{stop: make(chan struct{})}
	hs.done.Add(1)
	go func() {
		defer hs.done.Done()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			hs.mu.Lock()
			hs.peak = max(hs.peak, sample[0].Value.Uint64())
			hs.mu.Unlock()
			select {
			case <-hs.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return hs
}

// take returns the peak in bytes since the previous take and starts a new
// one.
func (hs *heapSampler) take() uint64 {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	p := hs.peak
	hs.peak = 0
	return p
}

// Stop ends sampling and waits for the sampler to exit.
func (hs *heapSampler) Stop() {
	close(hs.stop)
	hs.done.Wait()
}

// allocated returns the bytes the program has allocated so far.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcStats is the garbage collector's work between two readings.
type gcStats struct {
	num     uint32
	pauseNs uint64
	gcCPU   float64 // seconds of GC CPU time
	allCPU  float64 // seconds of all CPU time
	alloc   uint64  // bytes allocated
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return gcStats{num: ms.NumGC, pauseNs: ms.PauseTotalNs, gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64(), alloc: ms.TotalAlloc}
}

func (b gcStats) since(a gcStats) gcStats {
	return gcStats{num: b.num - a.num, pauseNs: b.pauseNs - a.pauseNs, gcCPU: b.gcCPU - a.gcCPU, allCPU: b.allCPU - a.allCPU, alloc: b.alloc - a.alloc}
}
