package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile
// for it to count as measured rather than as the run's maximum.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of
// sorted, and how many samples lie strictly beyond the selected rank.
// An empty input yields NaN.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	r := rank(n, p)
	return sorted[r-1], n - r
}

// rank is the 1-based nearest-rank position of the p-quantile among n
// samples.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n))), 1), n)
}

// sortedCopy returns vs sorted ascending, leaving vs untouched.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median of an unsorted slice (NaN when empty).
func median(vs []float64) float64 {
	s := sortedCopy(vs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// clock is the one monotonic clock every timestamp of a run is read
// from: nanoseconds since the clock was created.
type clock struct{ base time.Time }

func newClock() clock { return clock{base: time.Now()} }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is the cumulative bytes allocated on the heap.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// heapSampler tracks the peak of HeapInuse (in-use heap spans) over
// an interval, read through runtime/metrics so sampling never stops
// the world. Only its goroutine touches peak until finish has waited
// for it.
type heapSampler struct {
	peak uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

var heapInuseMetrics = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
}

func heapInuse(buf []metrics.Sample) uint64 {
	metrics.Read(buf)
	var sum uint64
	for _, s := range buf {
		if s.Value.Kind() == metrics.KindUint64 {
			sum += s.Value.Uint64()
		}
	}
	return sum
}

func newMetricSamples() []metrics.Sample {
	buf := make([]metrics.Sample, len(heapInuseMetrics))
	for i, name := range heapInuseMetrics {
		buf[i].Name = name
	}
	return buf
}

// baselineHeap collects garbage and returns the HeapInuse left: the
// pre-rendered inputs and started servers, before the timed phase.
func baselineHeap() uint64 {
	runtime.GC()
	return heapInuse(newMetricSamples())
}

// startHeapSampler samples HeapInuse every interval until stopped.
func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	buf := newMetricSamples()
	h.peak = heapInuse(buf)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.peak = max(h.peak, heapInuse(buf))
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak seen.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.wg.Wait()
	return max(h.peak, heapInuse(newMetricSamples()))
}
