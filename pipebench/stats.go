package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
)

// samples is a latency distribution kept whole, so percentiles are exact.
type samples []float64

// tail reports the value at quantile q by nearest rank, lowering q when
// fewer than ten samples lie beyond it: the highest percentile the sample
// count supports. It returns the quantile used and the sample count.
func (s samples) tail(q float64) (v, used float64, n int) {
	n = len(s)
	if n == 0 {
		return 0, q, 0
	}
	used = q
	if beyond := float64(n) * (1 - q); beyond < 10 {
		used = math.Max(0, 1-10/float64(n))
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	i := int(math.Ceil(used*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], used, n
}

// runtimeStats reads the Go runtime counters the benchmark reports.
// Heap-in-use sampling uses runtime/metrics, which does not stop the
// world; pause totals come from one ReadMemStats at each end of a phase.
type runtimeStats struct {
	allocBytes uint64
	gcCycles   uint64
	pauseNs    uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRuntime() runtimeStats {
	metrics.Read(runtimeSamples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeStats{
		allocBytes: runtimeSamples[0].Value.Uint64(),
		gcCycles:   runtimeSamples[1].Value.Uint64(),
		pauseNs:    ms.PauseTotalNs,
	}
}

// heapGauge tracks the peak live heap: the bytes the last GC cycle found
// reachable. Unlike heap-in-use, it does not swing with how much garbage
// the GC pacer lets accumulate, which scales with the whole heap
// (captures included) rather than with the pipeline's own state.
type heapGauge struct {
	sample []metrics.Sample
	peak   uint64
}

func newHeapGauge() *heapGauge {
	return &heapGauge{sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

// read samples the live heap less exclude, the bytes the benchmark itself
// holds (the probe check's report copies), and updates the peak.
func (g *heapGauge) read(exclude uint64) uint64 {
	metrics.Read(g.sample)
	v := g.sample[0].Value.Uint64()
	v -= min(v, exclude)
	if v > g.peak {
		g.peak = v
	}
	return v
}
