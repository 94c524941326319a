package wavesketch

import (
	"umon/internal/flowkey"
	"umon/internal/measure"
)

// Aggregator implements the Agg-Evict software acceleration the paper
// lists as future work (§8, citing Zhou et al.): a small direct-mapped
// front cache coalesces per-(flow, window) byte counts so the sketch's
// hash rows run once per flow-window instead of once per packet. Under
// data-center traffic a flow sends many packets per 8.192 µs window, so
// the reduction is large.
//
// The cache drains at every window boundary, so the inner sketch still
// sees updates in non-decreasing window order (Algorithm 1's streaming
// transform needs that). Over a Basic sketch the answers are then
// bit-identical to per-packet updates: a bucket sums each window's bytes
// whatever their order. Over a Full sketch they are not: coalescing
// reorders the heavy part's majority vote within a window, so a different
// candidate can own a heavy slot or keep different bytes in it
// (TestAggregatorReordersFullHeavyVote). The deployed host agent therefore
// speeds up Full by caching bucket indices (see Full.Update), not by
// coalescing bytes.
type Aggregator struct {
	inner measure.SeriesEstimator
	seed  uint64
	slots []aggSlot
	maxW  int64
	// stats
	packets int64
	pushes  int64
}

type aggSlot struct {
	key    flowkey.Key
	window int64
	bytes  int64
	valid  bool
}

// NewAggregator wraps an estimator with a front cache of the given number
// of lines (rounded up to a power of two, minimum 16).
func NewAggregator(inner measure.SeriesEstimator, lines int) *Aggregator {
	n := 16
	for n < lines {
		n <<= 1
	}
	return &Aggregator{inner: inner, seed: 0xa66e, slots: make([]aggSlot, n)}
}

// Name implements measure.SeriesEstimator.
func (a *Aggregator) Name() string { return a.inner.Name() + "+AggEvict" }

// Update implements measure.SeriesEstimator.
func (a *Aggregator) Update(f flowkey.Key, w int64, v int64) {
	a.packets++
	// Window boundary: drain older aggregates so pushes stay time-ordered.
	if w > a.maxW {
		for i := range a.slots {
			if a.slots[i].valid && a.slots[i].window < w {
				a.pushes++
				a.inner.Update(a.slots[i].key, a.slots[i].window, a.slots[i].bytes)
				a.slots[i].valid = false
			}
		}
		a.maxW = w
	}

	s := &a.slots[f.Hash(a.seed)&uint64(len(a.slots)-1)]
	if s.valid && s.key == f && s.window == w {
		s.bytes += v
		return
	}
	if s.valid {
		a.pushes++
		a.inner.Update(s.key, s.window, s.bytes)
	}
	*s = aggSlot{key: f, window: w, bytes: v, valid: true}
}

// Seal implements measure.SeriesEstimator: flush the cache, then seal.
func (a *Aggregator) Seal() {
	for i := range a.slots {
		if a.slots[i].valid {
			a.pushes++
			a.inner.Update(a.slots[i].key, a.slots[i].window, a.slots[i].bytes)
			a.slots[i].valid = false
		}
	}
	a.inner.Seal()
}

// QueryRange implements measure.SeriesEstimator.
func (a *Aggregator) QueryRange(f flowkey.Key, from, to int64) []float64 {
	return a.inner.QueryRange(f, from, to)
}

// MemoryBytes implements measure.SeriesEstimator (cache lines are ~32 B).
func (a *Aggregator) MemoryBytes() int64 {
	return a.inner.MemoryBytes() + int64(len(a.slots))*32
}

// ReportBytes implements measure.SeriesEstimator.
func (a *Aggregator) ReportBytes() int64 { return a.inner.ReportBytes() }

// Reduction reports the packet-to-push ratio achieved so far (how many
// per-packet sketch updates the cache saved).
func (a *Aggregator) Reduction() float64 {
	if a.pushes == 0 {
		return float64(a.packets)
	}
	return float64(a.packets) / float64(a.pushes)
}
