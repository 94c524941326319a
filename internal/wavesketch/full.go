package wavesketch

import (
	"fmt"

	"umon/internal/flowkey"
	"umon/internal/measure"
)

// FullConfig parameterizes the full version of WaveSketch (§4.2): a heavy
// part — a hash table electing heavy flows by majority vote, each with its
// own wavelet bucket — in front of a basic-version light part that counts
// every packet.
type FullConfig struct {
	HeavyRows int // h: heavy-part hash table size (paper Table 1: 256)
	HeavySeed uint64
	Light     Config // light part; paper Table 1 uses D=1, W=256
}

// DefaultFull mirrors the Table 1 configuration: h=256 heavy slots, light
// part with a single row of 256 buckets, L=8, K=64 on both parts.
func DefaultFull() FullConfig {
	light := Default(64)
	light.Rows = 1
	return FullConfig{HeavyRows: 256, HeavySeed: 0x48455659, Light: light}
}

type heavySlot struct {
	key    flowkey.Key
	vote   int64
	valid  bool
	bucket Bucket // slab-resident: the heavy part is one contiguous array
}

// Full is the full-version WaveSketch. It implements
// measure.SeriesEstimator.
type Full struct {
	cfg    FullConfig
	heavy  []heavySlot
	light  *Basic
	slots  reducer // heavy-part hash → slot
	index  indexCache
	sealed bool
}

// Each Full's flow→index cache has 2^indexCacheBits slots, well above the
// few hundred flows a host sends in one epoch.
const (
	indexCacheBits  = 10
	indexCacheSlots = 1 << indexCacheBits
)

// indexCache memoizes the per-packet index derivation of Update (one hash
// per light row plus one for the heavy part). It is direct-mapped: slot i
// holds keys[i] and, at idx[i*stride:], that key's heavy slot followed by
// its Light.Rows slab indices. Indices are a pure function of the key and
// the immutable config, so an entry is never stale: it stays valid across
// Reset and every epoch, and a miss just overwrites the slot. Every slot
// starts out holding the zero key and its indices, so no valid bit exists.
// Only Update reads or writes the cache; query paths derive indices
// directly, which keeps concurrent read-only queries safe.
//
// The cache is host-CPU memo state, not sketch state: MemoryBytes, which
// models the Table 1 device memory the figures budget, leaves it out.
type indexCache struct {
	keys   []flowkey.Key
	idx    []int32
	stride int
	last   int // slot the previous packet used
}

func (c *indexCache) init(f *Full) {
	c.keys = make([]flowkey.Key, indexCacheSlots)
	c.stride = 1 + f.cfg.Light.Rows
	c.idx = make([]int32, indexCacheSlots*c.stride)
	c.fill(f, 0, flowkey.Key{})
	for s := 1; s < indexCacheSlots; s++ {
		copy(c.idx[s*c.stride:], c.idx[:c.stride])
	}
}

// fill derives k's indices the uncached way into slot s.
func (c *indexCache) fill(f *Full, s int, k flowkey.Key) {
	c.keys[s] = k
	e := c.idx[s*c.stride : (s+1)*c.stride]
	e[0] = int32(f.heavyIdx(k))
	for r := range e[1:] {
		e[1+r] = int32(f.light.bucketIndex(k, r))
	}
}

// indexSlot is the one-multiply cache hash: fold the 13 key bytes into a word
// (ports land on the IPs' high halves, which barely vary inside a fabric)
// and keep the top bits of a Fibonacci multiply.
func indexSlot(k flowkey.Key) int {
	x := uint64(k.SrcIP)<<32 | uint64(k.DstIP)
	x ^= uint64(k.SrcPort)<<48 | uint64(k.DstPort)<<16 | uint64(k.Proto)<<40
	return int((x * 0x9e3779b97f4a7c15) >> (64 - indexCacheBits))
}

// lookup returns k's heavy slot and light slab indices. A packet of the
// same flow as the previous one skips even the slot hash.
func (c *indexCache) lookup(f *Full, k flowkey.Key) []int32 {
	s := c.last
	if c.keys[s] != k {
		s = indexSlot(k)
		if c.keys[s] != k {
			c.fill(f, s, k)
		}
		c.last = s
	}
	return c.idx[s*c.stride : (s+1)*c.stride]
}

// NewFull builds a full WaveSketch.
func NewFull(cfg FullConfig) (*Full, error) {
	if cfg.HeavyRows < 1 {
		return nil, fmt.Errorf("wavesketch: need HeavyRows ≥ 1, got %d", cfg.HeavyRows)
	}
	light, err := NewBasic(cfg.Light)
	if err != nil {
		return nil, err
	}
	f := &Full{cfg: cfg, light: light, slots: newReducer(cfg.HeavyRows)}
	f.heavy = make([]heavySlot, cfg.HeavyRows)
	for i := range f.heavy {
		f.heavy[i].bucket.Init(cfg.Light.Levels, cfg.Light.newSink())
	}
	f.index.init(f)
	return f, nil
}

// Name implements measure.SeriesEstimator.
func (f *Full) Name() string { return f.cfg.Light.Variant.String() + "-Full" }

// Config returns the sketch configuration (used by streaming hosts to
// build an identically-shaped spare sketch for swap-and-reset sealing).
func (f *Full) Config() FullConfig { return f.cfg }

// heavyIdx maps a key to its heavy slot. Each entry point (Update and the
// query path) computes it exactly once and passes it down — the heavy-part
// hash used to be recomputed by both. In one-hash mode the index is
// derived from the second word of the same Hash128 that indexes the light
// rows, so the whole full-version update costs a single hash.
func (f *Full) heavyIdx(k flowkey.Key) int {
	if f.cfg.Light.Indexing == IndexOneHash {
		_, h2 := k.Hash128(f.cfg.Light.Seed)
		return int(flowkey.FastRange(h2, uint64(len(f.heavy))))
	}
	return int(f.slots.reduce(k.Hash(f.cfg.HeavySeed)))
}

// Update implements measure.SeriesEstimator. Per §4.2, the light part is
// updated for *every* packet (so evicting a heavy candidate loses nothing),
// while the heavy slot tracks the current majority-vote candidate. Per-row
// indices come from the flow→index cache, so a flow pays for its hashes
// once, not once per packet; buckets and update order are exactly those
// of deriving the indices afresh.
func (f *Full) Update(k flowkey.Key, w int64, v int64) {
	if f.cfg.Light.Indexing == IndexOneHash {
		// One hash for the whole sketch: light rows from (h1, h2), heavy
		// slot from h2.
		h1, h2 := k.Hash128(f.cfg.Light.Seed)
		f.light.updates++
		f.light.updateOneHash(h1, h2, w, v)
		f.updateHeavy(k, int(flowkey.FastRange(h2, uint64(len(f.heavy)))), w, v)
		return
	}
	e := f.index.lookup(f, k)
	f.light.updates++
	for _, b := range e[1:] {
		f.light.buckets[b].Update(w, v)
	}
	f.updateHeavy(k, int(e[0]), w, v)
}

// UpdateBatch implements measure.BatchUpdater; it is equivalent to calling
// Update for every sample in slice order and allocates nothing.
func (f *Full) UpdateBatch(batch []measure.Sample) {
	for i := range batch {
		sm := &batch[i]
		f.Update(sm.Key, sm.Window, sm.Bytes)
	}
}

// updateHeavy runs the majority-vote election on the slot at idx.
func (f *Full) updateHeavy(k flowkey.Key, idx int, w int64, v int64) {
	slot := &f.heavy[idx]
	switch {
	case !slot.valid:
		slot.valid = true
		slot.key = k
		slot.vote = v
		slot.bucket.Reset()
		slot.bucket.Update(w, v)
	case slot.key == k:
		slot.vote += v
		slot.bucket.Update(w, v)
	default:
		slot.vote -= v
		if slot.vote < 0 {
			// Majority vote flipped: evict the candidate. Its traffic is
			// fully present in the light part, so the heavy bucket is
			// simply discarded (§4.2).
			slot.key = k
			slot.vote = v
			slot.bucket.Reset()
			slot.bucket.Update(w, v)
		}
	}
}

// Seal implements measure.SeriesEstimator.
func (f *Full) Seal() {
	if f.sealed {
		return
	}
	f.sealed = true
	f.light.Seal()
	for i := range f.heavy {
		if f.heavy[i].valid {
			f.heavy[i].bucket.Seal()
		}
	}
}

// heavyFor returns the heavy slot currently owned by k, if any.
func (f *Full) heavyFor(k flowkey.Key) *heavySlot {
	slot := &f.heavy[f.heavyIdx(k)]
	if slot.valid && slot.key == k {
		return slot
	}
	return nil
}

// IsHeavy reports whether k currently owns a heavy slot.
func (f *Full) IsHeavy(k flowkey.Key) bool { return f.heavyFor(k) != nil }

// HeavyFlows lists the flows currently elected into the heavy part.
func (f *Full) HeavyFlows() []flowkey.Key {
	var out []flowkey.Key
	for i := range f.heavy {
		if f.heavy[i].valid {
			out = append(out, f.heavy[i].key)
		}
	}
	return out
}

// QueryRange implements measure.SeriesEstimator. Heavy flows are answered
// from their dedicated bucket; windows before the heavy bucket's first
// window (a candidate elected mid-flow) fall back to the light part, which
// counts every packet. Mice flows are answered from the light part after
// subtracting the reconstructed curves of heavy flows that share each
// light bucket (§4.2: "subtract the value of the heavy part flows when
// reconstructing the light part").
func (f *Full) QueryRange(k flowkey.Key, from, to int64) []float64 {
	if slot := f.heavyFor(k); slot != nil {
		if to < from {
			to = from
		}
		est := slot.bucket.Reconstruct(from, to)
		if w0 := slot.bucket.W0(); w0 > from {
			// Early windows come from the light estimate of this flow.
			cut := w0
			if cut > to {
				cut = to
			}
			early := f.lightEstimate(k, from, cut)
			copy(est[:cut-from], early)
		}
		return est
	}
	return f.lightEstimate(k, from, to)
}

// lightEstimate is the light-part Count-Min estimate with co-located
// heavy-flow subtraction.
func (f *Full) lightEstimate(k flowkey.Key, from, to int64) []float64 {
	buckets := f.light.bucketsFor(k)
	deduct := make([][]float64, len(buckets))
	for i := range f.heavy {
		slot := &f.heavy[i]
		if !slot.valid || slot.key == k {
			continue
		}
		hb := f.light.bucketsFor(slot.key)
		var curve []float64
		for bi, b := range buckets {
			for _, ob := range hb {
				if ob == b {
					if curve == nil {
						curve = slot.bucket.Reconstruct(from, to)
					}
					if deduct[bi] == nil {
						deduct[bi] = make([]float64, to-from)
					}
					for j := range curve {
						deduct[bi][j] += curve[j]
					}
					break
				}
			}
		}
	}
	return minAcross(buckets, from, to, deduct)
}

// MemoryBytes implements measure.SeriesEstimator.
func (f *Full) MemoryBytes() int64 {
	total := f.light.MemoryBytes()
	for i := range f.heavy {
		total += 13 + 8 // key (13B packed) + vote
		total += f.heavy[i].bucket.StateBytes(f.cfg.Light.K)
	}
	return total
}

// ReportBytes implements measure.SeriesEstimator.
func (f *Full) ReportBytes() int64 {
	total := f.light.ReportBytes()
	for i := range f.heavy {
		if f.heavy[i].valid {
			total += 13 + f.heavy[i].bucket.ReportBytes()
		}
	}
	return total
}

// Reset clears both parts for a new measurement period. Slots are reset in
// place: heavy buckets are slab-resident values, never copied. The index
// cache is kept: its entries depend only on keys and the config.
func (f *Full) Reset() {
	f.sealed = false
	f.light.Reset()
	for i := range f.heavy {
		slot := &f.heavy[i]
		slot.key = flowkey.Key{}
		slot.vote = 0
		slot.valid = false
		slot.bucket.Reset()
	}
}
