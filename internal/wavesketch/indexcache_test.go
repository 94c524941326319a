package wavesketch_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"umon/internal/flowkey"
	"umon/internal/measure"
	"umon/internal/report"
	"umon/internal/wavesketch"
)

// cacheStressKeys returns a key pool: the zero key, random flows,
// and a group of keys that all land on one index-cache slot, so they keep
// evicting each other.
func cacheStressKeys(rng *rand.Rand) (pool, clash []flowkey.Key) {
	bySlot := map[int][]flowkey.Key{}
	for i := 0; ; i++ {
		k := flowkey.Key{SrcIP: 0x0a000000 | uint32(i>>4), DstIP: 0x0a010000 | uint32(rng.Intn(64)),
			SrcPort: uint16(rng.Intn(1 << 16)), DstPort: flowkey.RoCEPort, Proto: flowkey.ProtoUDP}
		if i == 0 {
			k = flowkey.Key{} // the key every cache slot is primed with
		}
		if i < 300 {
			pool = append(pool, k)
		}
		s := wavesketch.IndexCacheSlot(k)
		bySlot[s] = append(bySlot[s], k)
		if i >= 300 && len(bySlot[s]) >= 4 {
			return pool, bySlot[s]
		}
	}
}

// sealedBytes seals f and returns its encoded report.
func sealedBytes(t *testing.T, f *wavesketch.Full, epoch int64) []byte {
	t.Helper()
	f.Seal()
	var buf bytes.Buffer
	if _, err := report.FromFull(0, epoch, f).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFullIndexCacheExact: the deployed Full.Update, which takes its
// indices from the flow→index cache, must leave the sketch byte-identical
// to one that derives every index afresh per packet (RefUpdate). The
// streams mix random flows, flows that share one cache slot, and
// alternating flow pairs that defeat the last-flow fast path, over
// power-of-two (mask) and other (modulo) geometries, single- and
// multi-row light parts, and several epochs with Reset in between.
func TestFullIndexCacheExact(t *testing.T) {
	geoms := []struct{ rows, width, heavy int }{
		{1, 256, 256}, {3, 256, 256}, {1, 200, 255}, {3, 200, 255}, {3, 256, 255}, {1, 200, 256},
	}
	for _, g := range geoms {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("rows%d_w%d_h%d_seed%d", g.rows, g.width, g.heavy, seed), func(t *testing.T) {
				cfg := wavesketch.DefaultFull()
				cfg.Light.Rows, cfg.Light.Width, cfg.HeavyRows = g.rows, g.width, g.heavy
				got, err := wavesketch.NewFull(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref, _ := wavesketch.NewFull(cfg)
				rng := rand.New(rand.NewSource(seed))
				pool, clash := cacheStressKeys(rng)
				var batch []measure.Sample
				for epoch := int64(0); epoch < 4; epoch++ {
					w := epoch * 4096
					for i := 0; i < 6000; i++ {
						if rng.Intn(8) == 0 {
							w += int64(rng.Intn(3))
						}
						var ks []flowkey.Key
						switch rng.Intn(4) {
						case 0: // a run within the cache-slot clash group
							for j := 0; j < 4; j++ {
								ks = append(ks, clash[rng.Intn(len(clash))])
							}
						case 1: // two flows alternating: no packet repeats its predecessor
							for j := 0; j < 8; j++ {
								ks = append(ks, pool[(j&1)*7])
							}
						default: // one random flow, back-to-back repeats
							k := pool[rng.Intn(len(pool))]
							for j := rng.Intn(3); j >= 0; j-- {
								ks = append(ks, k)
							}
						}
						for _, k := range ks {
							v := int64(64 + rng.Intn(1400))
							feedCached(got, &batch, epoch, k, w, v)
							wavesketch.RefUpdate(ref, k, w, v)
						}
					}
					got.UpdateBatch(batch)
					batch = batch[:0]
					a, b := sealedBytes(t, got, epoch), sealedBytes(t, ref, epoch)
					if !bytes.Equal(a, b) {
						t.Fatalf("epoch %d: cached report (%d B) differs from fresh-index reference (%d B)", epoch, len(a), len(b))
					}
					got.Reset()
					ref.Reset()
				}
			})
		}
	}
}

// feedCached feeds odd epochs through UpdateBatch and even ones
// through Update, so both production entry points are checked.
func feedCached(f *wavesketch.Full, batch *[]measure.Sample, epoch int64, k flowkey.Key, w, v int64) {
	if epoch%2 == 1 {
		*batch = append(*batch, measure.Sample{Key: k, Window: w, Bytes: v})
		return
	}
	f.Update(k, w, v)
}
