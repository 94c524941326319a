package wavesketch

import "umon/internal/flowkey"

// RefUpdate is the reference for Full.Update: it derives every index
// afresh per packet, one seeded hash per light row plus one for the heavy
// part, each reduced by modulo. The deployed Update must leave a sketch in
// exactly the state this does.
func RefUpdate(f *Full, k flowkey.Key, w, v int64) {
	if f.cfg.Light.Indexing == IndexOneHash {
		panic("RefUpdate models the per-row indexing only")
	}
	s := f.light
	s.updates++
	for r, seed := range s.seeds {
		s.buckets[r*s.cfg.Width+int(k.Hash(seed)%uint64(s.cfg.Width))].Update(w, v)
	}
	f.updateHeavy(k, int(k.Hash(f.cfg.HeavySeed)%uint64(len(f.heavy))), w, v)
}

// IndexCacheSlot reports the flow→index cache slot k occupies.
func IndexCacheSlot(k flowkey.Key) int { return indexSlot(k) }
