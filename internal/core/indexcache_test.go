package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"testing"

	"umon/internal/flowkey"
	"umon/internal/netsim"
	"umon/internal/workload"
)

type egressPkt struct {
	host int
	key  flowkey.Key
	ns   int64
	size int
}

// workloadEgress expands a generated Hadoop workload into each host's
// egress packets: a host's active flows share its 100 Gbps link round-robin,
// one ≤1000 B payload (+58 B of headers) per turn, and the per-host streams
// are merged in time order.
func workloadEgress(t *testing.T) []egressPkt {
	t.Helper()
	flows, err := workload.Generate(workload.Config{
		Dist: workload.FacebookHadoop(), Load: 0.35, Hosts: 4,
		LinkBps: 100e9, DurationNs: 10_000_000, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	byHost := map[int][]workload.Flow{}
	for _, f := range flows {
		byHost[f.Src] = append(byHost[f.Src], f)
	}
	var out []egressPkt
	for h, fs := range byHost {
		type active struct {
			key  flowkey.Key
			left int64
		}
		var act []active
		ns, rr := int64(0), 0
		for len(fs) > 0 || len(act) > 0 {
			if len(act) == 0 && fs[0].StartNs > ns {
				ns = fs[0].StartNs
			}
			for len(fs) > 0 && fs[0].StartNs <= ns {
				f := fs[0]
				act = append(act, active{flowkey.Key{SrcIP: netsim.HostIP(f.Src), DstIP: netsim.HostIP(f.Dst),
					SrcPort: uint16(f.ID), DstPort: flowkey.RoCEPort, Proto: flowkey.ProtoUDP}, f.Bytes})
				fs = fs[1:]
			}
			rr %= len(act)
			a := &act[rr]
			payload := min(a.left, 1000)
			size := int(payload) + 58
			out = append(out, egressPkt{h, a.key, ns, size})
			ns += int64(size) * 8 / 100 // ns on a 100 Gbps link
			if a.left -= payload; a.left == 0 {
				act = append(act[:rr], act[rr+1:]...)
			} else {
				rr++
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].ns != out[j].ns {
			return out[i].ns < out[j].ns
		}
		return out[i].host < out[j].host
	})
	return out
}

// freshIndexDigest is the SHA-256 of the reports a 1 ms HostMonitor per
// host uploads for workloadEgress, as produced by a WaveSketch that
// derives every bucket index afresh per packet (before the flow→index
// cache existed). The cached update path must reproduce it bit for bit.
const freshIndexDigest = "053b7a816855e5cee105fde02bdabf799584192be5ead1e20140741d413b798c"

// TestHostMonitorReportsMatchFreshIndexDerivation replays a
// workload-generated egress stream through the deployed host agents, batch
// and streaming, and checks every uploaded report byte for byte against
// the fresh-index derivation.
func TestHostMonitorReportsMatchFreshIndexDerivation(t *testing.T) {
	pkts := workloadEgress(t)
	flows := map[flowkey.Key]bool{}
	for _, p := range pkts {
		flows[p.key] = true
	}
	t.Logf("%d packets, %d flows", len(pkts), len(flows))

	cfg := DefaultHostMonitor()
	cfg.PeriodNs = 1_000_000
	digest := func(feed func(h int, p egressPkt) error, flush func() error, reps *[]SealedReport) string {
		for _, p := range pkts {
			if err := feed(p.host, p); err != nil {
				t.Fatal(err)
			}
		}
		if err := flush(); err != nil {
			t.Fatal(err)
		}
		sort.SliceStable(*reps, func(i, j int) bool { return (*reps)[i].Host < (*reps)[j].Host })
		h := sha256.New()
		for _, r := range *reps {
			var hdr [16]byte
			binary.LittleEndian.PutUint64(hdr[:], uint64(r.Host))
			binary.LittleEndian.PutUint64(hdr[8:], r.Epoch)
			h.Write(hdr[:])
			h.Write(r.Encoded)
		}
		return hex.EncodeToString(h.Sum(nil))
	}

	var batchReps []SealedReport
	batch := map[int]*HostMonitor{}
	batchDigest := digest(func(h int, p egressPkt) error {
		m := batch[h]
		if m == nil {
			var err error
			if m, err = NewHostMonitor(h, cfg, nil); err != nil {
				return err
			}
			m.SetSink(FuncSink(func(r SealedReport) error {
				r.Encoded = append([]byte(nil), r.Encoded...)
				batchReps = append(batchReps, r)
				return nil
			}))
			batch[h] = m
		}
		return m.OnPacket(p.key, p.ns, p.size)
	}, func() error {
		for h := 0; h < 4; h++ {
			if m := batch[h]; m != nil {
				if err := m.Flush(); err != nil {
					return err
				}
			}
		}
		return nil
	}, &batchReps)

	var streamReps []SealedReport
	stream := map[int]*StreamHostMonitor{}
	streamDigest := digest(func(h int, p egressPkt) error {
		m := stream[h]
		if m == nil {
			var err error
			m, err = NewStreamHostMonitor(h, StreamMonitorConfig{HostMonitorConfig: cfg},
				FuncSink(func(r SealedReport) error {
					r.Encoded = append([]byte(nil), r.Encoded...)
					streamReps = append(streamReps, r)
					return nil
				}))
			if err != nil {
				return err
			}
			stream[h] = m
		}
		return m.OnPacket(p.key, p.ns, p.size)
	}, func() error {
		for h := 0; h < 4; h++ {
			if m := stream[h]; m != nil {
				if err := m.Close(); err != nil {
					return err
				}
			}
		}
		return nil
	}, &streamReps)

	if batchDigest != freshIndexDigest {
		t.Errorf("HostMonitor reports digest %s, fresh-index derivation gives %s", batchDigest, freshIndexDigest)
	}
	if streamDigest != freshIndexDigest {
		t.Errorf("StreamHostMonitor reports digest %s, fresh-index derivation gives %s", streamDigest, freshIndexDigest)
	}
}
