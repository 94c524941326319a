package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"umon/internal/flowkey"
	"umon/internal/netsim"
	"umon/internal/workload"
)

// sliceNs is the fabric-time step of the replay: each step feeds every
// host's egress, then the step's CE observations through the mirror path,
// then one Poll. 65.5 µs is just over the 50 µs clustering gap, so an
// event closes within two steps of its last mirror.
const sliceNs = 1 << 16

// warmNs is simulated before each trace and cut from it, so every replay
// loop starts with the fabric already loaded: a trace that starts empty
// has no CE marks for its first few hundred µs, a quiet gap the replay
// would repeat at every loop boundary.
const warmNs = 2_000_000

// capture is the in-memory fabric trace the measured phase replays: host
// egress and switch CE observations of one simulated run, plus the
// per-step indexes the replay loop walks.
type capture struct {
	hosts    [][]netsim.EgressRecord // per host, in time order
	ce       []netsim.CERecord       // in time order
	flows    []flowkey.Key           // every simulated flow
	switches int
	// loopNs is the replay period: the traffic horizon rounded up to whole
	// epochs, so every loop seals alike.
	loopNs     int64
	packets    int64 // host egress packets per loop
	netsimRunS float64

	// hostStep[h][s] and ceStep[s] are the first record at or after
	// s*sliceNs, and stepPkts[s] the host packets of step s. crossFirst[h]
	// lists the packet indexes whose OnPacket crosses an epoch boundary in
	// the first loop; crossNext[h] the same for later loops, where the
	// loop's first packet also closes the previous loop's last epoch.
	steps      int
	hostStep   [][]int
	ceStep     []int
	stepPkts   []int64
	crossFirst [][]int
	crossNext  [][]int
}

// traceFlows draws the flows of one trace: the workload's CDF over the
// warm-up and trafficNs of the FatTree k=4 fabric, pinned to its load.
func traceFlows(w spec, seed int64, trafficNs int64) ([]workload.Flow, error) {
	topo, err := netsim.FatTree(4)
	if err != nil {
		return nil, err
	}
	return pinnedFlows(workload.Config{
		Dist: w.dist(), Load: w.load, Hosts: topo.Hosts,
		LinkBps: netsim.DefaultConfig(topo).LinkBps, DurationNs: warmNs + trafficNs, Seed: seed,
	})
}

// simulate runs flows on the FatTree k=4 fabric and captures its egress
// and CE feeds after the warm-up.
func simulate(w spec, seed, trafficNs int64, flows []workload.Flow) (*capture, error) {
	topo, err := netsim.FatTree(4)
	if err != nil {
		return nil, err
	}
	cfg := netsim.DefaultConfig(topo)
	cfg.Seed = uint64(seed)
	cfg.QueueSampleNs = 0
	horizon := warmNs + trafficNs
	n, err := netsim.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, f := range flows {
		if _, err := n.AddFlow(netsim.FlowSpec{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes, StartNs: f.StartNs}); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	tr := n.Run(horizon)
	c := &capture{
		switches:   topo.Switches,
		hosts:      make([][]netsim.EgressRecord, len(tr.HostPackets)),
		loopNs:     (trafficNs + w.epochNs - 1) / w.epochNs * w.epochNs,
		netsimRunS: time.Since(start).Seconds(),
	}
	for h, pkts := range tr.HostPackets {
		i := sort.Search(len(pkts), func(i int) bool { return pkts[i].Ns >= warmNs })
		c.hosts[h] = pkts[i:]
		for j := range c.hosts[h] {
			c.hosts[h][j].Ns -= warmNs
		}
		c.packets += int64(len(c.hosts[h]))
	}
	i := sort.Search(len(tr.CELog), func(i int) bool { return tr.CELog[i].Ns >= warmNs })
	c.ce = tr.CELog[i:]
	for j := range c.ce {
		c.ce[j].Ns -= warmNs
	}
	c.flows = make([]flowkey.Key, len(tr.Flows))
	for i := range tr.Flows {
		c.flows[i] = tr.Flows[i].Key
	}
	if err := c.index(w.epochNs); err != nil {
		return nil, err
	}
	return c, nil
}

// pinnedFlows draws flow sets from seeds derived from cfg.Seed until one
// offers within 2% of the bytes cfg.Load asks for, keeping the closest of
// 256 draws otherwise. Heavy-tailed CDFs (WebSearch: ~830 flows of up to
// 30 MB per 20 ms) otherwise swing a trace's offered load by ±25% from
// seed to seed, and every throughput metric with it.
func pinnedFlows(cfg workload.Config) ([]workload.Flow, error) {
	want := cfg.Load * float64(cfg.Hosts) * cfg.LinkBps * float64(cfg.DurationNs) / 1e9 / 8
	base := cfg.Seed
	var best []workload.Flow
	bestDev := math.Inf(1)
	for attempt := int64(0); attempt < 256 && bestDev > 0.02; attempt++ {
		cfg.Seed = base*256 + attempt
		flows, err := workload.Generate(cfg)
		if err != nil {
			return nil, err
		}
		var offered int64
		for _, f := range flows {
			offered += f.Bytes
		}
		if dev := math.Abs(float64(offered)-want) / want; dev < bestDev {
			best, bestDev = flows, dev
		}
	}
	return best, nil
}

// index builds the per-step record indexes and the epoch-crossing packet
// lists, and checks the time order the host agent and watermark rely on.
func (c *capture) index(epochNs int64) error {
	c.steps = int((c.loopNs + sliceNs - 1) / sliceNs)
	c.hostStep = make([][]int, len(c.hosts))
	c.stepPkts = make([]int64, c.steps)
	c.crossFirst = make([][]int, len(c.hosts))
	c.crossNext = make([][]int, len(c.hosts))
	for h, pkts := range c.hosts {
		if !sort.SliceIsSorted(pkts, func(i, j int) bool { return pkts[i].Ns < pkts[j].Ns }) {
			return fmt.Errorf("host %d egress is not in time order", h)
		}
		c.hostStep[h] = stepIndex(len(pkts), c.steps, func(i int) int64 { return pkts[i].Ns })
		for s := range c.stepPkts {
			c.stepPkts[s] += int64(c.hostStep[h][s+1] - c.hostStep[h][s])
		}
		var cross []int
		for i := 1; i < len(pkts); i++ {
			if pkts[i].Ns/epochNs != pkts[i-1].Ns/epochNs {
				cross = append(cross, i)
			}
		}
		c.crossFirst[h] = cross
		if len(pkts) > 0 {
			c.crossNext[h] = append([]int{0}, cross...)
		}
	}
	if !sort.SliceIsSorted(c.ce, func(i, j int) bool { return c.ce[i].Ns < c.ce[j].Ns }) {
		return fmt.Errorf("CE log is not in time order")
	}
	c.ceStep = stepIndex(len(c.ce), c.steps, func(i int) int64 { return c.ce[i].Ns })
	return nil
}

// stepIndex returns, for each step s in [0, steps], the first record whose
// timestamp is at or after s*sliceNs.
func stepIndex(n, steps int, ns func(int) int64) []int {
	idx := make([]int, steps+1)
	for s := range idx {
		bound := int64(s) * sliceNs
		idx[s] = sort.Search(n, func(i int) bool { return ns(i) >= bound })
	}
	return idx
}

// loopKey renames flow f for replay loop k by rewriting the last octet of
// its source address (hosts are 10.0.h.1), so each loop is fresh traffic
// to the sketches, the routing index and the event flow lists, as it is
// in a fabric where flows come and go. Every flow of a loop gets the same
// octet, which keeps the key-string order the analyzer ranks ties by.
func loopKey(f flowkey.Key, k int) flowkey.Key {
	f.SrcIP = f.SrcIP&^0xff | uint32(1+k%250)
	return f
}
