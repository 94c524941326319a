package main

import (
	"fmt"

	"umon/internal/workload"
)

// spec is one benchmark workload: the fabric trace the set-up simulates and
// the deployment settings the replay runs it through.
type spec struct {
	name string
	// dist and load shape the simulated traffic (Appendix D CDFs).
	dist func() *workload.Distribution
	load float64
	// epochNs is the host sealing period; sampleBits the switch ACL
	// sampling (1/2^bits of CE packets mirrored); windowEpochs the
	// collector's resident window.
	epochNs      int64
	sampleBits   uint
	windowEpochs int
	// pacedMpps > 0 makes ingest an open loop at that host-packet rate with
	// one closed-loop query client beside it; 0 is a closed loop that
	// replays as fast as the chain accepts.
	pacedMpps float64
	// loopsPerSecond sizes a run: --seconds of replay is that many loops,
	// at the rate a 2-core x86-64 box replays this workload. The work is
	// fixed, not the time, so what a run measures — the events emitted,
	// the history a replay sorts, the reports sealed — depends on the
	// seed alone and not on how fast the box happened to run.
	loopsPerSecond float64
}

// hadoopQueryMpps is the open-loop ingest rate of hadoop-query, an
// absolute rate so a faster pipeline does not change the offered load. On
// a 2-core x86-64 box this workload's chain sustains 1.75 Mpps in closed
// loop on average, but congested stretches, where half of all CE marks
// are mirrored, cost about 3x the average per packet. At 0.3 Mpps even
// those stay under the rate, so lateness stays bounded and comes from
// contention with the query client, not from queueing behind the trace.
const hadoopQueryMpps = 0.3

var workloads = []spec{
	{
		// The paper's evaluation setting: host update dominates, many
		// small flows churn the heavy part, one seal per host per loop.
		name: "hadoop-paper", dist: workload.FacebookHadoop, load: 0.35,
		epochNs: 20_000_000, sampleBits: 6, windowEpochs: 8,
		loopsPerSecond: 4.5,
	},
	{
		// Collector-heavy: every CE packet mirrored and 1 ms epochs, so
		// mirror decode/cluster/Poll and seal+encode+admit carry the cost.
		name: "websearch-dense", dist: workload.WebSearch, load: 0.35,
		epochNs: 1_000_000, sampleBits: 0, windowEpochs: 8,
		loopsPerSecond: 2.4,
	},
	{
		// Read plane under paced writes: queries share the cores and heap
		// with admission, COW publication and Poll republication.
		name: "hadoop-query", dist: workload.FacebookHadoop, load: 0.35,
		epochNs: 2_000_000, sampleBits: 1, windowEpochs: 16,
		pacedMpps: hadoopQueryMpps, loopsPerSecond: 0.3,
	},
}

func lookupWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}
