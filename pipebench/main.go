// Command pipebench is the repository's end-to-end benchmark. Set-up
// simulates a FatTree k=4 fabric trace once per repetition and captures
// its host egress and CE observations in memory; the measured phase
// replays the capture, time-shifted loop after loop, through the deployed
// chain — core.HostMonitor → core.StreamSink → report.StreamReader →
// collect.Collector for reports, core.SwitchMonitor → pcapio/mbuf →
// collect.Collector for mirrors, and the opsapi handlers in-process for
// queries — then checks the answers and prints every metric by name.
//
// Usage:
//
//	pipebench -workload hadoop-paper -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. -trace 1 runs an untraced and a traced half, prints
// the per-layer self-time table, writes the span file, and reports the
// per-layer metrics instead of the end-to-end ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: hadoop-paper, websearch-dense or hadoop-query")
	seed := flag.Int64("seed", 1, "workload seed (traffic, simulation and query mix)")
	seconds := flag.Float64("seconds", 10, "run length: replay loops for about this many seconds on a 2-core box")
	traceMode := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	commit := flag.String("commit", "unknown", "source revision recorded with the result")
	outDir := flag.String("out-dir", ".", "directory the traced run writes its span file to")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(2)
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(os.Stderr, "pipebench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		w: w, seed: *seed, seconds: *seconds, traced: *traceMode == 1,
		trafficNs: trafficNs, setups: setups, commit: *commit,
		spanFile: filepath.Join(*outDir, "spans-"+w.name+".csv"),
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, "pipebench: check failed:", n)
	}
	fmt.Print(res.table)
	rec, _ := json.Marshal(res.record)
	fmt.Printf("record %s\n", rec)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// trafficNs is the simulated fabric time of one trace, and setups the
// number of set-up repetitions setup_s is the median of. They are fixed so
// every run's figures compare; the smoke test shortens them through config.
const (
	trafficNs = 20_000_000
	setups    = 3
)

type config struct {
	w         spec
	seed      int64
	seconds   float64
	traced    bool
	trafficNs int64
	setups    int
	commit    string
	spanFile  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	attempted, failed int64
	metrics           map[string]metric
	record            map[string]any
	table             string
	notes             []string
}

// tailStat records which quantile a percentile metric reports and over
// how many samples; Value is set for figures recorded but not reported as
// metrics.
type tailStat struct {
	Q     float64 `json:"q"`
	N     int     `json:"n"`
	Value float64 `json:"value,omitempty"`
}

// phase is one measured replay of a pipeline.
type phase struct {
	p       *pipeline
	q       *queryClient
	loops   int
	wallNs  int64
	rt0     runtimeStats
	rt1     runtimeStats
	packets int64
	// routed/skipped and decode hits/cold are the query client's
	// collector's read-plane counters.
	routed, skipped, hits, cold int64
}

// loops is how many replay loops cfg's run length asks for: whole
// rotations over the traces, at least two loops.
func (cfg config) loops(traces int) int {
	rotations := int(math.Round(cfg.seconds * cfg.w.loopsPerSecond / float64(traces)))
	return max(2, max(1, rotations)*traces)
}

// measurePhase replays p for cfg's run length. Open loop, the query
// client runs beside ingest; closed loop, it runs afterwards against a
// second collector that has ingested exactly one rotation and drained:
// /api/replay copies and sorts the whole event history on every call, so
// a history of fixed length keeps the read plane's cost from growing
// with the run.
func measurePhase(cfg config, p *pipeline, qtr *tracer) (phase, error) {
	loops := cfg.loops(len(p.caps))
	ph := phase{p: p, loops: loops}
	ph.rt0 = readRuntime()
	if p.w.pacedMpps > 0 {
		ph.q = newQueryClient(p, cfg.seed+1, qtr)
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			ph.q.run(func() bool {
				select {
				case <-stop:
					return true
				default:
					return false
				}
			})
		}()
		ph.wallNs = p.replay(loops)
		close(stop)
		<-done
	} else {
		ph.wallNs = p.replay(loops)
	}
	ph.rt1 = readRuntime()
	ph.packets = p.replayed
	// One collection at the end of ingest measures the state it retains.
	runtime.GC()
	p.heap.read(p.keptBytes)
	if p.w.pacedMpps == 0 {
		qp, err := newPipeline(p.w, p.caps, p.base, nil, p.fails)
		if err != nil {
			return ph, err
		}
		qp.replay(len(p.caps))
		ph.q = newQueryClient(qp, cfg.seed+1, qtr)
		n := 0
		ph.q.run(func() bool { n++; return n > closedLoopQueries })
	}
	qs := ph.q.p.cstats
	ph.routed, ph.skipped = qs.RouteVisited.Value(), qs.RouteSkipped.Value()
	ph.hits, ph.cold = qs.Decode.DecodeHits.Value(), qs.Decode.DecodeCold.Value()
	return ph, nil
}

// closedLoopQueries is the size of the closed-loop query phase: one
// client over a drained one-rotation window.
const closedLoopQueries = 4000

// run sets up, measures, checks and reports one workload.
func run(cfg config) (*result, error) {
	// At most two threads per workload. The read plane keeps its deployed
	// worker pool, so a wide query fans out over both and competes with
	// ingest, as it does in umon-collect.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	base := time.Now()
	fails := &failures{}
	// Each set-up repetition simulates its own trace from the seed, so the
	// replay rotates over all of them and averages out one trace's luck.
	var setupS samples
	var caps []*capture
	var p *pipeline
	for i := 0; i < cfg.setups; i++ {
		p = nil
		s := cfg.seed*int64(cfg.setups) + int64(i)
		// Drawing a flow set at the asked load is the benchmark's own
		// search, so it stays outside setup_s.
		flows, err := traceFlows(cfg.w, s, cfg.trafficNs)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		runtime.GC()
		t0 := time.Now()
		c, err := simulate(cfg.w, s, cfg.trafficNs, flows)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		caps = append(caps, c)
		if p, err = newPipeline(cfg.w, caps, base, nil, fails); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	runtime.GC()
	heapBase := p.heap.read(0)
	p.heap.peak = heapBase

	res := &result{metrics: map[string]metric{}}
	tails := map[string]tailStat{}
	put := func(name, unit string, v float64) { res.metrics[name] = metric{Value: v, Unit: unit} }
	putTail := func(name, unit string, s samples, q float64) {
		v, used, n := s.tail(q)
		put(name, unit, v)
		tails[name] = tailStat{Q: used, N: n}
	}
	record := func(name string, s samples, q float64) {
		v, used, n := s.tail(q)
		tails[name] = tailStat{Q: used, N: n, Value: v}
	}

	var phases []phase
	var probes probeResult
	if !cfg.traced {
		ph, err := measurePhase(cfg, p, nil)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
	} else {
		half := cfg
		half.seconds = cfg.seconds / 2
		untraced, err := measurePhase(half, p, nil)
		if err != nil {
			return nil, err
		}
		tp, err := newPipeline(cfg.w, caps, base, newTracer(base, 0), fails)
		if err != nil {
			return nil, err
		}
		traced, err := measurePhase(half, tp, newTracer(base, 1))
		if err != nil {
			return nil, err
		}
		phases = append(phases, untraced, traced)
	}
	for _, ph := range phases {
		chk := ph.p.checkIngest(ph.loops)
		probes = ph.p.checkProbes(ph.loops, cfg.seed)
		sealed, _ := ph.p.sealed()
		res.attempted += int64(sealed) + ph.p.mirrored() + ph.q.ops + int64(probes.checked) + int64(chk.checks)
		res.failed += ph.q.errors + int64(probes.mismatches) + int64(chk.failed)
		res.notes = append(res.notes, chk.notes...)
		res.notes = append(res.notes, probes.notes...)
	}
	res.failed += fails.n
	res.notes = append(res.notes, fails.notes...)
	last := phases[len(phases)-1]
	lp, lq := last.p, last.q
	sealed, reportBytes := lp.sealed()
	fabricS := float64(last.loops) * float64(lp.loopNs()) / 1e9

	if !cfg.traced {
		put("setup_s", "s", median(setupS))
		put("pipeline_mpps", "Mpps", float64(last.packets)/(float64(last.wallNs)/1e3))
		// Bounded: the ingest latencies' p50 and p95. Recorded only: their
		// p99s, which sit on the ~1% of samples a seal burst or a GC cycle
		// delays, and the read plane, whose memory-bound queries swing with
		// the box's speed by more than any bound the benchmark allows.
		for _, m := range []struct {
			name string
			s    samples
		}{{"seal_to_queryable", lp.sealToQueryable}, {"detect", lp.detect}} {
			putTail(m.name+"_p50_us", "us", m.s, 0.5)
			putTail(m.name+"_p95_us", "us", m.s, 0.95)
			record(m.name+"_p99_us", m.s, 0.99)
		}
		for _, m := range []struct {
			name string
			s    samples
		}{{"flow_query", lq.apiFlow}, {"replay", lq.apiReplay}} {
			for _, q := range []float64{0.5, 0.95, 0.99} {
				record(fmt.Sprintf("%s_p%g_us", m.name, q*100), m.s, q)
			}
		}
		tails["query_qps"] = tailStat{N: int(lq.ops), Value: float64(lq.ops) / (float64(lq.wallNs) / 1e9)}
		put("curve_cosine", "cosine", probes.cosine)
		put("upload_kbps_per_host", "kbit/s", float64(reportBytes)*8/1e3/float64(len(lp.hosts))/fabricS)
		put("heap_peak_mb", "MiB", float64(lp.heap.peak-heapBase)/(1<<20))
		put("ok_frac", "frac", 1-float64(res.failed)/float64(max(1, res.attempted)))
	} else {
		untraced := phases[0]
		lt := lp.tr.times()
		qt := lq.tr.times()
		var buf strings.Builder
		printSelfTimes(&buf, "ingest goroutine", lt, last.wallNs)
		printSelfTimes(&buf, "query client", qt, lq.wallNs)
		res.table = buf.String()
		if err := writeSpanFile(cfg.spanFile, lp.tr, lq.tr); err != nil {
			return nil, err
		}
		per := func(ns int64, n int64) float64 { return float64(ns) / float64(max(1, n)) }
		busy := func(ph phase) float64 { return per(ph.wallNs-ph.p.idleNs, ph.packets) }
		st := lp.col.Status()

		var runS samples
		var egress, ce int64
		for _, c := range caps {
			runS = append(runS, c.netsimRunS)
			egress += c.packets
			ce += int64(len(c.ce))
		}
		put("netsim.run_s", "s", median(runS))
		put("netsim.egress_pkts", "count", float64(egress)/float64(len(caps)))
		put("netsim.ce_obs", "count", float64(ce)/float64(len(caps)))
		put("core.update_ns_per_pkt", "ns", per(lt.self[lUpdate], lp.updatePkts))
		putTail("core.seal_us_p50", "us", lp.sealUs, 0.5)
		putTail("core.seal_us_p99", "us", lp.sealUs, 0.99)
		put("core.epochs_sealed", "count", float64(sealed))
		put("core.switch_ns_per_ce", "ns", per(lt.self[lSwitch], lp.ceOffered))
		put("core.mirror_ratio", "frac", float64(lp.mirrored())/float64(max(1, lp.ceOffered)))
		put("report.bytes_per_report", "B", per(reportBytes, int64(sealed)))
		put("report.frame_write_ns", "ns", per(lt.self[lShip], lt.calls[lShip]))
		put("report.frame_read_ns", "ns", per(lt.self[lFrameRead], lt.calls[lFrameRead]))
		put("report.bad_frames", "count", float64(lp.reader.CRCErrors()+lp.reader.Skipped()))
		put("pcapio.write_ns_per_mirror", "ns", per(lt.self[lPcapWrite], lp.mirrorsOffered))
		put("pcapio.read_ns_per_mirror", "ns", per(lt.self[lPcapRead], lp.mirrorsOffered))
		putTail("collect.admit_us_p50", "us", lp.admitUs, 0.5)
		putTail("collect.admit_us_p99", "us", lp.admitUs, 0.99)
		put("collect.evictions", "count", float64(lp.cstats.Evictions.Value()))
		put("collect.snapshot_publishes", "count", float64(st.SnapshotVersion))
		put("collect.late_reports", "count", float64(lp.cstats.LateReports.Value()))
		put("collect.mirror_ns", "ns", per(lt.self[lMirror], lp.mirrorsOffered))
		put("collect.poll_us", "us", per(lt.self[lPoll], lt.calls[lPoll])/1e3)
		put("collect.events", "count", float64(len(lp.drained)))
		put("collect.late_mirrors", "count", float64(lp.cstats.LateMirrors.Value()))
		putTail("collect.query_flow_us_p50", "us", lq.colFlow, 0.5)
		putTail("collect.query_flow_us_p99", "us", lq.colFlow, 0.99)
		putTail("collect.replay_us_p99", "us", lq.colReplay, 0.99)
		put("collect.routed_per_query", "frac", float64(last.routed)/float64(max(1, last.routed+last.skipped)))
		put("report.decode_hit_ratio", "frac", float64(last.hits)/float64(max(1, last.hits+last.cold)))
		putTail("opsapi.flow_us_p99", "us", lq.apiFlow, 0.99)
		putTail("opsapi.replay_us_p99", "us", lq.apiReplay, 0.99)
		put("opsapi.errors", "count", float64(lq.errors))
		put("runtime.alloc_bytes_per_pkt", "B", float64(last.rt1.allocBytes-last.rt0.allocBytes)/float64(max(1, last.packets)))
		put("runtime.gc_cycles", "count", float64(last.rt1.gcCycles-last.rt0.gcCycles))
		put("runtime.gc_pause_ms", "ms", float64(last.rt1.pauseNs-last.rt0.pauseNs)/1e6)
		putTail("loadgen.late_p99_us", "us", lp.lateUs, 0.99)
		put("loadgen.unattributed_frac", "frac", float64(last.wallNs-lt.covered)/float64(last.wallNs))
		put("loadgen.trace_overhead_frac", "frac", busy(last)/busy(untraced)-1)
	}

	offered := "closed loop"
	if cfg.w.pacedMpps > 0 {
		offered = fmt.Sprintf("%.2f Mpps host packets, 1 closed-loop query client", cfg.w.pacedMpps)
	}
	res.record = map[string]any{
		"workload":   cfg.w.name,
		"seed":       cfg.seed,
		"traced":     cfg.traced,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     cfg.commit,
		"offered":    offered,
		"loops":      last.loops,
		"packets":    last.packets,
		"reports":    sealed,
		"mirrors":    lp.mirrored(),
		"queries":    lq.ops,
		"setups_s":   setupS,
		"tails":      tails,
	}
	return res, nil
}

func median(s samples) float64 {
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
