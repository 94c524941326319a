package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"umon/internal/analyzer"
	"umon/internal/collect"
	"umon/internal/core"
	"umon/internal/mbuf"
	"umon/internal/opsapi"
	"umon/internal/pcapio"
	"umon/internal/report"
	"umon/internal/telemetry"
	"umon/internal/uevent"
)

// gapNs is the event clustering gap, the collector's default.
const gapNs = 50_000

// pipeline is one deployed µMon chain built from the repository's types:
// host agents shipping sealed epochs through a StreamSink, switch monitors
// emitting wire-format mirrors written to and read back from pcap through
// an mbuf pool, a Collector fed by a StreamReader, and the ops API mounted
// on an in-process mux. The benchmark only calls their public functions,
// timing the calls from outside when traced.
type pipeline struct {
	w spec
	// caps are the set-up's traces; loop k replays caps[k mod len(caps)]
	// and cur is the one running.
	caps []*capture
	cur  *capture

	hosts    []*core.HostMonitor
	switches []*core.SwitchMonitor
	sink     *core.StreamSink
	stream   bytes.Buffer // host → collector report stream
	reader   *report.StreamReader
	frame    report.Frame
	col      *collect.Collector
	cstats   *collect.Stats
	mux      *http.ServeMux
	pool     *mbuf.Pool

	// tr records ingest-goroutine spans (nil: untraced). base is the
	// monotonic origin of every timestamp the benchmark takes itself.
	tr   *tracer
	base time.Time

	// loop is the replay loop running; cross and crossAt are its
	// epoch-crossing lists and per-host cursors into them.
	loop    int
	cross   [][]int
	crossAt []int

	// Mirror staging for one step: the switch monitors' encoded mirrors
	// (stage, with lengths and timestamps), then the pcap bytes written
	// from them. curNs is the timestamp of the CE record being offered.
	stage    []byte
	stageLen []int
	stageNs  []int64
	curNs    int64
	pkts     []pcapio.Packet
	pcapBuf  bytes.Buffer
	batch    pcapio.Batch
	// offers are the mirror batches handed to the collector that may still
	// hold the last mirror of an unemitted event; stepDue is when the
	// current step was due (open loop only).
	offers  []offer
	stepDue int64

	// kept holds the payload of every report of the last windowEpochs
	// epochs (slot (epoch mod window, host)), for the probe check;
	// keptBytes is their capacity, which heap_peak_mb leaves out.
	kept      []keptReport
	keptBytes uint64

	// Ingest outcomes.
	sealToQueryable samples // µs, per report
	detect          samples // µs, per online event
	sealUs, admitUs samples // µs, per call (traced)
	lateUs          samples // µs, per step (closed loop: traced only)
	idleNs          int64   // open-loop time spent waiting for steps
	admitUnixNs     int64   // wall time the last report frame became queryable
	shipped         uint32  // reports shipped (traced: span ids)
	admitted        uint32  // report frames read
	shipSpan        int32   // open seal/flush span the next Ship nests in
	shipNs          int64   // Ship time inside the current seal call
	updatePkts      int64   // packets inside update spans
	replayed        int64   // host packets offered
	ceOffered       int64
	mirrorsOffered  int64
	emitted         int64        // events delivered to OnEvent
	published       atomic.Int64 // events visible to queries
	// byEpoch counts emitted events by start epoch (slot epoch mod
	// window); replayable is how many published events start inside the
	// resident window, the pool replays draw from.
	byEpoch    []epochCount
	replayable atomic.Int64
	draining   bool
	drained    []analyzer.Event
	heap       *heapGauge
	fails      *failures
}

type offer struct{ maxTs, ns int64 }

type epochCount struct {
	epoch uint64
	n     int64
}

type keptReport struct {
	epoch   uint64
	valid   bool
	payload []byte
}

// failures counts failed operations and keeps the first few reasons.
type failures struct {
	n     int64
	notes []string
}

func (f *failures) add(format string, args ...any) {
	f.n++
	if len(f.notes) < 8 {
		f.notes = append(f.notes, fmt.Sprintf(format, args...))
	}
}

// newPipeline wires a fresh chain over the traces caps, which share one
// fabric and loop length. tr may be nil.
func newPipeline(w spec, caps []*capture, base time.Time, tr *tracer, fails *failures) (*pipeline, error) {
	c := caps[0]
	p := &pipeline{
		w: w, caps: caps, base: base, tr: tr, fails: fails,
		pool:    mbuf.New(mbuf.Config{}),
		crossAt: make([]int, len(c.hosts)),
		kept:    make([]keptReport, w.windowEpochs*len(c.hosts)),
		byEpoch: make([]epochCount, w.windowEpochs),
		heap:    newHeapGauge(),
	}
	p.cstats = collect.NewStats(telemetry.NewRegistry())
	p.col = collect.New(collect.Config{
		WindowEpochs: w.windowEpochs,
		EpochNs:      w.epochNs,
		GapNs:        gapNs,
		Stats:        p.cstats,
		OnEvent:      p.onEvent,
	})
	p.mux = http.NewServeMux()
	opsapi.New(opsapi.Config{Collector: p.col, Stats: p.cstats}).Mount(p.mux)

	var err error
	if p.sink, err = core.NewStreamSink(&p.stream); err != nil {
		return nil, err
	}
	if p.reader, err = report.NewStreamReader(&p.stream); err != nil {
		return nil, err
	}
	var sink core.ReportSink = p.sink
	if tr != nil {
		sink = core.FuncSink(p.tracedShip)
	}
	hcfg := core.DefaultHostMonitor()
	hcfg.PeriodNs = w.epochNs
	for h := range c.hosts {
		hm, err := core.NewHostMonitor(h, hcfg, nil)
		if err != nil {
			return nil, err
		}
		hm.SetSink(sink)
		p.hosts = append(p.hosts, hm)
	}
	scfg := core.SwitchMonitorConfig{Rule: uevent.ACLRule{SampleBits: w.sampleBits}}
	for sw := 0; sw < c.switches; sw++ {
		p.switches = append(p.switches, core.NewSwitchMonitor(int16(sw), scfg, p.stageMirror))
	}
	return p, nil
}

func (p *pipeline) mono() int64 { return int64(time.Since(p.base)) }

// capOf returns the trace replay loop k runs.
func (p *pipeline) capOf(k int) *capture { return p.caps[k%len(p.caps)] }

// loopNs is the replay period every trace shares.
func (p *pipeline) loopNs() int64 { return p.caps[0].loopNs }

// tracedShip times the StreamSink's Ship as a child of the seal call
// that triggered it.
func (p *pipeline) tracedShip(r core.SealedReport) error {
	p.shipped++
	t0 := p.tr.now()
	err := p.sink.Ship(r)
	t1 := p.tr.now()
	p.tr.child(p.shipSpan, lShip, p.shipped, t0, t1)
	p.shipNs += t1 - t0
	return err
}

// replay runs `loops` loops of the traces, time-shifted by loopNs each,
// then flushes the hosts and drains the collector. It returns the wall
// time from the first packet to the end of Drain.
//
// Open loop, each step waits for its due time and its lateness is
// recorded. A closed loop has no schedule; traced, it records how much
// longer each step took than its packets would at the replay's mean rate,
// which is how bursty the chain is (a seal burst, a GC cycle).
func (p *pipeline) replay(loops int) (wallNs int64) {
	start := p.mono()
	var offered int64
	type mark struct{ at, offered int64 }
	var marks []mark
	for k := 0; k < loops; k++ {
		c := p.capOf(k)
		p.loop, p.cur = k, c
		p.replayed += c.packets
		p.cross = c.crossFirst
		if k > 0 {
			p.cross = c.crossNext
		}
		clear(p.crossAt)
		for s := 0; s < c.steps; s++ {
			if p.w.pacedMpps > 0 {
				p.pace(start + int64(float64(offered)*1e3/p.w.pacedMpps))
			} else if p.tr != nil {
				marks = append(marks, mark{p.mono() - start, offered})
			}
			p.step(s)
			offered += c.stepPkts[s]
		}
	}
	marks = append(marks, mark{p.mono() - start, offered})
	nsPerPkt := float64(marks[len(marks)-1].at) / float64(max(1, offered))
	for i := 1; i < len(marks); i++ {
		took := marks[i].at - marks[i-1].at
		fair := int64(float64(marks[i].offered-marks[i-1].offered) * nsPerPkt)
		p.lateUs = append(p.lateUs, float64(max(0, took-fair))/1e3)
	}
	p.finish()
	return p.mono() - start
}

// spinNs is the tail of each open-loop wait spent yielding instead of
// sleeping: timer wake-ups run up to a millisecond late.
const spinNs = 1_000_000

// pace waits until the step's due time and records how late it started.
func (p *pipeline) pace(due int64) {
	p.stepDue = due
	now := p.mono()
	if now < due {
		t0 := p.tr.now()
		if due-now > spinNs {
			time.Sleep(time.Duration(due - now - spinNs))
		}
		for p.mono() < due {
			runtime.Gosched()
		}
		p.tr.add(lIdle, 0, t0, p.tr.now())
		woke := p.mono()
		p.idleNs += woke - now
		now = woke
	}
	p.lateUs = append(p.lateUs, float64(now-due)/1e3)
}

// step replays one fabric step: every host's egress, then the step's CE
// observations through the mirror path.
func (p *pipeline) step(s int) {
	c := p.cur
	shift := int64(p.loop) * c.loopNs
	for h := range p.hosts {
		p.feedHost(h, c.hostStep[h][s], c.hostStep[h][s+1], shift)
	}
	p.feedMirrors(c.ceStep[s], c.ceStep[s+1], shift)
	p.publish()
	// Every unemitted event ends past the watermark minus the gap, so
	// batches wholly below it can no longer be an event's last offer.
	cut := p.col.Watermark() - gapNs
	i := sort.Search(len(p.offers), func(i int) bool { return p.offers[i].maxTs >= cut })
	p.offers = append(p.offers[:0], p.offers[i:]...)

	t0 := p.tr.now()
	p.heap.read(p.keptBytes)
	p.tr.add(lSample, 0, t0, p.tr.now())
}

// feedHost offers host h's packets [lo, hi) to its agent. Runs within one
// epoch are timed as one update span; each epoch-crossing OnPacket (seal,
// encode, ship) is timed alone and its report is admitted right after.
func (p *pipeline) feedHost(h, lo, hi int, shift int64) {
	pk := p.cur.hosts[h]
	hm := p.hosts[h]
	cross := p.cross[h]
	for lo < hi {
		next, sealing := hi, false
		if at := p.crossAt[h]; at < len(cross) && cross[at] < hi {
			next, sealing = cross[at], true
			p.crossAt[h]++
		}
		if lo < next {
			t0 := p.tr.now()
			for i := lo; i < next; i++ {
				r := &pk[i]
				if err := hm.OnPacket(loopKey(r.Flow, p.loop), r.Ns+shift, int(r.Size)); err != nil {
					p.fails.add("host %d update: %v", h, err)
				}
			}
			p.tr.add(lUpdate, 0, t0, p.tr.now())
			p.updatePkts += int64(next - lo)
		}
		if !sealing {
			return
		}
		t0 := p.tr.now()
		p.shipSpan = p.tr.open(lSeal, p.shipped+1, t0)
		p.shipNs = 0
		r := &pk[next]
		if err := hm.OnPacket(loopKey(r.Flow, p.loop), r.Ns+shift, int(r.Size)); err != nil {
			p.fails.add("host %d seal: %v", h, err)
		}
		t1 := p.tr.now()
		p.tr.close(p.shipSpan, t1)
		if p.tr != nil {
			p.sealUs = append(p.sealUs, float64(t1-t0-p.shipNs)/1e3)
		}
		p.admitFrames()
		lo = next + 1
	}
}

// admitFrames reads every frame the sink has written and admits it: the
// collector's stream-ingest sequence (report frame → AddEncoded, stamp
// frame → Stamp), with seal→queryable taken from the stamp.
func (p *pipeline) admitFrames() {
	for {
		t0 := p.tr.now()
		err := p.reader.Next(&p.frame)
		if err == io.EOF {
			return
		}
		t1 := p.tr.now()
		if err != nil {
			p.fails.add("stream: %v", err)
			if errors.Is(err, report.ErrCRC) {
				continue
			}
			return
		}
		f := &p.frame
		switch f.Type {
		case report.FrameReport:
			p.admitted++
			p.tr.add(lFrameRead, p.admitted, t0, t1)
			t2 := p.tr.now()
			if err := p.col.AddEncoded(f.Epoch, f.Payload); err != nil {
				p.fails.add("admit host %d epoch %d: %v", f.Host, f.Epoch, err)
			}
			p.admitUnixNs = time.Now().UnixNano()
			t3 := p.tr.now()
			p.tr.add(lAdmit, p.admitted, t2, t3)
			if p.tr != nil {
				p.admitUs = append(p.admitUs, float64(t3-t2)/1e3)
			}
			// The probe check's copy is made after the report is
			// queryable, so no ingest figure includes it.
			t4 := p.tr.now()
			p.keep(f.Epoch, f.Host, f.Payload)
			p.tr.add(lKeep, p.admitted, t4, p.tr.now())
		case report.FrameStamp:
			p.tr.add(lFrameRead, p.admitted, t0, t1)
			st, err := f.Stamp()
			if err != nil {
				p.fails.add("stamp: %v", err)
				continue
			}
			t2 := p.tr.now()
			p.col.Stamp(f.Host, f.Epoch, st)
			p.tr.add(lStamp, p.admitted, t2, p.tr.now())
			p.sealToQueryable = append(p.sealToQueryable, float64(p.admitUnixNs-st.SealNs)/1e3)
			baseUnix := p.base.UnixNano()
			p.tr.add(lSealToQueryable, p.admitted, st.SealNs-baseUnix, p.admitUnixNs-baseUnix)
		}
	}
}

// keep retains a copy of a report payload in its window slot.
func (p *pipeline) keep(epoch uint64, host int, payload []byte) {
	if host < 0 || host >= len(p.hosts) {
		p.fails.add("report frame for unknown host %d", host)
		return
	}
	k := &p.kept[int(epoch%uint64(p.w.windowEpochs))*len(p.hosts)+host]
	k.epoch, k.valid = epoch, true
	had := cap(k.payload)
	k.payload = append(k.payload[:0], payload...)
	p.keptBytes += uint64(cap(k.payload) - had)
}

// stageMirror is the switch monitors' emit callback: it copies the
// encoded mirror out of the monitor's scratch buffer.
func (p *pipeline) stageMirror(encoded []byte) {
	p.stage = append(p.stage, encoded...)
	p.stageLen = append(p.stageLen, len(encoded))
	p.stageNs = append(p.stageNs, p.curNs)
}

// feedMirrors runs CE records [lo, hi) through the switch monitors,
// writes the mirrors they emit as one pcap capture, and reads it back in
// pooled batches, offering each batch to the collector and polling after
// it, as umon-collect does.
func (p *pipeline) feedMirrors(lo, hi int, shift int64) {
	if lo == hi {
		return
	}
	ce := p.cur.ce
	t0 := p.tr.now()
	for i := lo; i < hi; i++ {
		r := &ce[i]
		p.curNs = r.Ns + shift
		p.switches[r.Switch].OnCEPacket(r.Port, p.curNs, loopKey(r.Flow, p.loop), r.PSN, r.Size)
	}
	p.tr.add(lSwitch, 0, t0, p.tr.now())
	p.ceOffered += int64(hi - lo)
	if len(p.stageLen) == 0 {
		return
	}
	defer func() {
		p.stage, p.stageLen, p.stageNs = p.stage[:0], p.stageLen[:0], p.stageNs[:0]
		p.pcapBuf.Reset()
	}()

	t0 = p.tr.now()
	p.pkts = p.pkts[:0]
	off := 0
	for i, n := range p.stageLen {
		p.pkts = append(p.pkts, pcapio.Packet{TimestampNs: p.stageNs[i], Data: p.stage[off : off+n], OrigLen: n})
		off += n
	}
	pw := pcapio.NewWriterOpts(&p.pcapBuf, 0, pcapio.WriterOpts{Pool: p.pool})
	err := pw.WritePacketBatch(p.pkts)
	if err == nil {
		err = pw.Flush()
	}
	p.tr.add(lPcapWrite, 0, t0, p.tr.now())
	if err != nil {
		p.fails.add("pcap write: %v", err)
		return
	}

	t0 = p.tr.now()
	rd, err := pcapio.NewReaderOpts(bytes.NewReader(p.pcapBuf.Bytes()), pcapio.ReaderOpts{Pool: p.pool})
	if err != nil {
		p.fails.add("pcap read: %v", err)
		return
	}
	for {
		n, rerr := rd.ReadBatch(&p.batch, 0)
		t1 := p.tr.now()
		p.tr.add(lPcapRead, 0, t0, t1)
		if n > 0 {
			offered := p.stepDue
			if p.w.pacedMpps == 0 {
				offered = p.mono()
			}
			p.offers = append(p.offers, offer{maxTs: p.batch.Pkts[n-1].TimestampNs, ns: offered})
			for _, pk := range p.batch.Pkts[:n] {
				if err := p.col.AddMirrorPacket(pk.Data); err != nil {
					p.fails.add("mirror: %v", err)
				}
			}
			p.mirrorsOffered += int64(n)
			t2 := p.tr.now()
			p.tr.add(lMirror, 0, t1, t2)
			p.col.Poll()
			t1 = p.tr.now()
			p.tr.add(lPoll, 0, t2, t1)
		}
		t0 = t1
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			p.fails.add("pcap read: %v", rerr)
			break
		}
	}
	p.batch.Release()
	rd.Close()
	p.tr.add(lPcapRead, 0, t0, p.tr.now())
}

// onEvent is the collector's OnEvent callback. Detection latency runs from
// the offer of the batch holding the event's last mirror to emission.
func (p *pipeline) onEvent(ev analyzer.Event) {
	p.emitted++
	e := uint64(ev.StartNs / p.w.epochNs)
	if c := &p.byEpoch[e%uint64(len(p.byEpoch))]; c.epoch == e {
		c.n++
	} else if c.epoch < e {
		*c = epochCount{epoch: e, n: 1}
	}
	if p.draining {
		return
	}
	now := p.mono()
	i := sort.Search(len(p.offers), func(i int) bool { return p.offers[i].maxTs >= ev.EndNs })
	if i == len(p.offers) {
		p.fails.add("event ending at %d ns emitted before its last mirror was offered", ev.EndNs)
		return
	}
	p.detect = append(p.detect, float64(now-p.offers[i].ns)/1e3)
	p.tr.add(lDetect, uint32(p.emitted), p.offers[i].ns, now)
}

// finish seals every host's last epoch, admitting each report as it is
// shipped, and drains the collector: end of input.
func (p *pipeline) finish() {
	for h, hm := range p.hosts {
		t0 := p.tr.now()
		p.shipSpan = p.tr.open(lFlush, p.shipped+1, t0)
		if err := hm.Flush(); err != nil {
			p.fails.add("host %d flush: %v", h, err)
		}
		p.tr.close(p.shipSpan, p.tr.now())
		p.admitFrames()
	}
	p.draining = true
	t0 := p.tr.now()
	p.drained = p.col.Drain()
	p.tr.add(lDrain, 0, t0, p.tr.now())
	p.publish()
}

// publish hands the query client the count of emitted events, all of
// which the collector has published, and how many of them start inside
// the resident window.
func (p *pipeline) publish() {
	epochs, _ := p.col.Snapshot().Window()
	var n int64
	for _, e := range epochs {
		if c := p.byEpoch[e%uint64(len(p.byEpoch))]; c.epoch == e {
			n += c.n
		}
	}
	// published first: a reader that sees the new pool also sees at least
	// as many published events.
	p.published.Store(p.emitted)
	p.replayable.Store(min(n, p.emitted))
}

// sealed totals the reports and report bytes every host agent produced.
func (p *pipeline) sealed() (reports int, bytes int64) {
	for _, hm := range p.hosts {
		b, r := hm.Stats()
		reports += r
		bytes += b
	}
	return reports, bytes
}

// mirrored totals the mirrors every switch monitor emitted.
func (p *pipeline) mirrored() int64 {
	var n int64
	for _, sm := range p.switches {
		m, _ := sm.Stats()
		n += m
	}
	return n
}
