package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// layer names one timed call site: a public function of one module,
// called from the replay or query loop.
type layer uint8

const (
	lUpdate          layer = iota // core: HostMonitor.OnPacket runs within one epoch
	lSeal                         // core: epoch-crossing OnPacket (seal + encode + ship)
	lShip                         // report: StreamSink.Ship (frames onto the stream)
	lFrameRead                    // report: StreamReader.Next
	lAdmit                        // collect: AddEncoded (decode + admit + publish)
	lStamp                        // collect: Stamp
	lSwitch                       // core: SwitchMonitor.OnCEPacket runs
	lPcapWrite                    // pcapio: NewWriter + WritePacketBatch + Flush
	lPcapRead                     // pcapio: NewReader + ReadBatch through mbuf
	lMirror                       // collect: AddMirrorPacket runs (with auto-Poll)
	lPoll                         // collect: Poll
	lFlush                        // core: HostMonitor.Flush at end of input
	lDrain                        // collect: Drain
	lQueryFlow                    // collect: Collector.QueryFlow
	lReplay                       // collect: Snapshot.Events + Snapshot.Replay
	lAPIFlow                      // opsapi: /api/query/flow handler
	lAPIReplay                    // opsapi: /api/replay handler
	lIdle                         // loadgen: open-loop wait for the next step
	lSample                       // loadgen: heap sampling
	lKeep                         // loadgen: report copy for the probe check
	lSealToQueryable              // lifecycle: seal start → report queryable
	lDetect                       // lifecycle: last mirror offered → event emitted
	numLayers
)

var layerNames = [numLayers]string{
	"core.update", "core.seal", "report.frame_write", "report.frame_read",
	"collect.admit", "collect.stamp", "core.switch", "pcapio.write",
	"pcapio.read", "collect.mirror", "collect.poll", "core.flush",
	"collect.drain", "collect.query_flow", "collect.replay", "opsapi.flow",
	"opsapi.replay", "loadgen.idle", "loadgen.sample",
	"loadgen.keep",
	"lifecycle.seal_to_queryable", "lifecycle.detect",
}

// lifecycle spans overlap the layer spans they summarize, so they are
// written to the span file but kept out of the self-time table.
func (l layer) lifecycle() bool { return l >= lSealToQueryable }

// span is one timed call. Times are nanoseconds since the tracer's base;
// parent indexes the enclosing span of the same tracer (-1: top level).
type span struct {
	start, end int64
	id         uint32
	parent     int32
	layer      layer
}

// tracer records spans in memory for one goroutine. A nil tracer is the
// untraced configuration: every method is a no-op and now returns 0, so
// the replay loop pays one nil check per call site.
type tracer struct {
	base   time.Time
	thread int
	spans  []span
}

func newTracer(base time.Time, thread int) *tracer {
	return &tracer{base: base, thread: thread, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// add records a finished top-level span.
func (t *tracer) add(l layer, id uint32, start, end int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{start: start, end: end, id: id, parent: -1, layer: l})
}

// open starts a span whose children are recorded before it ends; close
// finishes it. open returns -1 on a nil tracer.
func (t *tracer) open(l layer, id uint32, start int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{start: start, id: id, parent: -1, layer: l})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(i int32, end int64) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = end
}

// child records a finished span nested in parent.
func (t *tracer) child(parent int32, l layer, id uint32, start, end int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{start: start, end: end, id: id, parent: parent, layer: l})
}

// layerTimes is per-layer self time and call count: a span's duration
// minus the part its children cover.
type layerTimes struct {
	self  [numLayers]int64
	calls [numLayers]int64
	// covered is the summed duration of top-level non-lifecycle spans: the
	// wall time the layers account for.
	covered int64
}

func (t *tracer) times() layerTimes {
	var lt layerTimes
	if t == nil {
		return lt
	}
	childSum := make(map[int32]int64)
	for _, s := range t.spans {
		if s.parent >= 0 {
			childSum[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		if s.layer.lifecycle() {
			continue
		}
		d := s.end - s.start
		lt.self[s.layer] += d - childSum[int32(i)]
		lt.calls[s.layer]++
		if s.parent < 0 {
			lt.covered += d
		}
	}
	return lt
}

// writeSpans appends t's spans as CSV rows.
func (t *tracer) writeSpans(w io.Writer) error {
	for _, s := range t.spans {
		if _, err := fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n",
			t.thread, layerNames[s.layer], s.id, s.parent, s.start, s.end); err != nil {
			return err
		}
	}
	return nil
}

// writeSpanFile writes every tracer's spans to path as CSV.
func writeSpanFile(path string, ts ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "thread,layer,id,parent,start_ns,end_ns")
	for _, t := range ts {
		if err := t.writeSpans(bw); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes writes the per-layer self-time table of one goroutine
// and its unattributed remainder against wallNs.
func printSelfTimes(w io.Writer, title string, lt layerTimes, wallNs int64) {
	fmt.Fprintf(w, "self time, %s (wall %.1f ms)\n", title, float64(wallNs)/1e6)
	order := make([]layer, 0, numLayers)
	for l := layer(0); l < numLayers; l++ {
		if lt.calls[l] > 0 {
			order = append(order, l)
		}
	}
	sort.Slice(order, func(i, j int) bool { return lt.self[order[i]] > lt.self[order[j]] })
	for _, l := range order {
		fmt.Fprintf(w, "  %-20s %10.2f ms %6.2f%% %9d calls\n", layerNames[l],
			float64(lt.self[l])/1e6, 100*float64(lt.self[l])/float64(wallNs), lt.calls[l])
	}
	un := wallNs - lt.covered
	fmt.Fprintf(w, "  %-20s %10.2f ms %6.2f%%\n", "unattributed", float64(un)/1e6, 100*float64(un)/float64(wallNs))
}
