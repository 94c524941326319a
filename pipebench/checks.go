package main

import (
	"fmt"
	"reflect"

	"umon/internal/analyzer"
	"umon/internal/core"
	"umon/internal/flowkey"
	"umon/internal/uevent"
)

// batchEvents runs the batch analyzer over the sampled mirror feed of
// replay loops [first, first+n): the same switch monitors and wire format
// as the replay, decoded by analyzer.AddMirrorPacket, clustered by
// DetectEvents.
func batchEvents(w spec, caps []*capture, first, n int) ([]analyzer.Event, error) {
	an := analyzer.New()
	var err error
	emit := func(b []byte) {
		if e := an.AddMirrorPacket(b); e != nil && err == nil {
			err = e
		}
	}
	cfg := core.SwitchMonitorConfig{Rule: uevent.ACLRule{SampleBits: w.sampleBits}}
	sws := make([]*core.SwitchMonitor, caps[0].switches)
	for i := range sws {
		sws[i] = core.NewSwitchMonitor(int16(i), cfg, emit)
	}
	for k := first; k < first+n; k++ {
		c := caps[k%len(caps)]
		shift := int64(k) * c.loopNs
		for i := range c.ce {
			r := &c.ce[i]
			sws[r.Switch].OnCEPacket(r.Port, r.Ns+shift, loopKey(r.Flow, k), r.PSN, r.Size)
		}
	}
	return an.DetectEvents(gapNs), err
}

// expectedEvents is batch DetectEvents over the whole replayed feed of
// `loops` loops. Each loop is a time-shifted copy of one trace with
// renamed flows, so when no event spans a loop boundary the answer is each
// loop's own answer, moved into place. Clustering every kind of adjacent
// pair in one batch proves the boundaries; if one fails, the whole feed is
// clustered instead.
func expectedEvents(w spec, caps []*capture, loops int) ([]analyzer.Event, error) {
	if loops <= 1 {
		return batchEvents(w, caps, 0, loops)
	}
	m := len(caps)
	single := make([][]analyzer.Event, min(m+1, loops))
	for k := range single {
		var err error
		if single[k], err = batchEvents(w, caps, k, 1); err != nil {
			return nil, err
		}
	}
	for k := 0; k+1 < len(single); k++ {
		pair, err := batchEvents(w, caps, k, 2)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(pair, append(append([]analyzer.Event(nil), single[k]...), single[k+1]...)) {
			return batchEvents(w, caps, 0, loops)
		}
	}
	var out []analyzer.Event
	loopNs := caps[0].loopNs
	for k := 0; k < loops; k++ {
		for _, ev := range single[k%m] {
			d := int64(k-k%m) * loopNs
			ev.StartNs += d
			ev.EndNs += d
			flows := make([]flowkey.Key, len(ev.Flows))
			for i, f := range ev.Flows {
				flows[i] = loopKey(f, k)
			}
			ev.Flows = flows
			out = append(out, ev)
		}
	}
	return out, nil
}

// checkResult counts the end-of-run correctness checks.
type checkResult struct {
	checks, failed int
	notes          []string
}

func (r *checkResult) expect(ok bool, format string, args ...any) {
	r.checks++
	if !ok {
		r.failed++
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// checkIngest verifies the run's accounting and online detection:
// Drain equals batch DetectEvents over the same sampled feed, no frame
// was bad, every sealed report was admitted and is resident or evicted,
// and every emitted mirror was ingested.
func (p *pipeline) checkIngest(loops int) checkResult {
	var r checkResult
	want, err := expectedEvents(p.w, p.caps, loops)
	r.expect(err == nil, "batch analyzer: %v", err)
	same := len(want) == len(p.drained) && (len(want) == 0 || reflect.DeepEqual(want, p.drained))
	r.expect(same, "Drain returned %d events, batch DetectEvents %d (or they differ)", len(p.drained), len(want))

	r.expect(p.reader.CRCErrors() == 0 && p.reader.Skipped() == 0,
		"bad frames: %d CRC errors, %d skipped", p.reader.CRCErrors(), p.reader.Skipped())

	sealed, _ := p.sealed()
	st := p.col.Status()
	late := p.cstats.LateReports.Value()
	evicted := p.cstats.Evictions.Value()
	r.expect(st.ReportsIngested == int64(sealed) && late == 0,
		"sealed %d reports, admitted %d, late %d", sealed, st.ReportsIngested, late)
	r.expect(int64(st.ResidentReports)+evicted == int64(sealed),
		"sealed %d reports, %d resident + %d evicted", sealed, st.ResidentReports, evicted)

	mirrored := p.mirrored()
	r.expect(st.MirrorsIngested == mirrored && p.mirrorsOffered == mirrored,
		"switches mirrored %d, offered %d, collector ingested %d (late %d)",
		mirrored, p.mirrorsOffered, st.MirrorsIngested, p.cstats.LateMirrors.Value())
	return r
}
