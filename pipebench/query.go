package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"time"

	"umon/internal/flowkey"
	"umon/internal/measure"
	"umon/internal/metrics"
	"umon/internal/opsapi"
	"umon/internal/report"
)

// replayMarginNs is /api/replay's default margin.
const replayMarginNs = 100_000

// queryClient is one closed-loop client of the read plane: it sends its
// next query when the previous one returns. Four in five queries are
// /api/query/flow over one resident epoch for a flow drawn from the flow
// keys of that epoch's trace, or one time in eleven from absent keys; one
// in five is /api/replay of an event that starts inside the resident
// window. Traced,
// half the queries call the collector directly instead of the handler,
// which splits the handler's cost from the collector's.
type queryClient struct {
	p      *pipeline
	rng    *rand.Rand
	absent []flowkey.Key
	tr     *tracer
	direct bool

	apiFlow, apiReplay samples // µs through the opsapi handler
	colFlow, colReplay samples // µs calling the collector directly
	ops, errors        int64
	wallNs             int64
}

func newQueryClient(p *pipeline, seed int64, tr *tracer) *queryClient {
	return &queryClient{
		p: p, rng: rand.New(rand.NewSource(seed)), tr: tr, direct: tr != nil,
		absent: absentKeys(len(p.caps[0].flows) / 10),
	}
}

// absentKeys returns n flow keys outside the fabric's 10.0.0.0/16 hosts.
func absentKeys(n int) []flowkey.Key {
	keys := make([]flowkey.Key, n)
	for i := range keys {
		keys[i] = flowkey.Key{SrcIP: 0xc0a80000 | uint32(i), DstIP: 0xc0a90001, SrcPort: uint16(i), DstPort: flowkey.RoCEPort, Proto: flowkey.ProtoUDP}
	}
	return keys
}

// run sends queries until stop reports true, waiting briefly between
// tries while the window is still empty.
func (q *queryClient) run(stop func() bool) {
	start := time.Now()
	for !stop() {
		if !q.one() {
			time.Sleep(100 * time.Microsecond)
		}
	}
	q.wallNs += int64(time.Since(start))
}

// one sends one query; false means the window was still empty.
func (q *queryClient) one() bool {
	p := q.p
	viaAPI := !q.direct || q.rng.Intn(2) == 0
	// Events are indexed in start order, so the last `pool` of them are
	// the ones that start inside the resident window.
	if pool := p.replayable.Load(); pool > 0 && q.rng.Intn(5) == 0 {
		idx := int(p.published.Load()) - 1 - q.rng.Intn(int(pool))
		q.replay(idx, viaAPI)
		return true
	}
	epochs, _ := p.col.Snapshot().Window()
	if len(epochs) == 0 {
		return false
	}
	e := int64(epochs[q.rng.Intn(len(epochs))])
	from, to := windowsOf(e*p.w.epochNs, (e+1)*p.w.epochNs)
	loop := int(e * p.w.epochNs / p.loopNs())
	f := q.absent[q.rng.Intn(len(q.absent))]
	if flows := p.capOf(loop).flows; q.rng.Intn(11) != 0 {
		f = loopKey(flows[q.rng.Intn(len(flows))], loop)
	}
	q.ops++
	if !viaAPI {
		t0 := q.tr.now()
		p.col.QueryFlow(f, from, to)
		t1 := q.tr.now()
		q.tr.add(lQueryFlow, uint32(q.ops), t0, t1)
		q.colFlow = append(q.colFlow, float64(t1-t0)/1e3)
		return true
	}
	target := fmt.Sprintf("/api/query/flow?flow=%s&from=%d&to=%d", url.QueryEscape(f.String()), from, to)
	d := q.serve(target, lAPIFlow)
	q.apiFlow = append(q.apiFlow, d)
	return true
}

func (q *queryClient) replay(idx int, viaAPI bool) {
	q.ops++
	if !viaAPI {
		t0 := q.tr.now()
		snap := q.p.col.Snapshot()
		if evs := snap.Events(); idx < len(evs) {
			snap.Replay(evs[idx], replayMarginNs)
		} else {
			q.errors++
		}
		t1 := q.tr.now()
		q.tr.add(lReplay, uint32(q.ops), t0, t1)
		q.colReplay = append(q.colReplay, float64(t1-t0)/1e3)
		return
	}
	q.apiReplay = append(q.apiReplay, q.serve(fmt.Sprintf("/api/replay?event=%d", idx), lAPIReplay))
}

// serve runs one request through the ops API mux in-process and returns
// the handler's latency in µs; the request is built before timing starts.
func (q *queryClient) serve(target string, l layer) float64 {
	req := httptest.NewRequest(http.MethodGet, target, nil)
	rec := httptest.NewRecorder()
	start := time.Now()
	t0 := q.tr.now()
	q.p.mux.ServeHTTP(rec, req)
	q.tr.add(l, uint32(q.ops), t0, q.tr.now())
	d := float64(time.Since(start)) / 1e3
	if rec.Code != http.StatusOK {
		q.errors++
	}
	return d
}

// windowsOf converts a [fromNs, toNs) span to the windows covering it.
func windowsOf(fromNs, toNs int64) (from, to int64) {
	return measure.WindowOf(fromNs), measure.WindowOf(toNs-1) + 1
}

// probeResult is the outcome of the probe-set check.
type probeResult struct {
	checked, mismatches int
	cosine              float64
	notes               []string
}

// checkProbes compares /api/query/flow answers for a seeded probe set of
// flows (64 heaviest, 64 others, 32 absent) over the last loop's resident
// span against a linear max-fold over the resident reports' Queryables,
// and grades the answers against ground truth by cosine similarity.
func (p *pipeline) checkProbes(loops int, seed int64) probeResult {
	var res probeResult
	miss := func(format string, args ...any) {
		res.mismatches++
		if len(res.notes) < 4 {
			res.notes = append(res.notes, fmt.Sprintf(format, args...))
		}
	}
	st := p.col.Status()
	if len(st.Epochs) == 0 {
		miss("no resident epochs")
		return res
	}
	var qs []*report.Queryable
	for _, hw := range st.Hosts {
		for _, e := range hw.Epochs {
			k := p.kept[int(e%uint64(p.w.windowEpochs))*len(p.hosts)+hw.Host]
			if !k.valid || k.epoch != e {
				miss("resident report host %d epoch %d was never admitted", hw.Host, e)
				continue
			}
			rep, err := report.Decode(bytes.NewReader(k.payload))
			if err != nil {
				miss("resident report host %d epoch %d: %v", hw.Host, e, err)
				continue
			}
			qs = append(qs, report.NewQueryable(rep))
		}
	}

	lastLoop := int64(loops-1) * p.loopNs()
	lo := max(lastLoop, int64(st.Epochs[0])*p.w.epochNs)
	hi := min(lastLoop+p.loopNs(), int64(st.Epochs[len(st.Epochs)-1]+1)*p.w.epochNs)
	from, to := windowsOf(lo, hi)
	truth := p.truth(loops, from, to)

	probes := pickProbes(truth, seed)
	var cos []float64
	for _, f := range probes {
		res.checked++
		got, err := p.apiQueryFlow(f, from, to)
		if err != nil {
			miss("%s: %v", f, err)
			continue
		}
		want := make([]float64, to-from)
		for _, q := range qs {
			for i, v := range q.QueryRange(f, from, to) {
				want[i] = max(want[i], v)
			}
		}
		if !equalFloats(got, want) {
			miss("%s: /api/query/flow differs from the max-fold over %d resident reports", f, len(qs))
		}
		if t, ok := truth[f]; ok {
			cos = append(cos, metrics.Cosine(t, got))
		}
	}
	res.cosine = metrics.Mean(cos)
	return res
}

// truth bins the replayed egress of the last two loops into windows
// [from, to) per flow: the ground truth of the probed span.
func (p *pipeline) truth(loops int, from, to int64) map[flowkey.Key][]float64 {
	out := make(map[flowkey.Key][]float64)
	for k := max(0, loops-2); k < loops; k++ {
		shift := int64(k) * p.loopNs()
		for _, pkts := range p.capOf(k).hosts {
			for i := range pkts {
				w := measure.WindowOf(pkts[i].Ns + shift)
				if w < from || w >= to {
					continue
				}
				f := loopKey(pkts[i].Flow, k)
				s, ok := out[f]
				if !ok {
					s = make([]float64, to-from)
					out[f] = s
				}
				s[w-from] += float64(pkts[i].Size)
			}
		}
	}
	return out
}

// The probe set is the probeHeavy heaviest flows of the probed span plus
// probeOthers drawn from the rest, so curve_cosine weighs heavy-part and
// light-part accuracy equally.
const (
	probeHeavy  = 64
	probeOthers = 64
)

// pickProbes draws the probe set from the flows active in the span.
func pickProbes(truth map[flowkey.Key][]float64, seed int64) []flowkey.Key {
	type flowBytes struct {
		k flowkey.Key
		b float64
	}
	fs := make([]flowBytes, 0, len(truth))
	for k, s := range truth {
		var b float64
		for _, v := range s {
			b += v
		}
		fs = append(fs, flowBytes{k, b})
	}
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].b != fs[j].b {
			return fs[i].b > fs[j].b
		}
		return keyLess(fs[i].k, fs[j].k)
	})
	var probes []flowkey.Key
	heavy := min(probeHeavy, len(fs))
	for _, f := range fs[:heavy] {
		probes = append(probes, f.k)
	}
	rest := fs[heavy:]
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(rest))[:min(probeOthers, len(rest))] {
		probes = append(probes, rest[i].k)
	}
	return append(probes, absentKeys(32)...)
}

func keyLess(a, b flowkey.Key) bool {
	if a.SrcIP != b.SrcIP {
		return a.SrcIP < b.SrcIP
	}
	if a.DstIP != b.DstIP {
		return a.DstIP < b.DstIP
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	return a.Proto < b.Proto
}

// apiQueryFlow answers one flow query through the ops API handler.
func (p *pipeline) apiQueryFlow(f flowkey.Key, from, to int64) ([]float64, error) {
	target := fmt.Sprintf("/api/query/flow?flow=%s&from=%d&to=%d", url.QueryEscape(f.String()), from, to)
	rec := httptest.NewRecorder()
	p.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp opsapi.QueryFlowResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return nil, err
	}
	return resp.Windows, nil
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
