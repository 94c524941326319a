package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke replays a short trace of every workload, untraced and traced,
// and checks that every declared metric is reported with its unit and
// that every correctness check passes.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			want := endToEnd
			if traced {
				name += "/traced"
				want = perLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{
					w: w, seed: 7, seconds: 0, traced: traced,
					trafficNs: 3_000_000, setups: 1, commit: "test",
					spanFile: filepath.Join(t.TempDir(), "spans.csv"),
				}
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 {
					t.Errorf("%d of %d operations failed: %v", res.failed, res.attempted, res.notes)
				}
				for m, unit := range want {
					got, ok := res.metrics[m]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m)
					case got.Unit != unit:
						t.Errorf("metric %s unit %q, want %q", m, got.Unit, unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m, got.Value)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m, got.Value)
					}
				}
				if len(res.metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(res.metrics), len(want))
				}
				if traced {
					if _, err := os.Stat(cfg.spanFile); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
}
