package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkFile mirrors the parts of the repository's BENCHMARK.json the
// smoke test checks the output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload once untraced and once traced at a tiny
// scale: every metric BENCHMARK.json names must be emitted with its unit,
// no check may fail, and the traced run's verdicts must equal the untraced
// run's (a disagreement counts as a failed check).
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(allWorkloads))
	}
	for _, wl := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			cfg := config{
				workload:  wl.Name,
				seed:      7,
				seconds:   0.2,
				trace:     traced,
				scale:     0.3,
				seeds:     3,
				setups:    2,
				minChecks: 4,
			}
			res, err := run(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			// At this scale a traced check lasts about a millisecond, too
			// short for the layer-sum bound the traced run enforces, so
			// only failed checks count here.
			if res.Failed != 0 || res.Attempted < 1 || (!traced && !res.Correct) {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", wl.Name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", wl.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if !traced {
				if ok := res.Metrics["ok_frac"].Value; ok != 1 {
					t.Errorf("%s: ok_frac %v, want 1", wl.Name, ok)
				}
			}
		}
	}
}
