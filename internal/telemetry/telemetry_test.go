package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"doublechecker/internal/cost"
	"doublechecker/internal/obs"
)

// TestCounterConcurrent hammers one counter and one histogram from many
// goroutines; run under -race this is the registry's thread-safety gate.
func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	const goroutines, perG = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("shared")
			h := reg.Histogram("dist", []uint64{4, 16})
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(uint64(i % 32))
				reg.Gauge("g").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := reg.Histogram("dist", nil).Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

// TestHistogramBuckets pins the boundary rule: bucket i counts v <=
// Bounds[i], the final implicit bucket counts overflow.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]uint64{2, 4, 8})
	for _, v := range []uint64{1, 2, 3, 4, 5, 8, 9, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 2, 2} // {1,2}, {3,4}, {5,8}, {9,100}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got[i], want[i])
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
	if h.Sum() != 1+2+3+4+5+8+9+100 {
		t.Errorf("sum = %d", h.Sum())
	}
}

// TestHistogramSortsBounds: unsorted bounds are normalized at creation.
func TestHistogramSortsBounds(t *testing.T) {
	h := newHistogram([]uint64{8, 2, 4})
	h.Observe(3)
	if got := h.BucketCounts(); got[1] != 1 {
		t.Errorf("observation of 3 landed in %v, want bucket 1", got)
	}
}

// TestNilRegistry: every method is safe on a nil receiver and returns
// working (unregistered) handles, so instrumented code needs no hot-path
// nil checks.
func TestNilRegistry(t *testing.T) {
	var reg *Registry
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(1.5)
	reg.Histogram("h", []uint64{1}).Observe(2)
	sp := reg.StartSpan(obs.Span{}, "phase", nil)
	sp.End()
	s := reg.Snapshot()
	if len(s.Counters) != 0 || len(s.Spans) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
	var buf bytes.Buffer
	reg.WriteProm(&buf)
	if buf.Len() != 0 {
		t.Errorf("nil registry wrote prom output: %q", buf.String())
	}
	// The zero Span is likewise a no-op.
	var zero Span
	zero.End()
}

// TestSpanAccumulates: spans of the same name sum their counts and wall
// time; Deterministic strips the wall time and nothing else.
func TestSpanAccumulates(t *testing.T) {
	reg := NewRegistry()
	for i := 0; i < 3; i++ {
		sp := reg.StartSpan(obs.Span{}, "execute", nil)
		time.Sleep(time.Millisecond)
		sp.End()
	}
	s := reg.Snapshot()
	got := s.Spans["execute"]
	if got.Count != 3 {
		t.Errorf("span count = %d, want 3", got.Count)
	}
	if got.WallNanos <= 0 {
		t.Errorf("span wall = %d, want > 0", got.WallNanos)
	}
	if got.CostUnits != nil {
		t.Errorf("unmetered span reports %d cost units, want none", *got.CostUnits)
	}
	det := s.Deterministic()
	if det.Spans["execute"].WallNanos != 0 {
		t.Error("Deterministic kept wall time")
	}
	if det.Spans["execute"].Count != 3 {
		t.Error("Deterministic dropped span count")
	}
	if got := s.Spans["execute"].WallNanos; got <= 0 {
		t.Errorf("Deterministic mutated the source snapshot (wall=%d)", got)
	}
}

// TestPhaseSpanZeroAlloc: an untraced phase span — StartSpan, SetInt, End —
// allocates nothing, with no registry and with a live one (once the phase's
// first occurrence has created its aggregate). ICD opens one per SCC
// detection and GC pass.
func TestPhaseSpanZeroAlloc(t *testing.T) {
	meter := cost.NewMeter(cost.Default())
	for _, tc := range []struct {
		name string
		reg  *Registry
	}{{"nil-registry", nil}, {"live-registry", NewRegistry()}} {
		allocs := testing.AllocsPerRun(100, func() {
			sp := tc.reg.StartSpan(obs.Span{}, SpanICDSCC, meter)
			sp.SetInt("scc_txns", 3)
			sp.End()
		})
		if allocs != 0 {
			t.Errorf("%s: phase span allocates %.1f per op, want 0", tc.name, allocs)
		}
	}
}

// TestSnapshotJSONStable: two registries fed identical operations encode to
// byte-identical deterministic JSON, regardless of insertion order.
func TestSnapshotJSONStable(t *testing.T) {
	feed := func(names []string) []byte {
		reg := NewRegistry()
		for _, n := range names {
			reg.Counter(n).Add(7)
		}
		reg.Gauge("frac").Set(0.5)
		reg.Histogram("sizes", []uint64{2, 4}).Observe(3)
		sp := reg.StartSpan(obs.Span{}, "phase", nil)
		sp.End()
		return reg.Snapshot().Deterministic().JSON()
	}
	a := feed([]string{"x", "y", "z"})
	b := feed([]string{"z", "y", "x"})
	if !bytes.Equal(a, b) {
		t.Errorf("snapshots differ:\n%s\nvs\n%s", a, b)
	}
}

// TestWriteProm pins the exposition format: dc_ prefix, sanitized names,
// TYPE lines, and cumulative le buckets.
func TestWriteProm(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("octet.transitions.fast_path").Add(5)
	reg.Gauge("pcd.replayed_tx_fraction").Set(0.25)
	h := reg.Histogram("icd.scc.size", []uint64{2, 4})
	h.Observe(2)
	h.Observe(3)
	h.Observe(9)
	meter := cost.NewMeter(cost.Default())
	sp := reg.StartSpan(obs.Span{}, "icd.scc", meter)
	meter.Charge(7)
	sp.End()
	reg.StartSpan(obs.Span{}, "pcd.blame", nil).End()
	var buf bytes.Buffer
	reg.WriteProm(&buf)
	out := buf.String()
	// Only a metered phase exports a cost line.
	if strings.Contains(out, "dc_span_pcd_blame_cost_units") {
		t.Errorf("unmetered span exported a cost line:\n%s", out)
	}
	for _, want := range []string{
		"# TYPE dc_octet_transitions_fast_path counter\ndc_octet_transitions_fast_path 5\n",
		"# TYPE dc_pcd_replayed_tx_fraction gauge\ndc_pcd_replayed_tx_fraction 0.25\n",
		"dc_icd_scc_size_bucket{le=\"2\"} 1\n",
		"dc_icd_scc_size_bucket{le=\"4\"} 2\n",
		"dc_icd_scc_size_bucket{le=\"+Inf\"} 3\n",
		"dc_icd_scc_size_sum 14\ndc_icd_scc_size_count 3\n",
		"dc_span_icd_scc_cost_units 7\n",
		"dc_span_pcd_blame_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
}

// TestSnapshotAccessors: Counter and Gauge lookups default to zero.
func TestSnapshotAccessors(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a").Inc()
	s := reg.Snapshot()
	if s.Counter("a") != 1 || s.Counter("missing") != 0 {
		t.Errorf("counter accessors: %+v", s.Counters)
	}
	if s.Gauge("missing") != 0 {
		t.Error("missing gauge should read 0")
	}
}
