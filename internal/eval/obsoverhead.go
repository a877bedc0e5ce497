package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"doublechecker/internal/core"
	"doublechecker/internal/obs"
	"doublechecker/internal/trace"
	"doublechecker/internal/workloads"
)

// obsOverheadSeed anchors the recorded schedules so the replayed work is
// identical across trials and across the disabled/enabled arms.
const obsOverheadSeed = 47

// ObsOverheadBench is one benchmark's tracer-overhead measurement.
type ObsOverheadBench struct {
	Name string `json:"benchmark"`
	// Events is the replayed trace's event count (deterministic).
	Events uint64 `json:"events"`
	// DisabledNanos and EnabledNanos are median replay latencies with the
	// tracer off (no span in the context — the zero-value fast path) and
	// on (every pipeline span recorded). Host-bound; the ratio is the
	// architectural claim.
	DisabledNanos int64 `json:"disabled_ns"`
	EnabledNanos  int64 `json:"enabled_ns"`
	// Overhead is EnabledNanos / DisabledNanos. The disabled arm is the
	// one the zero-allocation claim is about: with no trace attached it
	// must sit in the noise (~1.0 against a build without obs at all);
	// this field instead reports what turning tracing ON costs.
	Overhead float64 `json:"overhead_enabled_vs_disabled"`
	// Spans is how many spans one traced replay records — deterministic
	// for a fixed trace.
	Spans int `json:"spans"`
	// SpanNames are the distinct span names seen, sorted (deterministic).
	SpanNames []string `json:"span_names"`
}

// ObsOverheadData is the dump written by `dcbench -experiment obsoverhead`
// (BENCH_obs.json).
type ObsOverheadData struct {
	Scale  float64 `json:"scale"`
	Trials int     `json:"trials"`
	// MedianOverhead is the corpus median of the per-benchmark
	// enabled-vs-disabled overheads — the acceptance headline: enabling
	// full pipeline tracing should cost single-digit percent, and the
	// disabled path (what every untraced run pays) is zero-allocation by
	// construction (proven by TestDisabledPathZeroAlloc in internal/obs).
	MedianOverhead float64            `json:"median_overhead"`
	Benchmarks     []ObsOverheadBench `json:"benchmarks"`
}

// ObsOverhead measures what the obs tracer costs the replay pipeline on
// the SCC-stress corpus: per benchmark, the median latency of a serial
// replay with no trace in the context (disabled — the default for every
// run that didn't ask for tracing) versus with a live trace capturing the
// full span tree. Trials interleave the two arms so thermal drift and
// scheduler mood hit both equally.
func (r *Runner) ObsOverhead() (*ObsOverheadData, error) {
	trials := r.opts.PerfTrials
	if trials < 1 {
		trials = 1
	}
	data := &ObsOverheadData{Scale: r.opts.Scale, Trials: trials}
	ctx := context.Background()
	for _, name := range workloads.Stress() {
		raw, err := r.recordServeCacheTrace(name, obsOverheadSeed)
		if err != nil {
			return nil, err
		}
		d, err := trace.Read(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("%s: decode: %w", name, err)
		}
		bm := ObsOverheadBench{Name: name, Events: d.Counts.Total()}

		replay := func(ctx context.Context) error {
			_, err := core.RunTrace(ctx, d, core.Config{Analysis: core.DCSingle})
			return err
		}
		// Warm-up run so neither arm pays first-touch costs.
		if err := replay(ctx); err != nil {
			return nil, fmt.Errorf("%s: warmup: %w", name, err)
		}

		var disabled, enabled []float64
		for t := 0; t < trials; t++ {
			start := time.Now()
			if err := replay(ctx); err != nil {
				return nil, fmt.Errorf("%s trial %d: disabled: %w", name, t, err)
			}
			disabled = append(disabled, float64(time.Since(start).Nanoseconds()))

			tr := obs.NewTrace(obs.TraceConfig{Name: "obsoverhead"})
			tctx := obs.ContextWithSpan(ctx, tr.Root())
			start = time.Now()
			if err := replay(tctx); err != nil {
				return nil, fmt.Errorf("%s trial %d: enabled: %w", name, t, err)
			}
			enabled = append(enabled, float64(time.Since(start).Nanoseconds()))
			tr.Finish()
			if t == 0 {
				spans := tr.Snapshot()
				bm.Spans = len(spans)
				seen := make(map[string]bool)
				for _, sp := range spans {
					seen[sp.Name] = true
				}
				for n := range seen {
					bm.SpanNames = append(bm.SpanNames, n)
				}
				sort.Strings(bm.SpanNames)
			}
		}
		bm.DisabledNanos = int64(median(disabled))
		bm.EnabledNanos = int64(median(enabled))
		if bm.DisabledNanos > 0 {
			bm.Overhead = float64(bm.EnabledNanos) / float64(bm.DisabledNanos)
		}
		data.Benchmarks = append(data.Benchmarks, bm)
	}
	var overheads []float64
	for _, bm := range data.Benchmarks {
		overheads = append(overheads, bm.Overhead)
	}
	data.MedianOverhead = median(overheads)
	return data, nil
}

// JSON renders the dump as indented JSON.
func (d *ObsOverheadData) JSON() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		panic("eval: obsoverhead encode: " + err.Error())
	}
	return buf.Bytes()
}

// RenderObsOverhead prints the overhead table. Absolute times are
// host-bound; the overhead column and span counts are the point.
func (d *ObsOverheadData) RenderObsOverhead() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tracer overhead on serial replay (scale %.2g, %d trial(s) per benchmark)\n", d.Scale, d.Trials)
	fmt.Fprintf(&b, "%-10s %8s %12s %12s %9s %6s\n",
		"benchmark", "events", "disabled-ms", "enabled-ms", "overhead", "spans")
	for _, bm := range d.Benchmarks {
		fmt.Fprintf(&b, "%-10s %8d %12.3f %12.3f %8.2fx %6d\n",
			bm.Name, bm.Events,
			float64(bm.DisabledNanos)/1e6,
			float64(bm.EnabledNanos)/1e6,
			bm.Overhead, bm.Spans)
	}
	fmt.Fprintf(&b, "corpus median enabled-vs-disabled overhead: %.2fx", d.MedianOverhead)
	return b.String()
}
