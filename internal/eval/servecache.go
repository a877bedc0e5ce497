package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"doublechecker/internal/core"
	"doublechecker/internal/server"
	"doublechecker/internal/store"
	"doublechecker/internal/trace"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

// serveCacheSeed anchors the schedule seeds; each trial records a fresh
// trace (different seed, different bytes, different content address) so
// cold measurements never accidentally hit.
const serveCacheSeed = 41

// serveCacheWaiters is the burst width for the coalesced measurement: one
// leader runs the check, the others join its flight.
const serveCacheWaiters = 4

// ServeCacheBench is one benchmark's latency medians across trials.
type ServeCacheBench struct {
	Name string `json:"benchmark"`
	// TraceBytes is the recorded trace size of the first trial.
	TraceBytes int `json:"trace_bytes"`
	// ColdNanos is the median first-request latency (a miss: full check).
	ColdNanos int64 `json:"cold_ns"`
	// WarmNanos is the median repeat-request latency (a memory-tier hit).
	WarmNanos int64 `json:"warm_ns"`
	// CoalescedNanos is the median latency of a request that joined
	// another request's in-flight check instead of running its own.
	CoalescedNanos int64 `json:"coalesced_ns"`
	// CoalescedSamples counts how many burst requests actually coalesced;
	// the burst is timing-dependent, so the sample size is reported rather
	// than assumed.
	CoalescedSamples int `json:"coalesced_samples"`
	// SpeedupWarm is ColdNanos / WarmNanos — what the cache saves a
	// repeat client.
	SpeedupWarm float64 `json:"speedup_warm"`
}

// ServeCacheData is the dump written by `dcbench -experiment servecache`
// (BENCH_servecache.json).
type ServeCacheData struct {
	Scale  float64 `json:"scale"`
	Trials int     `json:"trials"`
	// MedianSpeedupWarm is the corpus median of the per-benchmark warm
	// speedups — the acceptance headline.
	MedianSpeedupWarm float64           `json:"median_speedup_warm"`
	Benchmarks        []ServeCacheBench `json:"benchmarks"`
}

// recordServeCacheTrace records one stress benchmark under one seed and
// returns the trace bytes, using the same sticky scheduler the runner's
// live configurations use.
func (r *Runner) recordServeCacheTrace(name string, seed int64) ([]byte, error) {
	b, sp, err := r.bench(name)
	if err != nil {
		return nil, err
	}
	var atomicIDs []vm.MethodID
	for _, m := range b.Prog.Methods {
		if sp.Atomic(m.ID) {
			atomicIDs = append(atomicIDs, m.ID)
		}
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{
		Program: b.Prog,
		Atomic:  atomicIDs,
		Seed:    seed,
		Sched:   fmt.Sprintf("sticky(%g,%d)", b.Stickiness, seed),
		Source:  "dcbench servecache",
	})
	if err != nil {
		return nil, err
	}
	_, err = core.RecordRun(context.Background(), b.Prog, w, core.RecordConfig{
		Config: core.Config{
			Analysis: core.DCSingle,
			Sched:    vm.NewSticky(seed, b.Stickiness),
			Atomic:   sp.Atomic,
		},
		Source: "dcbench servecache",
	})
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: record: %w", name, seed, err)
	}
	return buf.Bytes(), nil
}

// serveCachePost runs one /check request through the handler in process
// (no network) and returns the latency, cache state header, and status.
func serveCachePost(h http.Handler, raw []byte) (time.Duration, string, int) {
	req := httptest.NewRequest(http.MethodPost, "/check?name=servecache", bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	return time.Since(start), rec.Header().Get(server.CacheHeader), rec.Code
}

// ServeCache measures what the result store buys the checking service on
// the SCC-stress corpus: per benchmark, the latency of a cold check (miss),
// of a repeat of the same trace (memory-tier hit), and of a request that
// arrives while an identical check is already running (coalesced waiter).
// Every trial uses a freshly recorded trace so a "cold" request can never
// hit leftovers from a previous trial.
func (r *Runner) ServeCache() (*ServeCacheData, error) {
	trials := r.opts.PerfTrials
	if trials < 1 {
		trials = 1
	}
	data := &ServeCacheData{Scale: r.opts.Scale, Trials: trials}
	for _, name := range workloads.Stress() {
		cache, err := store.Open(store.Config{MemBudget: store.DefaultMemBudget})
		if err != nil {
			return nil, err
		}
		h := server.New(server.Config{Cache: cache}).Handler()
		bm := ServeCacheBench{Name: name}
		var colds, warms, coals []float64
		for t := 0; t < trials; t++ {
			raw, err := r.recordServeCacheTrace(name, serveCacheSeed+int64(t))
			if err != nil {
				return nil, err
			}
			if t == 0 {
				bm.TraceBytes = len(raw)
			}
			lat, state, code := serveCachePost(h, raw)
			if code != http.StatusOK || state != "miss" {
				return nil, fmt.Errorf("%s trial %d: cold request: status %d cache %q", name, t, code, state)
			}
			colds = append(colds, float64(lat.Nanoseconds()))
			lat, state, code = serveCachePost(h, raw)
			if code != http.StatusOK || state != "hit" {
				return nil, fmt.Errorf("%s trial %d: warm request: status %d cache %q", name, t, code, state)
			}
			warms = append(warms, float64(lat.Nanoseconds()))

			// Coalescing burst on its own fresh trace: the requests race,
			// one leads, the rest join its flight (or hit, if they arrive
			// after it finishes — those are not counted).
			burst, err := r.recordServeCacheTrace(name, serveCacheSeed+1000+int64(t))
			if err != nil {
				return nil, err
			}
			var (
				wg   sync.WaitGroup
				mu   sync.Mutex
				errc error
			)
			for i := 0; i < serveCacheWaiters; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					lat, state, code := serveCachePost(h, burst)
					mu.Lock()
					defer mu.Unlock()
					if code != http.StatusOK {
						errc = fmt.Errorf("%s trial %d: burst request: status %d", name, t, code)
						return
					}
					if state == "coalesced" {
						coals = append(coals, float64(lat.Nanoseconds()))
						bm.CoalescedSamples++
					}
				}()
			}
			wg.Wait()
			if errc != nil {
				return nil, errc
			}
		}
		bm.ColdNanos = int64(median(colds))
		bm.WarmNanos = int64(median(warms))
		bm.CoalescedNanos = int64(median(coals))
		if bm.WarmNanos > 0 {
			bm.SpeedupWarm = float64(bm.ColdNanos) / float64(bm.WarmNanos)
		}
		data.Benchmarks = append(data.Benchmarks, bm)
	}
	var speedups []float64
	for _, bm := range data.Benchmarks {
		speedups = append(speedups, bm.SpeedupWarm)
	}
	data.MedianSpeedupWarm = median(speedups)
	return data, nil
}

// JSON renders the dump as indented JSON.
func (d *ServeCacheData) JSON() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		panic("eval: servecache encode: " + err.Error())
	}
	return buf.Bytes()
}

// RenderServeCache prints the latency table. Absolute times are host-bound;
// the warm-speedup column is the architectural effect.
func (d *ServeCacheData) RenderServeCache() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Result store service latency (scale %.2g, %d trial(s) per benchmark)\n", d.Scale, d.Trials)
	fmt.Fprintf(&b, "%-10s %12s %10s %10s %14s %9s\n",
		"benchmark", "trace-bytes", "cold-ms", "warm-ms", "coalesced-ms", "x-warm")
	for _, bm := range d.Benchmarks {
		coal := "-"
		if bm.CoalescedSamples > 0 {
			coal = fmt.Sprintf("%.3f(%d)", float64(bm.CoalescedNanos)/1e6, bm.CoalescedSamples)
		}
		fmt.Fprintf(&b, "%-10s %12d %10.2f %10.3f %14s %9.1f\n",
			bm.Name, bm.TraceBytes,
			float64(bm.ColdNanos)/1e6,
			float64(bm.WarmNanos)/1e6,
			coal, bm.SpeedupWarm)
	}
	fmt.Fprintf(&b, "corpus median warm speedup: %.1fx", d.MedianSpeedupWarm)
	return b.String()
}
