// Command perfbench is the repository's wall-clock benchmark: time to a
// verdict for DoubleChecker's library checks and its HTTP service, measured
// at the caller, with a separate traced run that splits the time into the
// checker's layers.
//
// Run it from the repository root through the build wrapper:
//
//	bash perfbench/run.sh --workload scc-single --seed 1 --seconds 20 --trace 0
//
// It builds the workload from --seed, measures for --seconds, checks every
// verdict against a Velodrome reference computed on the same schedule, and
// prints one JSON object as the last line of standard output. With --trace 0
// that object holds the end-to-end metrics; with --trace 1 the per-layer
// metrics. README.md lists the workloads and the layer interactions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every program's workload scale and seeds overrides
	// the workload's distinct schedules per program (0 keeps it); the
	// smoke test shrinks both, and the run length with minChecks.
	scale     float64
	seeds     int
	setups    int
	minChecks int
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	// A run makes at least 100 checks so ten samples lie beyond p90, and
	// times five set-ups for setup_s.
	cfg := config{scale: 1, setups: 5, minChecks: 100}
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: scc-single, sparse-multi or serve-mix")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs derive from")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "how long to measure")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark invocation. Diagnostics (the calibration table,
// the first failures) go to log; the result is returned.
func run(ctx context.Context, cfg config, log io.Writer) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seeds == 0 {
		cfg.seeds = w.seeds
	}
	if cfg.setups < 1 || cfg.trace {
		cfg.setups = 1
	}
	pl, setupS, err := timedSetup(ctx, w, cfg.seed, cfg.scale, cfg.seeds, cfg.setups)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	b := &bench{cfg: cfg, pl: pl, log: log}
	if w.mode == modeServe {
		if b.svc, err = startService(); err != nil {
			return nil, err
		}
		defer b.svc.close()
	}
	if err := b.warmUp(ctx); err != nil {
		return nil, err
	}
	if cfg.trace {
		return b.traced(ctx)
	}
	return b.untraced(ctx, setupS)
}

// bench holds one invocation's state.
type bench struct {
	cfg config
	pl  *plan
	svc *service // serve-mix only
	log io.Writer
}

// check is one untraced check of r.
func (b *bench) check(ctx context.Context, r request) outcome {
	if b.svc != nil {
		return b.svc.upload(ctx, r)
	}
	return libraryCheck(ctx, b.pl.w.mode, r.in)
}

// beginPass gives every serve-mix pass a fresh server and store.
func (b *bench) beginPass() error {
	if b.svc == nil {
		return nil
	}
	return b.svc.reset()
}

// warmUp runs the first few checks untimed, so lazy set-up and caches are
// done before measuring.
func (b *bench) warmUp(ctx context.Context) error {
	for _, r := range b.pl.requests[:min(4, len(b.pl.requests))] {
		if o := b.check(ctx, r); o.err != nil {
			return fmt.Errorf("warm-up: %w", o.err)
		}
	}
	return nil
}

func (b *bench) phase(clients int, seconds float64, check func(ctx context.Context, r request) outcome) phase {
	return phase{
		requests:  b.pl.requests,
		clients:   clients,
		seconds:   seconds,
		minChecks: b.cfg.minChecks,
		beginPass: b.beginPass,
		check:     check,
	}
}

// failures counts failed and refused outcomes and reports the first few.
func (b *bench) failures(outs []outcome) (failed, refused int) {
	for _, o := range outs {
		if o.err == nil {
			continue
		}
		if failed < 3 {
			fmt.Fprintf(b.log, "check failed: %v\n", o.err)
		}
		failed++
		if o.refused {
			refused++
		}
	}
	return failed, refused
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced(ctx context.Context, setupS float64) (*result, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	outs, wall, err := b.phase(b.pl.w.clients, b.cfg.seconds, b.check).run(ctx)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	failed, _ := b.failures(outs)
	n := float64(len(outs))
	durs := make([]float64, len(outs))
	for i, o := range outs {
		durs[i] = ms(o.dur)
	}
	return &result{
		Correct:   failed == 0 && len(outs) >= b.cfg.minChecks,
		Attempted: len(outs),
		Failed:    failed,
		Metrics: map[string]metric{
			"check_p50_ms":       {quantile(durs, 0.5), "ms"},
			"check_p90_ms":       {quantile(durs, 0.9), "ms"},
			"checks_per_s":       {n / wall.Seconds(), "1/s"},
			"ok_frac":            {(n - float64(failed)) / n, "frac"},
			"alloc_mb_per_check": {float64(m1.TotalAlloc-m0.TotalAlloc) / n / 1e6, "MB"},
			"peak_rss_mb":        {peakRSSMB(), "MB"},
			"setup_s":            {setupS, "s"},
		},
	}, nil
}

// checkRate is checks per second of check time: the rate the tracing
// overhead is judged by, free of the traced run's standalone re-execution
// between checks.
func checkRate(outs []outcome) float64 {
	var total time.Duration
	for _, o := range outs {
		total += o.dur
	}
	return ratio(float64(len(outs)), total.Seconds())
}

// traced measures the per-layer metrics: half the time untraced (the
// baseline for the tracing overhead and for verdict agreement), half traced,
// then standalone probes of the trace and Octet layers. Both halves run one
// client: a second client's work would land in whichever layer of the first
// happened to be running.
func (b *bench) traced(ctx context.Context) (*result, error) {
	half := b.cfg.seconds / 2
	base, _, err := b.phase(1, half, b.check).run(ctx)
	if err != nil {
		return nil, err
	}
	verdicts := map[int][]string{}
	for _, o := range base {
		if o.err == nil {
			verdicts[o.slot] = o.blamed
		}
	}

	l, cal := newLayers(), calibration{}
	tracedCheck := func(ctx context.Context, r request) outcome {
		var o outcome
		if b.svc != nil {
			o = b.svc.tracedUpload(ctx, r, l, &cal)
		} else {
			t0 := time.Now()
			blamed, err := tracedLibraryCheck(ctx, b.pl.w.mode, r.in, l, &cal)
			o = outcome{dur: time.Since(t0), blamed: blamed, err: err}
			if err == nil {
				o.err = verdictErr(b.pl.w.mode, r.in, blamed)
			}
		}
		return o
	}
	outs, _, err := b.phase(1, half, tracedCheck).run(ctx)
	if err != nil {
		return nil, err
	}
	for i, o := range outs {
		if want, ok := verdicts[o.slot]; ok && o.err == nil && !equalStrings(o.blamed, want) {
			outs[i].err = fmt.Errorf("slot %d: traced verdict %v, untraced %v", o.slot, o.blamed, want)
		}
	}
	probe := newLayers()
	if err := probeLayers(ctx, b.pl.inputs, probe); err != nil {
		return nil, err
	}

	all := append(append([]outcome(nil), base...), outs...)
	failed, refused := b.failures(all)
	var checked time.Duration
	var hits, retries float64
	for _, o := range outs {
		checked += o.dur
		if o.cache == "hit" {
			hits++
		}
	}
	for _, o := range base {
		retries += float64(o.retries)
	}
	retried := len(base)
	if b.svc != nil {
		// The service counts its retries across both phases.
		retries, retried = float64(b.svc.totalRetries()), len(all)
	}
	n := float64(len(outs))
	layerSum := ratio(float64(l.selfSum()), float64(checked))
	rows := calibrate(l, cal)
	b.printLayers(l, checked, rows)

	c := l.count
	decodeNs, decodeBytes := l.ns["trace.decode"], c["trace.bytes"]
	replayNs, replayEvents := l.ns["trace.replay"], c["trace.replay.events"]
	if b.svc == nil {
		decodeNs, decodeBytes = probe.ns["probe.decode"], probe.count["probe.bytes"]
		replayNs, replayEvents = probe.ns["probe.replay"], probe.count["probe.events"]
	}
	metrics := map[string]metric{
		"vm.dispatch_ns_per_event":        {ratio(float64(l.ns["vm.dispatch"]), c["vm.dispatch.events"]), "ns"},
		"vm.events_per_check":             {c["vm.dispatch.events"] / n, "count"},
		"octet.ns_per_access":             {ratio(float64(probe.ns["probe.octet"]), probe.count["octet.accesses"]), "ns"},
		"octet.slow_path_frac":            {1 - ratio(probe.count["octet.fast"], probe.count["octet.accesses"]), "frac"},
		"icd.access_ns_per_event":         {ratio(float64(l.ns["icd.access"]), c["icd.accesses"]), "ns"},
		"icd.txend_us_per_tx":             {ratio(float64(l.ns["icd.txend"]), c["icd.txends"]) / 1e3, "us"},
		"icd.sccs_per_check":              {c["icd.sccs"] / n, "count"},
		"icd.precision":                   {ratio(c["pcd.precise_cycles"], c["icd.logging_sccs"]), "frac"},
		"txn.log_entries_per_check":       {c["txn.log_entries"] / n, "count"},
		"txn.log_elided_frac":             {ratio(c["txn.log_elided"], c["txn.log_entries"]+c["txn.log_elided"]), "frac"},
		"pcd.process_ms_per_check":        {float64(l.ns["pcd.process"]) / n / 1e6, "ms"},
		"pcd.ns_per_entry":                {ratio(float64(l.ns["pcd.process"]), c["pcd.entries"]), "ns"},
		"pcd.entries_per_check":           {c["pcd.entries"] / n, "count"},
		"velodrome.ns_per_event":          {ratio(float64(l.ns["velodrome"]), c["velodrome.events"]), "ns"},
		"velodrome.cycle_nodes_per_check": {ratio(c["velodrome.cycle_nodes"], c["velodrome.checks"]), "count"},
		"trace.decode_ns_per_byte":        {ratio(float64(decodeNs), decodeBytes), "ns"},
		"trace.replay_ns_per_event":       {ratio(float64(replayNs), replayEvents), "ns"},
		"store.hit_frac":                  {ratio(hits, c["server.requests"]), "frac"},
		"store.get_us":                    {ratio(float64(l.ns["store.get"]), c["store.gets"]) / 1e3, "us"},
		"store.put_us":                    {ratio(float64(l.ns["store.put"]), c["store.puts"]) / 1e3, "us"},
		"server.hit_ms":                   {ratio(c["server.hit_ns"], c["server.hits"]) / 1e6, "ms"},
		"server.miss_overhead_ms":         {ratio(c["server.miss_overhead_ns"], c["server.misses"]) / 1e6, "ms"},
		"server.refused_frac":             {ratio(float64(refused), float64(len(all))), "frac"},
		"supervise.retries_per_check":     {ratio(retries, float64(retried)), "count"},
		"bench.tracing_overhead_frac":     {1 - ratio(checkRate(outs), checkRate(base)), "frac"},
		"bench.layer_sum_frac":            {layerSum, "frac"},
		"cost.icd_ns_per_unit":            {rows[0].nsPerUnit, "ns"},
		"cost.pcd_ns_per_unit":            {rows[1].nsPerUnit, "ns"},
		"cost.rest_ns_per_unit":           {rows[2].nsPerUnit, "ns"},
	}
	sumOK := layerSum >= 0.9 && layerSum <= 1.1
	if !sumOK {
		fmt.Fprintf(b.log, "layer self-times sum to %.3f of the traced check time, outside [0.9, 1.1]\n", layerSum)
	}
	return &result{
		Correct:   failed == 0 && sumOK && len(outs) > 0,
		Attempted: len(all),
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}

// printLayers writes the traced phase's self-time table and the cost-model
// calibration table.
func (b *bench) printLayers(l *layers, checked time.Duration, rows []calibrationRow) {
	fmt.Fprintf(b.log, "%s traced: %.1f ms checked\n", b.pl.w.name, ms(checked))
	for _, name := range sortedKeys(l.ns) {
		fmt.Fprintf(b.log, "  layer %-14s %10.1f ms  %5.1f%%\n", name, ms(l.ns[name]), 100*ratio(float64(l.ns[name]), float64(checked)))
	}
	fmt.Fprintf(b.log, "cost-model calibration (ns per unit; * = over 3x off the median):\n")
	for _, r := range rows {
		flag := ""
		if r.miscalibrated {
			flag = " * miscalibrated internal/cost constant"
		}
		fmt.Fprintf(b.log, "  %-20s %14.0f units %12.0f ns %10.3f ns/unit%s\n", r.layer, r.units, r.ns, r.nsPerUnit, flag)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
