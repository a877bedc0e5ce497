// Package cli implements the command-line tools' logic behind injectable
// writers, so cmd/dcheck, cmd/dcbench and cmd/dcgen stay one-line mains and
// the flag handling, file handling and output formatting are unit-tested.
package cli

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"doublechecker/internal/core"
	"doublechecker/internal/cost"
	"doublechecker/internal/lang"
	"doublechecker/internal/obs"
	"doublechecker/internal/spec"
	"doublechecker/internal/store"
	"doublechecker/internal/supervise"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/trace"
	"doublechecker/internal/vm"
)

// DCheck runs the dcheck tool: parse a .dcp program, lint it, and run the
// selected checker configuration (or iterative refinement). It returns a
// process exit code.
func DCheck(args []string, stdout, stderr io.Writer) int {
	return DCheckContext(context.Background(), args, stdout, stderr)
}

// DCheckContext is DCheck under a context: cancellation (e.g. SIGINT via
// signal.NotifyContext in cmd/dcheck) aborts the run promptly.
func DCheckContext(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		analysisName = fs.String("analysis", "dc-single",
			"checker: baseline, velodrome, velodrome-unsound, dc-single, dc-first, dc-second, velodrome-second, pcd-only")
		seed    = fs.Int64("seed", 1, "schedule seed")
		trials  = fs.Int("trials", 1, "number of trials (distinct seeds starting at -seed)")
		sticky  = fs.Float64("switch", 0.1, "scheduler switch probability in (0,1]")
		refine  = fs.Bool("refine", false, "run iterative specification refinement instead of a plain check")
		lint    = fs.Bool("lint", false, "only run static well-formedness checks and exit")
		costly  = fs.Bool("cost", false, "report modelled cost (normalized against an uninstrumented run)")
		verbose = fs.Bool("v", false, "print a timeline explanation for each violation")
		dot     = fs.Bool("dot", false, "emit the first violation as a Graphviz digraph and exit")

		trialTimeout = fs.Duration("trial-timeout", 0, "wall-clock budget per trial (0: unbounded)")
		maxSteps     = fs.Uint64("max-steps", 0, "step budget per execution (0: VM default)")
		retries      = fs.Int("retries", 1, "extra attempts (rotated seeds) after a deadlock or step-limit trial")

		record   = fs.String("record", "", "record the execution's event stream to this .dct trace file (requires -trials 1)")
		replay   = fs.Bool("replay", false, "treat the argument as a .dct trace and re-check it without executing")
		cacheDir = fs.String("cache-dir", "", "with -replay: content-addressed result store directory; hits skip the check")

		statsJSON   = fs.Bool("stats-json", false, "print the run's telemetry snapshot as JSON (deterministic: span wall times stripped)")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics (Prometheus text), /debug/vars and /debug/pprof on this address while the check runs")
		traceOut    = fs.String("trace-out", "", "write the run's span timeline as Chrome trace-event JSON (load in Perfetto)")
		logLevel    = fs.String("log-level", "info", "diagnostic log level: debug, info, warn, error")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: dcheck [flags] program.dcp   (or dcheck -replay [flags] trace.dct)")
		fs.PrintDefaults()
		return 2
	}
	// A zero -trial-timeout means unbounded; every other number outside its
	// domain exits 2 naming the flag.
	var bad string
	switch {
	case *sticky <= 0 || *sticky > 1:
		bad = fmt.Sprintf("-switch %v outside (0,1]", *sticky)
	case *trials < 1:
		bad = fmt.Sprintf("-trials %d must be at least 1", *trials)
	case *retries < 0:
		bad = fmt.Sprintf("-retries %d is negative", *retries)
	case *trialTimeout < 0:
		bad = fmt.Sprintf("-trial-timeout %v is negative", *trialTimeout)
	}
	if bad != "" {
		fmt.Fprintln(stderr, "dcheck:", bad)
		return 2
	}
	if *record != "" && (*trials != 1 || *refine || *dot || *replay) {
		fmt.Fprintln(stderr, "dcheck: -record needs -trials 1 and is incompatible with -refine, -dot and -replay")
		return 2
	}
	if *replay && (*refine || *lint || *costly || *dot || *verbose) {
		fmt.Fprintln(stderr, "dcheck: -replay is incompatible with -refine, -lint, -cost, -dot and -v")
		return 2
	}
	if *cacheDir != "" && !*replay {
		fmt.Fprintln(stderr, "dcheck: -cache-dir requires -replay")
		return 2
	}
	err := runDCheck(ctx, dcheckOpts{
		path: fs.Arg(0), analysis: *analysisName, seed: *seed, trials: *trials,
		sticky: *sticky, refine: *refine, lintOnly: *lint, costly: *costly,
		verbose: *verbose, dot: *dot,
		trialTimeout: *trialTimeout, maxSteps: *maxSteps, retries: *retries,
		record: *record, replay: *replay, cacheDir: *cacheDir,
		statsJSON: *statsJSON, metricsAddr: *metricsAddr,
		traceOut: *traceOut, logLevel: *logLevel,
	}, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "dcheck:", err)
		return 1
	}
	return 0
}

type dcheckOpts struct {
	path                                   string
	analysis                               string
	seed                                   int64
	trials                                 int
	sticky                                 float64
	refine, lintOnly, costly, verbose, dot bool
	trialTimeout                           time.Duration
	maxSteps                               uint64
	retries                                int
	record                                 string
	replay                                 bool
	cacheDir                               string
	statsJSON                              bool
	metricsAddr                            string
	traceOut                               string
	logLevel                               string
}

func runDCheck(ctx context.Context, o dcheckOpts, stdout, stderr io.Writer) error {
	// One registry for the whole invocation: every trial (and the replay
	// path) accumulates into it, -metrics-addr serves it live, and
	// -stats-json prints its deterministic snapshot at the end.
	reg := telemetry.NewRegistry()
	logger := newCLILogger(stderr, o.logLevel)
	if o.metricsAddr != "" {
		stop, err := serveMetrics(o.metricsAddr, reg, logger)
		if err != nil {
			return err
		}
		defer stop()
	}
	// -trace-out puts the whole invocation — every trial, or the replay —
	// under one trace rooted here; the export happens on the way out.
	if o.traceOut != "" {
		tr := obs.NewTrace(obs.TraceConfig{Name: "dcheck"})
		ctx = obs.ContextWithSpan(ctx, tr.Root())
		defer writeTraceOut(logger, tr, o.traceOut)
	}
	if o.replay {
		return runDCheckReplay(ctx, o, reg, stdout)
	}
	src, err := os.ReadFile(o.path)
	if err != nil {
		return err
	}
	file, err := lang.Parse(string(src))
	if err != nil {
		return fmt.Errorf("%s:%v", o.path, err)
	}
	if warns := lang.Lint(file); len(warns) > 0 {
		for _, w := range warns {
			fmt.Fprintf(stderr, "%s:%s\n", o.path, w)
		}
		if o.lintOnly {
			return fmt.Errorf("%d lint warning(s)", len(warns))
		}
	} else if o.lintOnly {
		fmt.Fprintln(stdout, "lint: clean")
		return nil
	}
	unit, err := lang.Lower(file)
	if err != nil {
		return fmt.Errorf("%s:%v", o.path, err)
	}
	prog := unit.Prog
	analysis, err := core.ParseAnalysis(o.analysis)
	if err != nil {
		return err
	}

	sp := spec.AtomicOnly(prog, unit.AtomicMethods)
	fmt.Fprintf(stdout, "program %s: %d methods (%d atomic), %d threads, %d objects\n",
		prog.Name, len(prog.Methods), sp.Size(), len(prog.Threads), prog.NumObjects)

	if o.refine {
		return runRefine(ctx, prog, sp, o, stdout)
	}

	if o.record != "" {
		res, err := recordTrace(ctx, prog, sp, o.record, recordOpts{
			analysis: analysis, seed: o.seed, sticky: o.sticky,
			maxSteps: o.maxSteps, source: o.path,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "recorded %s: %d events (%s)\n",
			o.record, res.VMStats.Events().Total(), res.VMStats.Events())
		printViolationSummary(stdout, prog, res)
		return nil
	}

	budget := supervise.Budget{TrialTimeout: o.trialTimeout, Retries: o.retries, Telemetry: reg}
	blamed := make(map[string]bool)
	totalViolations := 0
	completed := 0
	var lastErr error
	for t := 0; t < o.trials; t++ {
		s := o.seed + int64(t)
		var meter *cost.Meter
		var baseTotal cost.Units
		if o.costly {
			base := cost.NewMeter(cost.Default())
			if _, err := core.RunContext(ctx, prog, core.Config{
				Analysis: core.Baseline, Sched: vm.NewSticky(s, o.sticky),
				Atomic: sp.Atomic, Meter: base, MaxSteps: o.maxSteps,
			}); err != nil {
				return err
			}
			baseTotal = base.Total()
			meter = cost.NewMeter(cost.Default())
		}
		out, err := supervise.Trial(ctx, budget, o.analysis, s,
			func(ctx context.Context, seed int64) (*core.Result, error) {
				return core.RunContext(ctx, prog, core.Config{
					Analysis:  analysis,
					Sched:     vm.NewSticky(seed, o.sticky),
					Atomic:    sp.Atomic,
					Meter:     meter,
					MaxSteps:  o.maxSteps,
					Telemetry: reg,
				})
			})
		if err != nil {
			return err // canceled
		}
		for _, f := range out.Failures {
			logger.Warn("trial failure", "seed", out.Seed, "failure", f.String())
		}
		if !out.OK {
			if f := out.LastFailure(); f != nil {
				lastErr = f.Err
			}
			continue
		}
		completed++
		res := out.Value
		totalViolations += len(res.Violations)
		for m := range res.BlamedMethods {
			blamed[prog.MethodName(m)] = true
		}
		if o.dot && len(res.Violations) > 0 {
			fmt.Fprint(stdout, lang.ViolationDot(unit, res.Violations[0]))
			return nil
		}
		if o.verbose {
			for _, v := range res.Violations {
				fmt.Fprintf(stdout, "--- seed %d ---\n%s", out.Seed, lang.ExplainViolation(unit, v))
			}
		}
		if o.costly {
			fmt.Fprintf(stdout, "  seed %d: normalized execution time %.2fx (GC %.0f%%)\n",
				out.Seed, res.Cost.Normalized(baseTotal), 100*res.Cost.GCFraction())
		}
	}
	if completed == 0 {
		return fmt.Errorf("all %d trials failed: %w", o.trials, lastErr)
	}
	if completed < o.trials {
		fmt.Fprintf(stdout, "%d of %d trials completed\n", completed, o.trials)
	}
	fmt.Fprintf(stdout, "%d dynamic violations across %d trial(s)\n", totalViolations, completed)
	if len(blamed) > 0 {
		names := make([]string, 0, len(blamed))
		for n := range blamed {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stdout, "blamed methods: %v\n", names)
	} else {
		fmt.Fprintln(stdout, "no atomicity violations detected")
	}
	if o.statsJSON {
		stdout.Write(reg.Snapshot().Deterministic().JSON())
	}
	return nil
}

// printViolationSummary prints one result's violation count and blamed
// methods in dcheck's usual format (core.ViolationSummary, shared with the
// dcserve service).
func printViolationSummary(stdout io.Writer, prog *vm.Program, res *core.Result) {
	io.WriteString(stdout, core.ViolationSummary(prog, res))
}

// runDCheckReplay re-checks a recorded trace: the positional argument is a
// .dct file and the analysis consumes its event stream with no VM. With
// -cache-dir, results are read from and written to a content-addressed
// store; a hit renders the identical report without running the check.
func runDCheckReplay(ctx context.Context, o dcheckOpts, reg *telemetry.Registry, stdout io.Writer) error {
	analysis, err := core.ParseAnalysis(o.analysis)
	if err != nil {
		return err
	}
	// The one-shot store skips the memory tier (this process serves no
	// second request) and keeps its own counters out of the run's
	// telemetry snapshot.
	var cache *store.Store
	if o.cacheDir != "" {
		if cache, err = store.Open(store.Config{Dir: o.cacheDir}); err != nil {
			return err
		}
	}
	r, err := replayFile(ctx, cache, o.path, o.statsJSON, core.Config{Analysis: analysis, Telemetry: reg})
	if err != nil {
		return err
	}
	io.WriteString(stdout, core.ReplayReportFrom(o.path, r.entry.Program, r.hdr.Seed,
		r.entry.Events, r.hdr.Source, r.entry.Violations, r.entry.Blamed))
	if o.statsJSON {
		stdout.Write(reg.Snapshot().Deterministic().JSON())
	}
	return nil
}

// replayed is one re-checked trace file: its header, its verdict as a
// store entry, and the run's result (nil when the store answered).
type replayed struct {
	hdr   *trace.Header
	entry *store.Entry
	res   *core.Result
}

// replayFile re-checks the .dct trace at path: the one path behind dcheck
// -replay and dctrace replay. The file is read once; its header, plus a
// raw-byte digest when there is a store, forms the cache key, and only a
// miss decodes the events and runs the check. fresh skips the lookup,
// because -stats-json reports the metrics of an actual run, but the result
// is still stored. A nil cache holds nothing, so every call runs the check.
func replayFile(ctx context.Context, cache *store.Store, path string, fresh bool, cfg core.Config) (replayed, error) {
	f, err := os.Open(path)
	if err != nil {
		return replayed{}, err
	}
	// A file that opens but cannot be read fails as a trace read, which
	// dctrace skips as undecodable, like any other unusable trace.
	raw, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return replayed{}, fmt.Errorf("%s: %w: %w", path, trace.ErrIO, err)
	}
	hdr, err := trace.ReadHeader(bytes.NewReader(raw))
	if err != nil {
		return replayed{}, fmt.Errorf("%s: %w", path, err)
	}
	key := cache.Key(hdr, raw, cfg.Analysis.String())
	if !fresh {
		if e, ok := cache.Get(key); ok {
			return replayed{hdr: hdr, entry: e}, nil
		}
	}
	d, err := trace.Read(bytes.NewReader(raw))
	if err != nil {
		return replayed{}, fmt.Errorf("%s: %w", path, err)
	}
	res, err := core.RunTrace(ctx, d, cfg)
	if err != nil {
		return replayed{}, err
	}
	e := &store.Entry{
		Program:    hdr.Program.Name,
		Events:     d.Counts.Total(),
		Violations: len(res.Violations),
		Blamed:     res.BlamedMethodNames(hdr.Program),
	}
	if err := cache.Put(key, e); err != nil {
		return replayed{}, err
	}
	return replayed{hdr, e, res}, nil
}

func runRefine(ctx context.Context, prog *vm.Program, initial *spec.Spec, o dcheckOpts, stdout io.Writer) error {
	check := func(sp *spec.Spec, trial int) ([]vm.MethodID, error) {
		res, err := core.RunContext(ctx, prog, core.Config{
			Analysis: core.DCSingle,
			Sched:    vm.NewSticky(int64(trial), o.sticky),
			Atomic:   sp.Atomic,
			MaxSteps: o.maxSteps,
		})
		if err != nil {
			return nil, err
		}
		var out []vm.MethodID
		for m := range res.BlamedMethods {
			out = append(out, m)
		}
		return out, nil
	}
	res, err := spec.Refine(initial, check, spec.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "refinement: %d trials, %d steps, %d methods blamed\n",
		res.Trials, res.Steps, len(res.Blamed))
	for _, m := range res.ExclusionOrder {
		fmt.Fprintf(stdout, "  removed from specification: %s\n", prog.MethodName(m))
	}
	fmt.Fprintf(stdout, "final specification: %d atomic methods\n", res.Final.Size())
	return nil
}
