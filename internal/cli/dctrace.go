package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"doublechecker/internal/core"
	"doublechecker/internal/crosscheck"
	"doublechecker/internal/lang"
	"doublechecker/internal/obs"
	"doublechecker/internal/spec"
	"doublechecker/internal/store"
	"doublechecker/internal/supervise"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/trace"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

// DCTrace runs the dctrace tool: record, inspect, replay, and diff trace
// files. It returns a process exit code.
func DCTrace(args []string, stdout, stderr io.Writer) int {
	return DCTraceContext(context.Background(), args, stdout, stderr)
}

const dctraceUsage = `usage: dctrace <command> [flags] ...

commands:
  record   execute a .dcp program once and capture its event stream
  info     describe trace files (header, counts, size)
  replay   re-check traces through an analysis, no VM involved
  diff     replay each trace through DoubleChecker, Velodrome and
           ICD-only, and diff the violations
  fuzz     explore (workload, scheduler, seed) triples, checking the
           soundness, precision and determinism oracles on each; oracle
           failures are shrunk into standalone repro traces

run 'dctrace <command> -h' for the command's flags.
`

// DCTraceContext is DCTrace under a context; cancellation aborts long
// replays promptly.
func DCTraceContext(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, dctraceUsage)
		return 2
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "record":
		err = dctraceRecord(ctx, rest, stdout, stderr)
	case "info":
		err = dctraceInfo(rest, stdout, stderr)
	case "replay":
		err = dctraceReplay(ctx, rest, stdout, stderr)
	case "diff":
		err = dctraceDiff(ctx, rest, stdout, stderr)
	case "fuzz":
		err = dctraceFuzz(ctx, rest, stdout, stderr)
	case "-h", "--help", "help":
		fmt.Fprint(stdout, dctraceUsage)
		return 0
	default:
		fmt.Fprintf(stderr, "dctrace: unknown command %q\n%s", cmd, dctraceUsage)
		return 2
	}
	switch err {
	case nil:
		return 0
	case errUsage:
		return 2
	case errDisagree:
		return 1
	case errSkipped:
		return 3
	}
	fmt.Fprintln(stderr, "dctrace:", err)
	return 1
}

var (
	errUsage    = fmt.Errorf("usage error")
	errDisagree = fmt.Errorf("checkers disagree")
	// errSkipped reports that the batch completed but some trace files were
	// skipped as undecodable (exit code 3): the healthy traces' verdicts
	// stand, and the caller can tell a bad corpus entry from a bad checker.
	errSkipped = fmt.Errorf("undecodable traces skipped")
)

// isDecodeErr reports whether err means the trace file itself is unusable
// (bad magic, corruption, truncation, unreadable), as opposed to a checker
// failure on a valid trace.
func isDecodeErr(err error) bool {
	return errors.Is(err, trace.ErrBadMagic) || errors.Is(err, trace.ErrVersion) ||
		errors.Is(err, trace.ErrCorrupt) || errors.Is(err, trace.ErrTruncated) ||
		errors.Is(err, trace.ErrIO)
}

// loadUnit parses and lowers a .dcp file into a program plus its atomicity
// specification.
func loadUnit(path string) (*vm.Program, *spec.Spec, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	file, err := lang.Parse(string(src))
	if err != nil {
		return nil, nil, fmt.Errorf("%s:%v", path, err)
	}
	unit, err := lang.Lower(file)
	if err != nil {
		return nil, nil, fmt.Errorf("%s:%v", path, err)
	}
	sp := spec.New(unit.Prog)
	atomicSet := make(map[string]bool, len(unit.AtomicMethods))
	for _, n := range unit.AtomicMethods {
		atomicSet[n] = true
	}
	for _, m := range unit.Prog.Methods {
		if !atomicSet[m.Name] {
			sp.Exclude(m.ID)
		}
	}
	return unit.Prog, sp, nil
}

func dctraceRecord(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dctrace record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		analysisName = fs.String("analysis", "baseline",
			"checker to run alongside recording (baseline records without checking)")
		seed     = fs.Int64("seed", 1, "schedule seed")
		sticky   = fs.Float64("switch", 0.1, "scheduler switch probability in (0,1]")
		maxSteps = fs.Uint64("max-steps", 0, "step budget (0: VM default)")
		out      = fs.String("o", "", "output trace path (default: program path with .dct)")
	)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: dctrace record [flags] program.dcp")
		fs.PrintDefaults()
		return errUsage
	}
	if *sticky <= 0 || *sticky > 1 {
		fmt.Fprintf(stderr, "dctrace record: -switch %v outside (0,1]\n", *sticky)
		return errUsage
	}
	analysis, err := core.ParseAnalysis(*analysisName)
	if err != nil {
		return err
	}
	path := fs.Arg(0)
	prog, sp, err := loadUnit(path)
	if err != nil {
		return err
	}
	outPath := *out
	if outPath == "" {
		outPath = strings.TrimSuffix(path, filepath.Ext(path)) + ".dct"
	}
	res, err := recordTrace(ctx, prog, sp, outPath, recordOpts{
		analysis: analysis, seed: *seed, sticky: *sticky, maxSteps: *maxSteps,
		source: filepath.Base(path),
	})
	if err != nil {
		return err
	}
	fi, _ := os.Stat(outPath)
	var size int64
	if fi != nil {
		size = fi.Size()
	}
	fmt.Fprintf(stdout, "recorded %s: %d events, %d bytes (%s)\n",
		outPath, res.VMStats.Events().Total(), size, res.VMStats.Events())
	if analysis != core.Baseline {
		fmt.Fprintf(stdout, "live %s: %d violation(s)\n", analysis, len(res.Violations))
	}
	return nil
}

type recordOpts struct {
	analysis core.Analysis
	seed     int64
	sticky   float64
	maxSteps uint64
	source   string
}

// recordTrace executes prog once, teeing its event stream into a trace file
// at outPath. On any failure the partial file is removed.
func recordTrace(ctx context.Context, prog *vm.Program, sp *spec.Spec, outPath string, o recordOpts) (*core.Result, error) {
	f, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	w, err := trace.NewWriter(f, trace.Header{
		Program: prog,
		Atomic:  sp.AtomicMethods(),
		Seed:    o.seed,
		Sched:   fmt.Sprintf("sticky(%g)", o.sticky),
		Source:  o.source,
	})
	if err != nil {
		f.Close()
		os.Remove(outPath)
		return nil, err
	}
	res, err := core.RecordRun(ctx, prog, w, core.RecordConfig{
		Config: core.Config{
			Analysis: o.analysis,
			Sched:    vm.NewSticky(o.seed, o.sticky),
			Atomic:   sp.Atomic,
			MaxSteps: o.maxSteps,
		},
	})
	if err != nil {
		f.Close()
		os.Remove(outPath)
		return nil, err
	}
	if cerr := f.Close(); cerr != nil {
		os.Remove(outPath)
		return nil, cerr
	}
	return res, nil
}

// expandTracePaths turns each argument into trace files: directories expand
// to their *.dct entries, sorted.
func expandTracePaths(args []string) ([]string, error) {
	var paths []string
	for _, a := range args {
		fi, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !fi.IsDir() {
			paths = append(paths, a)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(a, "*.dct"))
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("%s: no .dct files", a)
		}
		sort.Strings(matches)
		paths = append(paths, matches...)
	}
	return paths, nil
}

func dctraceInfo(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dctrace info", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: dctrace info trace.dct ...")
		return errUsage
	}
	paths, err := expandTracePaths(fs.Args())
	if err != nil {
		return err
	}
	for _, path := range paths {
		d, err := trace.ReadFile(path)
		if err != nil {
			return err
		}
		fi, _ := os.Stat(path)
		var size int64
		if fi != nil {
			size = fi.Size()
		}
		h := &d.Header
		complete := "complete"
		if !d.Complete {
			complete = "partial"
		}
		fmt.Fprintf(stdout, "%s: v%d, %d bytes, %s\n", path, h.Version, size, complete)
		fmt.Fprintf(stdout, "  program %s: %d methods, %d threads, %d objects (digest %016x)\n",
			h.Program.Name, len(h.Program.Methods), len(h.Program.Threads),
			h.Program.NumObjects, h.ProgramDigest)
		fmt.Fprintf(stdout, "  spec: %d atomic method(s) %v (digest %016x)\n",
			len(h.Atomic), h.AtomicNames(), h.SpecDigest)
		fmt.Fprintf(stdout, "  schedule: seed %d, %s, source %q\n", h.Seed, h.Sched, h.Source)
		fmt.Fprintf(stdout, "  events: %d (%s)\n", d.Counts.Total(), d.Counts)
	}
	return nil
}

// traceJob is one unit of fan-out work: replay or diff one trace file.
type traceJob struct {
	index int
	path  string
}

// traceJobResult carries one job's printed report back in order.
type traceJobResult struct {
	index    int
	report   string
	failures []string
	err      error
	disagree bool
}

// runTraceJobs shards jobs across a worker pool. Each job runs under
// supervise.Trial, so a panicking or overrunning replay is quarantined as
// that trace's failure instead of taking the whole batch down. Reports are
// printed in input order regardless of completion order.
func runTraceJobs(ctx context.Context, paths []string, workers int, timeout time.Duration,
	analysisLabel string, run func(ctx context.Context, path string) (string, bool, error),
	stdout io.Writer, logger *obs.Logger) error {

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(paths) {
		workers = len(paths)
	}
	jobs := make(chan traceJob)
	results := make([]traceJobResult, len(paths))
	var wg sync.WaitGroup
	budget := supervise.Budget{TrialTimeout: timeout}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				r := traceJobResult{index: job.index}
				type jobOut struct {
					report   string
					disagree bool
				}
				out, err := supervise.Trial(ctx, budget, analysisLabel, int64(job.index),
					func(ctx context.Context, _ int64) (jobOut, error) {
						report, disagree, err := run(ctx, job.path)
						return jobOut{report, disagree}, err
					})
				for _, f := range out.Failures {
					r.failures = append(r.failures, fmt.Sprintf("%s: %s", job.path, f))
				}
				switch {
				case err != nil:
					r.err = err // canceled
				case !out.OK:
					if f := out.LastFailure(); f != nil {
						r.err = fmt.Errorf("%s: %w", job.path, f.Err)
					} else {
						r.err = fmt.Errorf("%s: failed", job.path)
					}
				default:
					r.report = out.Value.report
					r.disagree = out.Value.disagree
				}
				results[job.index] = r
			}
		}()
	}
	for i, p := range paths {
		jobs <- traceJob{index: i, path: p}
	}
	close(jobs)
	wg.Wait()

	var firstErr error
	disagreed, skipped := 0, 0
	for _, r := range results {
		for _, f := range r.failures {
			logger.Warn("trace job failure", "failure", f)
		}
		if r.err != nil {
			// An undecodable trace file is that file's problem, not the
			// batch's: report it, skip it, and keep the healthy verdicts.
			if isDecodeErr(r.err) && !errors.Is(r.err, supervise.ErrCanceled) {
				skipped++
				logger.Warn("skipping undecodable trace", "err", r.err.Error())
				continue
			}
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		fmt.Fprint(stdout, r.report)
		if r.disagree {
			disagreed++
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if disagreed > 0 {
		fmt.Fprintf(stdout, "%d of %d trace(s) disagree\n", disagreed, len(paths))
		return errDisagree
	}
	if skipped > 0 {
		fmt.Fprintf(stdout, "skipped %d undecodable trace(s) of %d\n", skipped, len(paths))
		return errSkipped
	}
	return nil
}

func dctraceReplay(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dctrace replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		analysisName = fs.String("analysis", "dc-single", "checker to replay the trace through")
		workers      = fs.Int("workers", 0, "worker pool size (0: GOMAXPROCS)")
		timeout      = fs.Duration("trace-timeout", 0, "wall-clock budget per trace (0: unbounded)")
		statsJSON    = fs.Bool("stats-json", false, "print each trace's telemetry snapshot as JSON (deterministic: span wall times stripped)")
		cacheDir     = fs.String("cache-dir", "", "content-addressed result store directory; hits skip the check")
		traceOut     = fs.String("trace-out", "", "write the batch's span timeline as Chrome trace-event JSON (load in Perfetto)")
		logLevel     = fs.String("log-level", "info", "diagnostic log level: debug, info, warn, error")
	)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: dctrace replay [flags] trace.dct|dir ...")
		fs.PrintDefaults()
		return errUsage
	}
	analysis, err := core.ParseAnalysis(*analysisName)
	if err != nil {
		return err
	}
	paths, err := expandTracePaths(fs.Args())
	if err != nil {
		return err
	}
	logger := newCLILogger(stderr, *logLevel)
	// One trace spans the whole batch: each job's supervise.trial (and the
	// pipeline spans under it) become per-trace children of this root, so
	// the exported timeline shows the fan-out across workers.
	if *traceOut != "" {
		tr := obs.NewTrace(obs.TraceConfig{Name: "dctrace.replay"})
		ctx = obs.ContextWithSpan(ctx, tr.Root())
		defer writeTraceOut(logger, tr, *traceOut)
	}
	// One store shared by every worker in the fan-out (its methods are
	// concurrency-safe); -stats-json reports real-run metrics, so it forces
	// every trace cold while still writing results back.
	var cache *store.Store
	if *cacheDir != "" {
		cache, err = store.Open(store.Config{Dir: *cacheDir})
		if err != nil {
			return err
		}
	}
	replayLine := func(path string, violations int, blamed []string) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%s: %d violation(s)", path, violations)
		if len(blamed) > 0 {
			fmt.Fprintf(&b, ", blamed %v", blamed)
		}
		b.WriteString("\n")
		return b.String()
	}
	return runTraceJobs(ctx, paths, *workers, *timeout, "replay-"+analysis.String(),
		func(ctx context.Context, path string) (string, bool, error) {
			sp, ctx := obs.StartSpan(ctx, "dctrace.trace")
			sp.SetStr("path", path)
			defer sp.End()
			if cache == nil {
				d, err := trace.ReadFile(path)
				if err != nil {
					return "", false, err
				}
				res, err := core.RunTrace(ctx, d, core.Config{Analysis: analysis})
				if err != nil {
					return "", false, err
				}
				var b strings.Builder
				b.WriteString(replayLine(path, len(res.Violations), res.BlamedMethodNames(d.Header.Program)))
				if *statsJSON {
					b.Write(res.Telemetry.Deterministic().JSON())
				}
				return b.String(), false, nil
			}

			raw, err := os.ReadFile(path)
			if err != nil {
				return "", false, err
			}
			hdr, rest, err := trace.PeekHeader(bytes.NewReader(raw))
			if err != nil {
				return "", false, fmt.Errorf("%s: %w", path, err)
			}
			key := store.TraceKey(hdr, store.BodyDigest(raw), *analysisName)
			if !*statsJSON {
				if e, ok := cache.Get(key); ok {
					return replayLine(path, e.Violations, e.Blamed), false, nil
				}
			}
			d, err := trace.Read(rest)
			if err != nil {
				return "", false, fmt.Errorf("%s: %w", path, err)
			}
			res, err := core.RunTrace(ctx, d, core.Config{Analysis: analysis})
			if err != nil {
				return "", false, err
			}
			if err := cache.Put(key, &store.Entry{
				Program:    d.Header.Program.Name,
				Events:     d.Counts.Total(),
				Violations: len(res.Violations),
				Blamed:     res.BlamedMethodNames(d.Header.Program),
			}); err != nil {
				return "", false, err
			}
			var b strings.Builder
			b.WriteString(replayLine(path, len(res.Violations), res.BlamedMethodNames(d.Header.Program)))
			if *statsJSON {
				b.Write(res.Telemetry.Deterministic().JSON())
			}
			return b.String(), false, nil
		}, stdout, logger)
}

func dctraceDiff(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dctrace diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workers = fs.Int("workers", 0, "worker pool size (0: GOMAXPROCS)")
		timeout = fs.Duration("trace-timeout", 0, "wall-clock budget per trace (0: unbounded)")
		verbose = fs.Bool("v", false, "print each checker's violation signatures")
	)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: dctrace diff [flags] trace.dct|dir ...")
		fs.PrintDefaults()
		return errUsage
	}
	paths, err := expandTracePaths(fs.Args())
	if err != nil {
		return err
	}
	return runTraceJobs(ctx, paths, *workers, *timeout, "diff",
		func(ctx context.Context, path string) (string, bool, error) {
			d, err := trace.ReadFile(path)
			if err != nil {
				return "", false, err
			}
			td, err := core.DiffTrace(ctx, d)
			if err != nil {
				return "", false, err
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%s: %s\n", path, td.Summary())
			if *verbose || !td.Agree() {
				fmt.Fprintf(&b, "  dc-single: %v\n", td.DCViolations)
				fmt.Fprintf(&b, "  velodrome: %v\n", td.VeloViolations)
			}
			if !td.Agree() {
				if len(td.OnlyDC) > 0 {
					fmt.Fprintf(&b, "  only dc-single: %v\n", td.OnlyDC)
				}
				if len(td.OnlyVelo) > 0 {
					fmt.Fprintf(&b, "  only velodrome: %v\n", td.OnlyVelo)
				}
				if len(td.ICDMissed) > 0 {
					fmt.Fprintf(&b, "  blamed but missed by ICD: %v\n", td.ICDMissed)
				}
				// Per-checker pipeline metrics, so the disagreement can be
				// localized to a stage (edge recording, SCC detection, replay).
				fmt.Fprintf(&b, "  dc-single telemetry: %s\n", pipelineCounters(td.DCTelemetry))
				fmt.Fprintf(&b, "  velodrome telemetry: %s\n", pipelineCounters(td.VeloTelemetry))
				fmt.Fprintf(&b, "  dc-first telemetry:  %s\n", pipelineCounters(td.FirstTelemetry))
			}
			return b.String(), !td.Agree(), nil
		}, stdout, newCLILogger(stderr, "info"))
}

// pipelineCounters renders a snapshot's nonzero checker counters (Octet
// transitions, IDG/SCC, PCD, Velodrome) as a stable one-line summary.
func pipelineCounters(s *telemetry.Snapshot) string {
	if s == nil {
		return "(none)"
	}
	names := make([]string, 0, len(s.Counters))
	for n, v := range s.Counters {
		if v == 0 {
			continue
		}
		for _, prefix := range []string{"octet.", "icd.", "pcd.", "velo."} {
			if strings.HasPrefix(n, prefix) {
				names = append(names, n)
				break
			}
		}
	}
	if len(names) == 0 {
		return "(none)"
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d", n, s.Counters[n])
	}
	return strings.Join(parts, " ")
}

// dctraceFuzz runs the schedule-exploration cross-checking harness: a
// budgeted sweep of (workload, scheduler, seed) triples — plus an exhaustive
// enumeration of the tiny corpus — checking the soundness, precision and
// determinism oracles on every execution. Oracle failures are minimized by
// the shrinker and written as standalone .dct repros.
func dctraceFuzz(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dctrace fuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		budget   = fs.Int("budget", 200, "number of (workload, scheduler, seed) triples to explore")
		seedBase = fs.Int64("seed", 1, "first schedule seed of the sweep")
		reproDir = fs.String("repro-dir", "testdata/repros", "directory for shrunk failure repros (empty: do not write repros)")
		tiny     = fs.Bool("tiny", true, "also exhaustively enumerate every interleaving of the tiny corpus")
	)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: dctrace fuzz [flags]")
		return errUsage
	}
	failed := false
	if *tiny {
		for _, tp := range workloads.Tiny() {
			rep, err := crosscheck.Enumerate(ctx,
				crosscheck.Source{Name: tp.Name, Prog: tp.Prog, Atomic: tp.Atomic},
				64, 4096)
			if err != nil {
				return err
			}
			ok := rep.Agreed == rep.Interleavings && rep.Deterministic == rep.Interleavings
			fmt.Fprintf(stdout, "enumerate %-14s %4d interleaving(s), %d violating, oracles %s\n",
				tp.Name, rep.Interleavings, rep.WithViolations, map[bool]string{true: "passed", false: "FAILED"}[ok])
			failed = failed || !ok
		}
	}
	rep, err := crosscheck.Explore(ctx, crosscheck.Options{
		Budget:   *budget,
		SeedBase: *seedBase,
		ReproDir: *reproDir,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, rep.Summary())
	for _, f := range rep.Failures {
		fmt.Fprintf(stdout, "  FAILURE %s: agree=%v det=%v", f.Triple, f.Agree, f.Deterministic)
		if f.DetDiag != "" {
			fmt.Fprintf(stdout, " (%s)", f.DetDiag)
		}
		if f.ReproPath != "" {
			fmt.Fprintf(stdout, " repro=%s (%d events)", f.ReproPath, f.ReproEvents)
		}
		fmt.Fprintln(stdout)
	}
	if failed || len(rep.Failures) > 0 {
		return errDisagree
	}
	return nil
}
