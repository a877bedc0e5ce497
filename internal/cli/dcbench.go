package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"doublechecker/internal/eval"
)

// DCBench runs the dcbench tool: regenerate the paper's evaluation. It
// returns a process exit code.
func DCBench(args []string, stdout, stderr io.Writer) int {
	return DCBenchContext(context.Background(), args, stdout, stderr)
}

// DCBenchContext is DCBench under a context: cancellation stops the suite
// at the next experiment boundary (individual experiments run to
// completion, so partially computed tables are never printed).
func DCBenchContext(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all",
			"one of: table2, fig7, table3, refine-overhead, arrays, ablations, filter-precision, pcd-only, telemetry, servecache, obsoverhead, crosscheck, all")
		scale      = fs.Float64("scale", 0.5, "workload scale factor")
		trials     = fs.Int("trials", 5, "performance trials per configuration")
		stable     = fs.Int("stable", 4, "consecutive quiet trials ending refinement (paper: 10)")
		firstRuns  = fs.Int("first-runs", 10, "first runs feeding multi-run mode's second run")
		benchmarks = fs.String("benchmarks", "", "comma-separated benchmark subset (default: all)")
		csvDir     = fs.String("csv", "", "also write machine-readable CSVs into this directory")
		budget     = fs.Int64("budget-kb", 0, "model a heap limit: flag Figure 7 rows whose live analysis bytes exceed this (KiB)")
		telOut     = fs.String("telemetry-out", "BENCH_telemetry.json", "output path for the telemetry experiment's JSON dump")
		cacheOut   = fs.String("servecache-out", "BENCH_servecache.json", "output path for the servecache experiment's JSON dump")
		obsOut     = fs.String("obs-out", "BENCH_obs.json", "output path for the obsoverhead experiment's JSON dump")
		xchkOut    = fs.String("crosscheck-out", "BENCH_crosscheck.json", "output path for the crosscheck experiment's JSON dump (byte-reproducible at a fixed budget)")
		xchkBudget = fs.Int("crosscheck-budget", 0, "crosscheck sweep triple budget (0: default 120)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var bad string
	switch {
	case !(*scale > 0):
		bad = fmt.Sprintf("-scale %v must be positive", *scale)
	case *trials < 1:
		bad = fmt.Sprintf("-trials %d must be at least 1", *trials)
	case *stable < 1:
		bad = fmt.Sprintf("-stable %d must be at least 1", *stable)
	case *firstRuns < 1:
		bad = fmt.Sprintf("-first-runs %d must be at least 1", *firstRuns)
	case *budget < 0:
		bad = fmt.Sprintf("-budget-kb %d is negative", *budget)
	case *xchkBudget < 0:
		bad = fmt.Sprintf("-crosscheck-budget %d is negative", *xchkBudget)
	}
	if bad != "" {
		fmt.Fprintln(stderr, "dcbench:", bad)
		return 2
	}
	opts := eval.Options{
		Scale:            *scale,
		PerfTrials:       *trials,
		RefineStable:     *stable,
		FirstRuns:        *firstRuns,
		MemoryBudget:     *budget * 1024,
		CrosscheckBudget: *xchkBudget,
	}
	if *benchmarks != "" {
		opts.Benchmarks = strings.Split(*benchmarks, ",")
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "dcbench:", err)
			return 1
		}
	}
	if code := runExperiments(ctx, *experiment, *csvDir, *telOut, *cacheOut, *obsOut, *xchkOut, eval.NewRunner(opts), stdout, stderr); code != 0 {
		return code
	}
	return 0
}

// runExperiments dispatches the experiment set; split out for testing.
func runExperiments(ctx context.Context, experiment, csvDir, telOut, cacheOut, obsOut, xchkOut string, runner *eval.Runner, stdout, stderr io.Writer) int {
	writeCSV := func(name, content string) bool {
		if csvDir == "" {
			return true
		}
		path := filepath.Join(csvDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fmt.Fprintln(stderr, "dcbench:", err)
			return false
		}
		fmt.Fprintf(stdout, "[wrote %s]\n", path)
		return true
	}
	run := func(name string, f func() (string, error)) bool {
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(stderr, "dcbench: canceled before %s: %v\n", name, err)
			return false
		}
		start := time.Now()
		out, err := f()
		if err != nil {
			fmt.Fprintf(stderr, "dcbench: %s: %v\n", name, err)
			return false
		}
		fmt.Fprintln(stdout, out)
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		return true
	}

	all := experiment == "all"
	ran := false
	ok := true
	if ok && (all || experiment == "table2") {
		ok = run("table2", func() (string, error) {
			d, err := runner.Table2()
			if err != nil {
				return "", err
			}
			if !writeCSV("table2.csv", d.CSVTable2()) {
				return "", fmt.Errorf("csv write failed")
			}
			return d.RenderTable2(), nil
		})
		ran = true
	}
	if ok && (all || experiment == "fig7") {
		ok = run("fig7", func() (string, error) {
			d, err := runner.Figure7()
			if err != nil {
				return "", err
			}
			if !writeCSV("fig7.csv", d.CSVFigure7()) {
				return "", fmt.Errorf("csv write failed")
			}
			return d.RenderFigure7(), nil
		})
		ran = true
	}
	if ok && (all || experiment == "table3") {
		ok = run("table3", func() (string, error) {
			d, err := runner.Table3()
			if err != nil {
				return "", err
			}
			if !writeCSV("table3.csv", d.CSVTable3()) {
				return "", fmt.Errorf("csv write failed")
			}
			return d.RenderTable3(), nil
		})
		ran = true
	}
	if ok && (all || experiment == "refine-overhead") {
		ok = run("refine-overhead", func() (string, error) {
			d, err := runner.RefinementStages()
			if err != nil {
				return "", err
			}
			return d.RenderRefineStages(), nil
		})
		ran = true
	}
	if ok && (all || experiment == "arrays") {
		ok = run("arrays", func() (string, error) {
			d, err := runner.Arrays()
			if err != nil {
				return "", err
			}
			return d.RenderArrays(), nil
		})
		ran = true
	}
	if ok && (all || experiment == "ablations") {
		ok = run("ablations", func() (string, error) {
			d, err := runner.Ablations()
			if err != nil {
				return "", err
			}
			if !writeCSV("ablations.csv", d.CSVAblations()) {
				return "", fmt.Errorf("csv write failed")
			}
			return d.RenderAblations(), nil
		})
		ran = true
	}
	if ok && (all || experiment == "filter-precision") {
		ok = run("filter-precision", func() (string, error) {
			d, err := runner.FilterPrecision()
			if err != nil {
				return "", err
			}
			return d.RenderFilterPrecision(), nil
		})
		ran = true
	}
	if ok && (all || experiment == "pcd-only") {
		ok = run("pcd-only", func() (string, error) {
			d, err := runner.PCDOnly()
			if err != nil {
				return "", err
			}
			return d.RenderPCDOnly(), nil
		})
		ran = true
	}
	if ok && (all || experiment == "telemetry") {
		ok = run("telemetry", func() (string, error) {
			d, err := runner.Telemetry()
			if err != nil {
				return "", err
			}
			if err := os.WriteFile(telOut, d.JSON(), 0o644); err != nil {
				return "", err
			}
			fmt.Fprintf(stdout, "[wrote %s]\n", telOut)
			return d.RenderTelemetry(), nil
		})
		ran = true
	}
	if ok && (all || experiment == "servecache") {
		ok = run("servecache", func() (string, error) {
			d, err := runner.ServeCache()
			if err != nil {
				return "", err
			}
			if err := os.WriteFile(cacheOut, d.JSON(), 0o644); err != nil {
				return "", err
			}
			fmt.Fprintf(stdout, "[wrote %s]\n", cacheOut)
			return d.RenderServeCache(), nil
		})
		ran = true
	}
	if ok && (all || experiment == "obsoverhead") {
		ok = run("obsoverhead", func() (string, error) {
			d, err := runner.ObsOverhead()
			if err != nil {
				return "", err
			}
			if err := os.WriteFile(obsOut, d.JSON(), 0o644); err != nil {
				return "", err
			}
			fmt.Fprintf(stdout, "[wrote %s]\n", obsOut)
			return d.RenderObsOverhead(), nil
		})
		ran = true
	}
	if ok && (all || experiment == "crosscheck") {
		ok = run("crosscheck", func() (string, error) {
			d, err := runner.Crosscheck()
			if err != nil {
				return "", err
			}
			if err := os.WriteFile(xchkOut, d.JSON(), 0o644); err != nil {
				return "", err
			}
			fmt.Fprintf(stdout, "[wrote %s]\n", xchkOut)
			if !d.OK() {
				return d.RenderCrosscheck(), fmt.Errorf("oracle failure (see %s)", xchkOut)
			}
			return d.RenderCrosscheck(), nil
		})
		ran = true
	}
	if !ok {
		return 1
	}
	if !ran {
		fmt.Fprintf(stderr, "dcbench: unknown experiment %q\n", experiment)
		return 2
	}
	return 0
}
