package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"doublechecker/internal/eval"
)

// benchRun is what an experiment may use: the shared runner and the
// destinations of its CSV and dump files.
type benchRun struct {
	runner  *eval.Runner
	csvDir  string
	telOut  string
	xchkOut string
	stdout  io.Writer
}

// dump writes one output file and announces it on stdout.
func (b *benchRun) dump(path string, data []byte) error {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(b.stdout, "[wrote %s]\n", path)
	return nil
}

// csv writes one CSV into the -csv directory, if one was given.
func (b *benchRun) csv(name, content string) error {
	if b.csvDir == "" {
		return nil
	}
	return b.dump(filepath.Join(b.csvDir, name), []byte(content))
}

// experiments is dcbench's experiment set in the order -experiment all runs
// it. Each run writes its own files and returns the table to print.
var experiments = []struct {
	name string
	run  func(*benchRun) (string, error)
}{
	{"table2", func(b *benchRun) (string, error) {
		d, err := b.runner.Table2()
		if err != nil {
			return "", err
		}
		if err := b.csv("table2.csv", d.CSVTable2()); err != nil {
			return "", err
		}
		return d.RenderTable2(), nil
	}},
	{"fig7", func(b *benchRun) (string, error) {
		d, err := b.runner.Figure7()
		if err != nil {
			return "", err
		}
		if err := b.csv("fig7.csv", d.CSVFigure7()); err != nil {
			return "", err
		}
		return d.RenderFigure7(), nil
	}},
	{"table3", func(b *benchRun) (string, error) {
		d, err := b.runner.Table3()
		if err != nil {
			return "", err
		}
		if err := b.csv("table3.csv", d.CSVTable3()); err != nil {
			return "", err
		}
		return d.RenderTable3(), nil
	}},
	{"refine-overhead", func(b *benchRun) (string, error) {
		d, err := b.runner.RefinementStages()
		if err != nil {
			return "", err
		}
		return d.RenderRefineStages(), nil
	}},
	{"arrays", func(b *benchRun) (string, error) {
		d, err := b.runner.Arrays()
		if err != nil {
			return "", err
		}
		return d.RenderArrays(), nil
	}},
	{"ablations", func(b *benchRun) (string, error) {
		d, err := b.runner.Ablations()
		if err != nil {
			return "", err
		}
		if err := b.csv("ablations.csv", d.CSVAblations()); err != nil {
			return "", err
		}
		return d.RenderAblations(), nil
	}},
	{"filter-precision", func(b *benchRun) (string, error) {
		d, err := b.runner.FilterPrecision()
		if err != nil {
			return "", err
		}
		return d.RenderFilterPrecision(), nil
	}},
	{"pcd-only", func(b *benchRun) (string, error) {
		d, err := b.runner.PCDOnly()
		if err != nil {
			return "", err
		}
		return d.RenderPCDOnly(), nil
	}},
	{"telemetry", func(b *benchRun) (string, error) {
		d, err := b.runner.Telemetry()
		if err != nil {
			return "", err
		}
		if err := b.dump(b.telOut, d.JSON()); err != nil {
			return "", err
		}
		return d.RenderTelemetry(), nil
	}},
	{"crosscheck", func(b *benchRun) (string, error) {
		d, err := b.runner.Crosscheck()
		if err != nil {
			return "", err
		}
		// The dump is written even when an oracle fails: it is the evidence.
		if err := b.dump(b.xchkOut, d.JSON()); err != nil {
			return "", err
		}
		if !d.OK() {
			return "", fmt.Errorf("oracle failure (see %s)", b.xchkOut)
		}
		return d.RenderCrosscheck(), nil
	}},
}

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
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	names = append(names, "all")
	var (
		experiment = fs.String("experiment", "all", "one of: "+strings.Join(names, ", "))
		scale      = fs.Float64("scale", 0.5, "workload scale factor")
		trials     = fs.Int("trials", 5, "performance trials per configuration")
		stable     = fs.Int("stable", 4, "consecutive quiet trials ending refinement (paper: 10)")
		firstRuns  = fs.Int("first-runs", 10, "first runs feeding multi-run mode's second run")
		benchmarks = fs.String("benchmarks", "", "comma-separated benchmark subset (default: all)")
		csvDir     = fs.String("csv", "", "also write machine-readable CSVs into this directory")
		budget     = fs.Int64("budget-kb", 0, "model a heap limit: flag Figure 7 rows whose live analysis bytes exceed this (KiB)")
		telOut     = fs.String("telemetry-out", "BENCH_telemetry.json", "output path for the telemetry experiment's JSON dump")
		xchkOut    = fs.String("crosscheck-out", "BENCH_crosscheck.json", "output path for the crosscheck experiment's JSON dump (byte-reproducible at a fixed budget)")
		xchkBudget = fs.Int("crosscheck-budget", 0, "crosscheck sweep triple budget (0: default 120)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var bad string
	switch {
	case !slices.Contains(names, *experiment):
		bad = fmt.Sprintf("unknown experiment %q (want one of: %s)", *experiment, strings.Join(names, ", "))
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
	b := &benchRun{runner: eval.NewRunner(opts), csvDir: *csvDir, telOut: *telOut, xchkOut: *xchkOut, stdout: stdout}
	for _, e := range experiments {
		if *experiment != "all" && e.name != *experiment {
			continue
		}
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(stderr, "dcbench: canceled before %s: %v\n", e.name, err)
			return 1
		}
		start := time.Now()
		out, err := e.run(b)
		if err != nil {
			fmt.Fprintf(stderr, "dcbench: %s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprintln(stdout, out)
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
