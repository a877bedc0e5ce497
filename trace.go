package doublechecker

import (
	"context"
	"fmt"
	"io"

	"doublechecker/internal/core"
	"doublechecker/internal/lang"
	"doublechecker/internal/spec"
	"doublechecker/internal/supervise"
	"doublechecker/internal/trace"
	"doublechecker/internal/vm"
)

// Trace decode errors, re-exported so callers can classify a bad trace file
// with errors.Is without importing internal packages.
var (
	// ErrTraceCorrupt reports a trace whose framing, checksums, or content
	// checks failed.
	ErrTraceCorrupt = trace.ErrCorrupt
	// ErrTraceTruncated reports a trace that ends before its end marker.
	ErrTraceTruncated = trace.ErrTruncated
	// ErrTraceVersion reports a trace written by an incompatible format
	// version.
	ErrTraceVersion = trace.ErrVersion
	// ErrNotATrace reports input that is not a trace file at all.
	ErrNotATrace = trace.ErrBadMagic
)

// traceMode maps a recording/replay-compatible Mode onto its analysis.
// ModeMultiRun is excluded: it is defined over several executions, while a
// trace captures exactly one.
func traceMode(mode Mode) (core.Analysis, error) {
	switch mode {
	case ModeSingleRun:
		return core.DCSingle, nil
	case ModeVelodrome:
		return core.Velodrome, nil
	case ModeMultiRun:
		return 0, fmt.Errorf("doublechecker: mode %q spans multiple executions; a trace captures one (use %q or %q)",
			mode, ModeSingleRun, ModeVelodrome)
	default:
		return 0, fmt.Errorf("doublechecker: unknown mode %q", mode)
	}
}

// RecordSource executes a workload-language program once — under
// Options.Seed and Options.Stickiness — and writes its complete
// instrumentation event stream to w as a versioned binary trace, while
// checking it live under Options.Mode (ModeSingleRun or ModeVelodrome). The
// returned Report is the live run's. The trace embeds the program and its
// atomicity specification, so CheckTrace needs nothing but the trace.
//
// Options.Trials must be 0 or 1: a trace captures exactly one execution.
// On error, any bytes already written to w do not form a valid trace and
// should be discarded.
func RecordSource(src string, w io.Writer, opts Options) (*Report, error) {
	return RecordSourceContext(context.Background(), src, w, opts)
}

// RecordSourceContext is RecordSource under a context: cancellation aborts
// the recording promptly with ErrCanceled.
func RecordSourceContext(ctx context.Context, src string, w io.Writer, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Trials > 1 {
		return nil, fmt.Errorf("doublechecker: RecordSource records one execution; Trials %d > 1", opts.Trials)
	}
	analysis, err := traceMode(opts.Mode)
	if err != nil {
		return nil, err
	}
	unit, err := lang.ParseAndLower(src)
	if err != nil {
		return nil, err
	}
	prog := unit.Prog
	sp := spec.AtomicOnly(unit.Prog, unit.AtomicMethods)
	tw, err := trace.NewWriter(w, trace.Header{
		Program: prog,
		Atomic:  sp.AtomicMethods(),
		Seed:    opts.Seed,
		Sched:   fmt.Sprintf("sticky(%g)", opts.Stickiness),
		Source:  prog.Name,
	})
	if err != nil {
		return nil, err
	}
	// One attempt, no retries: a retry would append a second execution's
	// events onto the partially-written trace. A failed recording is fatal
	// and the bytes written so far are discarded by the caller.
	budget := supervise.Budget{TrialTimeout: opts.TrialTimeout}
	out, err := supervise.Trial(ctx, budget, "record-"+analysis.String(), opts.Seed,
		func(ctx context.Context, seed int64) (*core.Result, error) {
			return core.RecordRun(ctx, prog, tw, core.RecordConfig{
				Config: core.Config{
					Analysis: analysis,
					Sched:    vm.NewSticky(seed, opts.Stickiness),
					Atomic:   sp.Atomic,
					MaxSteps: opts.MaxSteps,
				},
			})
		})
	if err != nil {
		return nil, err
	}
	report := &Report{Program: prog.Name, AtomicMethods: sp.Size()}
	report.recordFailures(out.Failures)
	if !out.OK {
		if f := out.LastFailure(); f != nil {
			return nil, fmt.Errorf("doublechecker: recording failed: %w", f.Err)
		}
		return nil, fmt.Errorf("doublechecker: recording failed")
	}
	report.CompletedTrials = 1
	fillViolations(report, prog, out.Value, out.Seed)
	return report, nil
}

// CheckTrace re-checks a recorded trace read from r under Options.Mode
// (ModeSingleRun or ModeVelodrome) — no program source, no VM, no
// scheduling: the checker consumes the recorded event stream, so its
// findings are exactly what the same checker would have reported live on
// that interleaving. Options.Seed and Options.Stickiness are ignored; the
// interleaving is the recorded one.
func CheckTrace(r io.Reader, opts Options) (*Report, error) {
	return CheckTraceContext(context.Background(), r, opts)
}

// CheckTraceContext is CheckTrace under a context: cancellation aborts the
// replay promptly with ErrCanceled.
func CheckTraceContext(ctx context.Context, r io.Reader, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Trials > 1 {
		return nil, fmt.Errorf("doublechecker: a trace is one recorded execution; Trials %d > 1 (replay is deterministic)", opts.Trials)
	}
	analysis, err := traceMode(opts.Mode)
	if err != nil {
		return nil, err
	}
	d, err := trace.Read(r)
	if err != nil {
		return nil, err
	}
	prog := d.Header.Program
	report := &Report{Program: prog.Name, AtomicMethods: len(d.Header.Atomic)}
	out, err := supervise.Trial(ctx, opts.budget(), "replay-"+analysis.String(), d.Header.Seed,
		func(ctx context.Context, _ int64) (*core.Result, error) {
			return core.RunTrace(ctx, d, core.Config{Analysis: analysis})
		})
	if err != nil {
		return nil, err
	}
	report.recordFailures(out.Failures)
	if !out.OK {
		if f := out.LastFailure(); f != nil {
			return nil, fmt.Errorf("doublechecker: replay failed: %w", f.Err)
		}
		return nil, fmt.Errorf("doublechecker: replay failed")
	}
	report.CompletedTrials = 1
	fillViolations(report, prog, out.Value, d.Header.Seed)
	return report, nil
}

// fillViolations converts one run's violations into the public report form.
func fillViolations(report *Report, prog *vm.Program, res *core.Result, seed int64) {
	blamed := map[string]bool{}
	for _, v := range res.Violations {
		pv := Violation{Seed: seed, CycleSize: len(v.Cycle)}
		for _, m := range v.BlamedMethods {
			name := prog.MethodName(m)
			pv.Methods = append(pv.Methods, name)
			blamed[name] = true
		}
		report.Violations = append(report.Violations, pv)
	}
	report.BlamedMethods = sortedKeys(blamed)
}
