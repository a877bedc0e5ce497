// Package doublechecker is the public face of this DoubleChecker
// reproduction (Biswas, Huang, Sengupta, Bond — PLDI 2014): a sound and
// precise dynamic atomicity (conflict-serializability) checker built from
// two cooperating analyses, plus the Velodrome baseline, a workload
// language, a 19-benchmark suite, and the paper's full evaluation harness.
//
// The simplest entry point checks a workload-language program — methods
// marked `atomic` form the atomicity specification:
//
//	report, err := doublechecker.CheckSource(src, doublechecker.Options{Trials: 10})
//	if len(report.BlamedMethods) > 0 { ... }
//
// Modes mirror the paper: ModeSingleRun is the fully sound and precise
// ICD+PCD configuration; ModeMultiRun runs cheap ICD-only first runs and a
// filtered second run; ModeVelodrome is the prior-work baseline.
// RefineSource derives a specification by iterative refinement (Figure 6).
// The deeper APIs — the VM, the checkers, the evaluation harness — live in
// the internal packages and are exercised through the cmd/ tools and
// examples/.
//
// # Supervision
//
// Every check runs under a supervisor: trials are budgeted
// (Options.TrialTimeout, Options.MaxSteps), canceled checks return
// ErrCanceled promptly (the Context entry points), a panicking checker is
// quarantined into a Report.Failures record instead of crashing the caller,
// schedule-dependent failures are retried under rotated seeds, and a
// ModeSingleRun trial that trips Options.MemoryBudget is automatically
// downgraded to the multi-run pipeline — the paper's own single-run →
// multi-run tradeoff (§5.1). A check fails outright only when it is
// canceled, its options are invalid, or every trial fails.
package doublechecker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"doublechecker/internal/core"
	"doublechecker/internal/cost"
	"doublechecker/internal/lang"
	"doublechecker/internal/spec"
	"doublechecker/internal/supervise"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/vm"
)

// Supervision errors; match with errors.Is.
var (
	// ErrCanceled reports that the check's context was canceled before it
	// finished; no further trials were started.
	ErrCanceled = supervise.ErrCanceled
	// ErrTrialTimeout reports that a trial exceeded Options.TrialTimeout;
	// it appears on TrialFailure.Err records, and as the check's error when
	// every trial timed out.
	ErrTrialTimeout = supervise.ErrTrialTimeout
)

// Mode selects the checker configuration.
type Mode string

// The supported checker configurations.
const (
	// ModeSingleRun is DoubleChecker's single-run mode (ICD+PCD): fully
	// sound and precise for the observed execution.
	ModeSingleRun Mode = "single-run"
	// ModeMultiRun runs the paper's multi-run pipeline: FirstRuns
	// ICD-only executions, then one ICD+PCD second run restricted to the
	// static transaction information they report.
	ModeMultiRun Mode = "multi-run"
	// ModeVelodrome is the prior state-of-the-art baseline.
	ModeVelodrome Mode = "velodrome"
)

// Options configures a check. The zero value is usable.
type Options struct {
	// Mode defaults to ModeSingleRun.
	Mode Mode
	// Trials is how many schedules (seeds) to check; default 1.
	Trials int
	// Seed is the first schedule seed; trial i uses Seed+i. Must be
	// non-negative.
	Seed int64
	// Stickiness is the scheduler's per-step switch probability in (0,1];
	// default 0.1. Lower values preempt less often.
	Stickiness float64
	// FirstRuns is the number of first runs in ModeMultiRun; default 10.
	FirstRuns int

	// TrialTimeout bounds each trial's wall-clock time; 0 means unbounded.
	// A trial that exceeds it is recorded as a timeout on Report.Failures
	// and the check moves on to the next trial.
	TrialTimeout time.Duration
	// MaxSteps bounds each execution's step count (0: the VM default). A
	// trial that exceeds it fails with vm.ErrStepLimit and is retried under
	// a rotated seed.
	MaxSteps uint64
	// Retries is how many extra attempts (under rotated seeds) a trial gets
	// after a schedule-dependent failure (vm.ErrDeadlock, vm.ErrStepLimit);
	// 0 means the default (1). Retried-away failures stay on
	// Report.Failures, marked Recovered.
	Retries int
	// MemoryBudget models a heap limit in bytes for analysis metadata
	// (§5.1's 32-bit OOMs); 0 means unlimited. A ModeSingleRun trial that
	// trips it is automatically re-run through the multi-run pipeline for
	// the same seed — the paper's cheap fallback — and the downgrade is
	// recorded on Report.Downgrades.
	MemoryBudget int64

	// inject, when set (tests only), may mutate a run's configuration just
	// before it starts — the deterministic fault-injection hook. seed is
	// the scheduler seed of that particular run (trial seed, or first-run
	// seed for ModeMultiRun's first runs).
	inject func(analysis core.Analysis, seed int64, cfg *core.Config)

	// telemetry is the check-wide metric registry, created by
	// CheckUnitContext and shared by every run and the supervisor. Each
	// completed run adds its counts to it; a failed attempt adds none. Its
	// deterministic snapshot becomes Report.Telemetry.
	telemetry *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.Mode == "" {
		o.Mode = ModeSingleRun
	}
	if o.Trials == 0 {
		o.Trials = 1
	}
	if o.Stickiness == 0 {
		o.Stickiness = 0.1
	}
	if o.FirstRuns == 0 {
		o.FirstRuns = 10
	}
	if o.Retries == 0 {
		o.Retries = 1
	}
	return o
}

// validate rejects option misuse with an error instead of letting internal
// constructors (e.g. vm.NewSticky) panic on user input. It runs after
// withDefaults, so zero values have already become defaults.
func (o Options) validate() error {
	switch o.Mode {
	case ModeSingleRun, ModeMultiRun, ModeVelodrome:
	default:
		return fmt.Errorf("doublechecker: unknown mode %q", o.Mode)
	}
	if o.Trials < 0 {
		return fmt.Errorf("doublechecker: Trials %d is negative", o.Trials)
	}
	if o.Seed < 0 {
		return fmt.Errorf("doublechecker: Seed %d is negative (trial seeds Seed+i must stay non-negative)", o.Seed)
	}
	if o.Stickiness < 0 || o.Stickiness > 1 {
		return fmt.Errorf("doublechecker: Stickiness %v outside (0,1]", o.Stickiness)
	}
	if o.FirstRuns < 0 {
		return fmt.Errorf("doublechecker: FirstRuns %d is negative", o.FirstRuns)
	}
	if o.TrialTimeout < 0 {
		return fmt.Errorf("doublechecker: TrialTimeout %v is negative", o.TrialTimeout)
	}
	if o.Retries < 0 {
		return fmt.Errorf("doublechecker: Retries %d is negative", o.Retries)
	}
	if o.MemoryBudget < 0 {
		return fmt.Errorf("doublechecker: MemoryBudget %d is negative", o.MemoryBudget)
	}
	return nil
}

// budget derives the supervision budget from the options.
func (o Options) budget() supervise.Budget {
	return supervise.Budget{TrialTimeout: o.TrialTimeout, Retries: o.Retries, Telemetry: o.telemetry}
}

// Violation is one detected conflict-serializability violation.
type Violation struct {
	// Seed is the schedule that exposed it.
	Seed int64
	// Methods are the blamed methods (the transactions that completed the
	// dependence cycle); empty only for cycles among purely
	// non-transactional accesses.
	Methods []string
	// CycleSize is the number of transactions in the precise cycle.
	CycleSize int
}

// TrialFailure records one trial attempt the supervisor absorbed instead of
// aborting the check: a quarantined checker panic, a blown wall-clock or
// step budget, a deadlocked schedule, or a lost multi-run first run.
type TrialFailure struct {
	// Analysis names the configuration that failed: the Mode for whole-trial
	// failures, "dc-first" for a lost multi-run first run.
	Analysis string
	// Seed is the schedule seed of the failing attempt.
	Seed int64
	// Attempt is the 1-based attempt number within the trial.
	Attempt int
	// Kind is the failure class: "panic", "timeout", "deadlock",
	// "step-limit", "oom" or "error".
	Kind string
	// Err is the underlying error; errors.Is sees through it (e.g. to
	// vm.ErrDeadlock or ErrTrialTimeout).
	Err error
	// StackDigest is a stable 8-hex-digit digest of a quarantined panic's
	// stack; empty otherwise. Equal digests across runs point at the same
	// checker bug.
	StackDigest string
	// Recovered reports that a retry, a downgrade, or the surviving rest of
	// the first-run ensemble completed the trial anyway.
	Recovered bool
}

// Downgrade records one trial's automatic fallback from single-run mode to
// the multi-run pipeline after tripping Options.MemoryBudget — the paper's
// degradation order: single-run → multi-run → fail.
type Downgrade struct {
	// Seed is the trial seed that was re-run under the cheaper mode.
	Seed int64
	// From and To are the modes involved (currently always single-run →
	// multi-run).
	From, To Mode
	// Reason says why the trial was downgraded.
	Reason string
}

// Report summarizes a check.
type Report struct {
	// Program is the checked program's name.
	Program string
	// AtomicMethods is the size of the specification checked against.
	AtomicMethods int
	// Violations lists every distinct dynamic violation found across
	// trials.
	Violations []Violation
	// BlamedMethods is the union of blamed method names, sorted.
	BlamedMethods []string

	// CompletedTrials is how many trials produced a result (possibly after
	// retry or downgrade); the remainder are covered by Failures.
	CompletedTrials int
	// Failures records every absorbed trial failure, in trial order.
	Failures []TrialFailure
	// Downgrades records the single-run → multi-run fallbacks taken.
	Downgrades []Downgrade

	// Telemetry is the check's machine-readable metric snapshot — the
	// pipeline counters of every completed run (a failed attempt adds none),
	// the supervisor's counters, histograms and phase spans, as indented
	// JSON with nondeterministic fields (span wall times) stripped: checking
	// the same program with the same options twice yields byte-identical
	// bytes. It is raw JSON so callers can embed or forward it without
	// depending on internal types.
	Telemetry json.RawMessage
}

// recordFailures converts supervised failures into public records.
func (r *Report) recordFailures(fs []supervise.TrialFailure) {
	for _, f := range fs {
		r.Failures = append(r.Failures, TrialFailure{
			Analysis:    f.Analysis,
			Seed:        f.Seed,
			Attempt:     f.Attempt,
			Kind:        string(f.Kind),
			Err:         f.Err,
			StackDigest: f.StackDigest,
			Recovered:   f.Recovered,
		})
	}
}

// CheckSource parses a workload-language program and checks it under the
// given options. Methods marked `atomic` in the source form the atomicity
// specification.
func CheckSource(src string, opts Options) (*Report, error) {
	return CheckSourceContext(context.Background(), src, opts)
}

// CheckSourceContext is CheckSource under a context: cancellation aborts the
// check promptly with ErrCanceled.
func CheckSourceContext(ctx context.Context, src string, opts Options) (*Report, error) {
	unit, err := lang.ParseAndLower(src)
	if err != nil {
		return nil, err
	}
	return CheckUnitContext(ctx, unit, opts)
}

// CheckUnit checks an already-lowered program unit.
func CheckUnit(unit *lang.Unit, opts Options) (*Report, error) {
	return CheckUnitContext(context.Background(), unit, opts)
}

// CheckUnitContext is CheckUnit under a context. Trials run supervised: see
// the package comment's Supervision section for the recovery semantics. It
// returns an error only for invalid options, cancellation (ErrCanceled), or
// when every trial failed — in which case the error wraps the trial
// failures, so errors.Is still matches e.g. vm.ErrDeadlock.
func CheckUnitContext(ctx context.Context, unit *lang.Unit, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	prog := unit.Prog
	sp := spec.AtomicOnly(unit.Prog, unit.AtomicMethods)
	report := &Report{
		Program:       prog.Name,
		AtomicMethods: sp.Size(),
	}
	if opts.telemetry == nil {
		opts.telemetry = telemetry.NewRegistry()
	}
	budget := opts.budget()
	blamed := map[string]bool{}
	var trialErrs []error
	for trial := 0; trial < opts.Trials; trial++ {
		seed := opts.Seed + int64(trial)
		out, err := supervise.Trial(ctx, budget, string(opts.Mode), seed,
			func(ctx context.Context, s int64) (trialOutcome, error) {
				return runMode(ctx, prog, sp, s, opts)
			})
		if err != nil {
			return nil, err
		}
		report.recordFailures(out.Failures)
		if out.OK && opts.Mode == ModeSingleRun && opts.MemoryBudget > 0 && out.Value.res.Cost.OOM {
			// Degradation order: single-run → multi-run → fail (§5.1). The
			// OOM'd single-run result is discarded; the same seed re-runs
			// through the cheaper pipeline.
			report.Downgrades = append(report.Downgrades, Downgrade{
				Seed: out.Seed, From: ModeSingleRun, To: ModeMultiRun,
				Reason: "analysis memory budget exceeded",
			})
			opts.telemetry.Counter(telemetry.SuperviseDowngrades).Inc()
			fallback := opts
			fallback.Mode = ModeMultiRun
			out, err = supervise.Trial(ctx, budget, string(ModeMultiRun)+" (downgrade)", out.Seed,
				func(ctx context.Context, s int64) (trialOutcome, error) {
					return runMode(ctx, prog, sp, s, fallback)
				})
			if err != nil {
				return nil, err
			}
			report.recordFailures(out.Failures)
		}
		if !out.OK {
			if f := out.LastFailure(); f != nil {
				trialErrs = append(trialErrs, fmt.Errorf("trial %d (seed %d): %w", trial, f.Seed, f.Err))
			}
			continue
		}
		report.CompletedTrials++
		report.Failures = append(report.Failures, out.Value.notes...)
		for _, v := range out.Value.res.Violations {
			pv := Violation{Seed: out.Seed, CycleSize: len(v.Cycle)}
			for _, m := range v.BlamedMethods {
				name := prog.MethodName(m)
				pv.Methods = append(pv.Methods, name)
				blamed[name] = true
			}
			report.Violations = append(report.Violations, pv)
		}
	}
	report.BlamedMethods = sortedKeys(blamed)
	if opts.Trials > 0 && report.CompletedTrials == 0 {
		return nil, fmt.Errorf("doublechecker: all %d trials failed: %w", opts.Trials, errors.Join(trialErrs...))
	}
	report.Telemetry = json.RawMessage(opts.telemetry.Snapshot().Deterministic().JSON())
	return report, nil
}

// RefineReport is the outcome of iterative specification refinement.
type RefineReport struct {
	// Removed lists the methods refinement excluded, in removal order —
	// the methods that are not actually atomic.
	Removed []string
	// AtomicMethods lists the final specification's methods, sorted.
	AtomicMethods []string
	// Trials is how many checking trials ran.
	Trials int
}

// RefineSource runs the paper's Figure 6 iterative refinement on a
// workload-language program: starting from the `atomic`-marked methods, it
// repeatedly checks (single-run mode) and removes blamed methods until no
// new violations appear for 10 consecutive trials.
func RefineSource(src string, opts Options) (*RefineReport, error) {
	return RefineSourceContext(context.Background(), src, opts)
}

// RefineSourceContext is RefineSource under a context: cancellation aborts
// the refinement promptly with ErrCanceled.
func RefineSourceContext(ctx context.Context, src string, opts Options) (*RefineReport, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	unit, err := lang.ParseAndLower(src)
	if err != nil {
		return nil, err
	}
	prog := unit.Prog
	initial := spec.AtomicOnly(unit.Prog, unit.AtomicMethods)
	check := func(sp *spec.Spec, trial int) ([]vm.MethodID, error) {
		res, err := core.RunContext(ctx, prog, core.Config{
			Analysis: core.DCSingle,
			Sched:    vm.NewSticky(opts.Seed+int64(trial), opts.Stickiness),
			Atomic:   sp.Atomic,
			MaxSteps: opts.MaxSteps,
		})
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, fmt.Errorf("%w: %w", ErrCanceled, cerr)
			}
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
		return nil, err
	}
	report := &RefineReport{Trials: res.Trials}
	for _, m := range res.ExclusionOrder {
		report.Removed = append(report.Removed, prog.MethodName(m))
	}
	for _, m := range res.Final.AtomicMethods() {
		report.AtomicMethods = append(report.AtomicMethods, prog.MethodName(m))
	}
	return report, nil
}

// trialOutcome is one trial's result plus the sub-failures the trial
// tolerated internally (lost multi-run first runs).
type trialOutcome struct {
	res   *core.Result
	notes []TrialFailure
}

func runMode(ctx context.Context, prog *vm.Program, sp *spec.Spec, seed int64, opts Options) (trialOutcome, error) {
	cfg := func(analysis core.Analysis, schedSeed int64) core.Config {
		c := core.Config{
			Analysis:  analysis,
			Sched:     vm.NewSticky(schedSeed, opts.Stickiness),
			Atomic:    sp.Atomic,
			MaxSteps:  opts.MaxSteps,
			Telemetry: opts.telemetry,
		}
		if opts.MemoryBudget > 0 {
			c.Meter = cost.NewMeter(cost.Default())
			c.MemoryBudget = opts.MemoryBudget
		}
		if opts.inject != nil {
			opts.inject(analysis, schedSeed, &c)
		}
		return c
	}
	switch opts.Mode {
	case ModeSingleRun:
		res, err := core.RunContext(ctx, prog, cfg(core.DCSingle, seed))
		return trialOutcome{res: res}, err
	case ModeVelodrome:
		res, err := core.RunContext(ctx, prog, cfg(core.Velodrome, seed))
		return trialOutcome{res: res}, err
	case ModeMultiRun:
		o, err := core.MultiRunContext(ctx, prog, opts.FirstRuns, seed, cfg)
		if err != nil {
			return trialOutcome{}, err
		}
		// The first runs are an ensemble: a lost one is noted, and the
		// survivors fed the second run.
		var notes []TrialFailure
		for _, f := range o.FirstFailures {
			notes = append(notes, TrialFailure{
				Analysis: core.DCFirst.String(), Seed: f.Seed, Attempt: 1,
				Kind: string(supervise.Classify(f.Err)), Err: f.Err, Recovered: true,
			})
		}
		if o.Second.Cost.OOM {
			// Even the degraded pipeline can trip the budget; note it so
			// the caller knows this result is from a budget-stressed run.
			notes = append(notes, TrialFailure{
				Analysis: core.DCSecond.String(), Seed: seed, Attempt: 1,
				Kind:      string(supervise.KindOOM),
				Err:       fmt.Errorf("second run exceeded the %d-byte analysis memory budget", opts.MemoryBudget),
				Recovered: true,
			})
		}
		return trialOutcome{res: o.Second, notes: notes}, nil
	default:
		return trialOutcome{}, fmt.Errorf("doublechecker: unknown mode %q", opts.Mode)
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
