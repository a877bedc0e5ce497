// Package supervise makes checking trials survivable and budgeted.
//
// The paper's own evaluation is full of runs that fail: PCD-only runs
// exhaust memory (§5.4), 32-bit heaps go OOM (§5.1), and multi-run mode
// exists precisely as a degraded-but-cheap fallback to single-run mode. A
// production checker therefore needs a supervisor between "run one trial"
// and "run a 100-trial check": one pathological schedule, one checker
// panic, or one runaway execution must not sink the whole check.
//
// Trial runs a single attempt function under that supervision:
//
//   - cancellation: the parent context aborts the whole check promptly
//     (ErrCanceled);
//   - wall-clock budget: each attempt runs under an optional deadline,
//     surfaced as ErrTrialTimeout;
//   - panic quarantine: a panicking checker is recovered and converted into
//     a structured TrialFailure with a stable stack digest;
//   - bounded retry: schedule-dependent failures (vm.ErrDeadlock,
//     vm.ErrStepLimit) are retried under rotated seeds, and the retried-away
//     failures stay on the record, marked Recovered.
//
// The package is deliberately generic over the attempt's result type so the
// public API, the CLI, and tests can all reuse the same supervision.
package supervise

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"doublechecker/internal/obs"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/vm"
)

// Typed supervision errors. Callers match them with errors.Is.
var (
	// ErrCanceled reports that the check's parent context was canceled; the
	// supervisor aborts promptly instead of starting further attempts.
	ErrCanceled = errors.New("supervise: check canceled")
	// ErrTrialTimeout reports that one trial attempt exceeded its wall-clock
	// budget (Budget.TrialTimeout).
	ErrTrialTimeout = errors.New("supervise: trial deadline exceeded")
)

// FailureKind classifies why a trial attempt failed.
type FailureKind string

// The failure kinds the supervisor distinguishes.
const (
	// KindPanic is a quarantined checker panic.
	KindPanic FailureKind = "panic"
	// KindTimeout is a trial that exceeded its wall-clock budget.
	KindTimeout FailureKind = "timeout"
	// KindDeadlock is a schedule that deadlocked the program (retryable).
	KindDeadlock FailureKind = "deadlock"
	// KindStepLimit is an execution that exceeded its step budget (retryable).
	KindStepLimit FailureKind = "step-limit"
	// KindOOM is a run that tripped its analysis memory budget.
	KindOOM FailureKind = "oom"
	// KindError is any other attempt error.
	KindError FailureKind = "error"
)

// Classify maps an attempt error to its FailureKind.
func Classify(err error) FailureKind {
	switch {
	case errors.Is(err, ErrTrialTimeout), errors.Is(err, context.DeadlineExceeded):
		return KindTimeout
	case errors.Is(err, vm.ErrDeadlock):
		return KindDeadlock
	case errors.Is(err, vm.ErrStepLimit):
		return KindStepLimit
	default:
		return KindError
	}
}

// Transient reports whether err is schedule-dependent and therefore worth
// retrying under a rotated seed: a deadlock or a blown step budget may not
// recur on a different interleaving, whereas a panic or a parse error will.
func Transient(err error) bool {
	return errors.Is(err, vm.ErrDeadlock) || errors.Is(err, vm.ErrStepLimit)
}

// TrialFailure is the structured record of one failed trial attempt — what
// the supervisor puts on the report instead of aborting the check.
type TrialFailure struct {
	// Analysis names the configuration that failed (e.g. "single-run",
	// "dc-first").
	Analysis string
	// Seed is the schedule seed of the failing attempt (retries rotate it).
	Seed int64
	// Attempt is the 1-based attempt number within the trial.
	Attempt int
	// Kind classifies the failure.
	Kind FailureKind
	// Err is the underlying error; errors.Is sees through it (e.g. to
	// vm.ErrDeadlock or ErrTrialTimeout).
	Err error
	// StackDigest is a stable 8-hex-digit digest of the panicking
	// goroutine's stack; empty for non-panic failures. Equal digests across
	// runs point at the same checker bug.
	StackDigest string
	// Recovered reports that a later attempt (or a mode downgrade) completed
	// the trial anyway, so the failure cost coverage of one seed, not the
	// trial.
	Recovered bool
	// FlightRecord is the flight recorder's snapshot at quarantine time —
	// the spans and log lines leading up to a panic, captured alongside the
	// stack digest so a post-mortem sees context, not just a fingerprint.
	// Populated only for panics and only when Budget.Recorder is set.
	FlightRecord []obs.Event
}

func (f TrialFailure) String() string {
	s := fmt.Sprintf("%s trial (seed %d, attempt %d) %s: %v", f.Analysis, f.Seed, f.Attempt, f.Kind, f.Err)
	if f.StackDigest != "" {
		s += " [stack " + f.StackDigest + "]"
	}
	if f.Recovered {
		s += " (recovered)"
	}
	return s
}

// DefaultSeedStride is the seed rotation between retry attempts: a prime far
// larger than any realistic trial count, so retry seeds stay disjoint from
// the check's own seed range.
const DefaultSeedStride = 7919

// DefaultMaxBackoff caps exponential retry backoff when Budget.MaxRetryBackoff
// is zero.
const DefaultMaxBackoff = 30 * time.Second

// BackoffFor returns the pause before retry attempt a (a >= 2): base doubled
// per retry past the first, capped at max. It is exported so other retry
// loops (the checking service's transient-failure path) pace themselves
// exactly like Trial does.
func BackoffFor(base, max time.Duration, attempt int) time.Duration {
	if base <= 0 || attempt < 2 {
		return 0
	}
	if max <= 0 {
		max = DefaultMaxBackoff
	}
	d := base
	for i := 2; i < attempt; i++ {
		d *= 2
		// d <= 0 is doubling overflow — past max by definition. The guard
		// also bounds the loop (~63 doublings), so a giant attempt count
		// returns promptly instead of iterating attempt times.
		if d >= max || d <= 0 {
			return max
		}
	}
	if d > max {
		d = max
	}
	return d
}

// sleepCtx pauses for d, returning early with the context's error when ctx
// is done first. A non-positive d returns immediately.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Budget bounds one supervised trial.
type Budget struct {
	// TrialTimeout is the per-attempt wall-clock budget; 0 means unbounded.
	TrialTimeout time.Duration
	// Retries is how many extra attempts a Transient failure earns.
	Retries int
	// RetryBackoff is the pause before the first retry; each further retry
	// doubles it (capped at MaxRetryBackoff). 0 retries immediately. The
	// pause is context-aware: cancellation during a backoff aborts the trial
	// promptly with ErrCanceled instead of consuming the retry.
	RetryBackoff time.Duration
	// MaxRetryBackoff caps the doubled backoff; 0 means DefaultMaxBackoff.
	MaxRetryBackoff time.Duration
	// SeedStride is added to the seed on each retry; 0 means
	// DefaultSeedStride.
	SeedStride int64
	// Telemetry, if non-nil, counts supervision outcomes (attempts, retries,
	// quarantined panics, timeouts, terminal failures, recoveries) under the
	// telemetry.Supervise* names.
	Telemetry *telemetry.Registry
	// Recorder, if non-nil, receives a flight-recorder event for every
	// quarantined panic, and its snapshot at that instant is attached to
	// the TrialFailure (FlightRecord) — the post-mortem record of what the
	// process was doing when the checker blew up.
	Recorder *obs.FlightRecorder
}

// count bumps one supervision counter when a registry is attached.
func (b Budget) count(name string) {
	if b.Telemetry != nil {
		b.Telemetry.Counter(name).Inc()
	}
}

// Outcome is the result of one supervised trial.
type Outcome[T any] struct {
	// Value is the successful attempt's result; meaningful only when OK.
	Value T
	// OK reports whether any attempt completed.
	OK bool
	// Seed is the seed of the successful attempt (it differs from the trial
	// seed when a retry recovered the trial); the trial seed when none did.
	Seed int64
	// Attempts is how many attempts ran.
	Attempts int
	// Failures records every failed attempt in order. When OK, they are all
	// marked Recovered.
	Failures []TrialFailure
}

// LastFailure returns the final attempt's failure, or nil.
func (o *Outcome[T]) LastFailure() *TrialFailure {
	if o.OK || len(o.Failures) == 0 {
		return nil
	}
	return &o.Failures[len(o.Failures)-1]
}

// Trial runs one supervised trial of attempt. The returned error is non-nil
// only for whole-check aborts (a canceled parent context, as ErrCanceled);
// every per-trial failure — panic, timeout, deadlock, step limit — is
// absorbed into the Outcome so the caller's remaining trials continue.
func Trial[T any](ctx context.Context, b Budget, analysis string, seed int64,
	attempt func(ctx context.Context, seed int64) (T, error)) (Outcome[T], error) {

	out := Outcome[T]{Seed: seed}
	stride := b.SeedStride
	if stride == 0 {
		stride = DefaultSeedStride
	}
	trialSpan, ctx := obs.StartSpan(ctx, telemetry.SpanTrial)
	trialSpan.SetStr("analysis", analysis)
	defer func() {
		trialSpan.SetInt("attempts", int64(out.Attempts))
		trialSpan.End()
	}()
	for a := 1; ; a++ {
		if cerr := ctx.Err(); cerr != nil {
			return out, fmt.Errorf("%w: %w", ErrCanceled, cerr)
		}
		// Pace retries: a transient failure earns another attempt only after
		// a doubling pause, and a cancellation that lands inside the pause
		// aborts the trial without consuming the retry (Attempts stays at the
		// failed attempt's count and no rotated seed is burned).
		if cerr := sleepCtx(ctx, BackoffFor(b.RetryBackoff, b.MaxRetryBackoff, a)); cerr != nil {
			return out, fmt.Errorf("%w: %w", ErrCanceled, cerr)
		}
		s := seed + int64(a-1)*stride
		out.Attempts = a
		b.count(telemetry.SuperviseAttempts)
		if a > 1 {
			b.count(telemetry.SuperviseRetries)
		}
		attemptSpan, actx := obs.StartSpan(ctx, telemetry.SpanTrialAttempt)
		if attemptSpan.Live() {
			attemptSpan.SetInt("attempt", int64(a))
			attemptSpan.SetInt("seed", s)
		}
		v, err, panicked, digest := runAttempt(actx, b.TrialTimeout, s, attempt)
		if err == nil {
			attemptSpan.End()
			out.Value, out.OK, out.Seed = v, true, s
			for i := range out.Failures {
				out.Failures[i].Recovered = true
				b.count(telemetry.SuperviseRecovered)
			}
			return out, nil
		}
		// A failing attempt under a done parent context means the check was
		// canceled, not that the trial hit its own budget.
		if cerr := ctx.Err(); cerr != nil && !panicked {
			attemptSpan.End()
			return out, fmt.Errorf("%w: %w", ErrCanceled, cerr)
		}
		f := TrialFailure{Analysis: analysis, Seed: s, Attempt: a, Err: err, StackDigest: digest}
		switch {
		case panicked:
			f.Kind = KindPanic
			b.count(telemetry.SupervisePanics)
			// The flight recorder's state at this instant IS the post-mortem:
			// record the panic itself, then snapshot the recent span/log
			// history into the quarantine record.
			b.Recorder.Add(obs.Event{
				Kind:    obs.EventPanic,
				Name:    digest,
				Msg:     fmt.Sprintf("%s trial (seed %d, attempt %d): %v", analysis, s, a, err),
				TraceID: attemptSpan.TraceID(),
				SpanID:  attemptSpan.SpanID(),
			})
			if b.Recorder != nil {
				f.FlightRecord = b.Recorder.Snapshot()
			}
		case errors.Is(err, context.DeadlineExceeded):
			f.Kind = KindTimeout
			f.Err = fmt.Errorf("%w: %w", ErrTrialTimeout, err)
			b.count(telemetry.SuperviseTimeouts)
		default:
			f.Kind = Classify(err)
		}
		if attemptSpan.Live() {
			attemptSpan.SetStr("failure", string(f.Kind))
		}
		attemptSpan.End()
		out.Failures = append(out.Failures, f)
		if !Transient(err) || a > b.Retries {
			b.count(telemetry.SuperviseFailures)
			return out, nil
		}
	}
}

// runAttempt executes one attempt under an optional deadline, quarantining
// panics into (err, panicked, digest).
func runAttempt[T any](ctx context.Context, timeout time.Duration, seed int64,
	attempt func(context.Context, int64) (T, error)) (v T, err error, panicked bool, digest string) {

	actx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			digest = stackDigest(debug.Stack())
			err = fmt.Errorf("checker panic: %v", r)
			panicked = true
		}
	}()
	v, err = attempt(actx, seed)
	return v, err, false, ""
}

// stackDigest hashes a panic stack into a stable 8-hex-digit fingerprint.
// Only the frames between the panic site and the supervisor's recover point
// are hashed, and goroutine IDs, argument values, and code offsets are
// stripped: the same checker bug digests identically across trials, seeds,
// and processes, so repeated failures can be recognized as one bug.
func stackDigest(stack []byte) string {
	lines := strings.Split(string(stack), "\n")
	// The traceback reads: deferred recover frames, runtime.gopanic (shown
	// as "panic(...)"), the panic site's frames, then the recover point and
	// its callers. Keep the slice between the last panic frame and the
	// recover point.
	start := 0
	for i, ln := range lines {
		if strings.HasPrefix(ln, "panic(") {
			start = i + 2 // skip the panic frame's own file line too
		}
	}
	end := len(lines)
	for i := start; i < len(lines); i++ {
		if strings.Contains(lines[i], "supervise.runAttempt") {
			end = i
			break
		}
	}
	var b strings.Builder
	for _, ln := range lines[start:end] {
		if strings.HasPrefix(ln, "goroutine ") {
			continue
		}
		if i := strings.LastIndexByte(ln, '('); i > 0 {
			ln = ln[:i] // drop argument values
		}
		if i := strings.Index(ln, " +0x"); i > 0 {
			ln = ln[:i] // drop code offsets
		}
		b.WriteString(ln)
		b.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:4])
}
