package doublechecker

// Supervisor tests: these prove — by deterministic fault injection — that
// every recovery path of the supervised checking pipeline actually fires:
// panic quarantine, OOM downgrade, deadlock retry with seed rotation,
// wall-clock deadlines, and prompt cancellation. Where a fault targets one
// trial, the untouched trials' findings are asserted identical to an
// uninjected run with the same seeds.

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"doublechecker/internal/core"
	"doublechecker/internal/faultinject"
	"doublechecker/internal/lang"
	"doublechecker/internal/spec"
	"doublechecker/internal/supervise"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/vm"
)

// stuckSource deadlocks under every schedule: its only thread waits on a
// monitor nobody will ever notify.
const stuckSource = `
program stuck
object o
lock l
method main0 { acquire l wait l release l read o.x }
thread main0
`

// abbaSource deadlocks only under schedules that interleave the two
// opposing lock acquisitions; most sticky schedules survive it.
const abbaSource = `
program abba
object o
lock a
lock b
atomic method m0 { acquire a acquire b read o.x write o.x release b release a }
atomic method m1 { acquire b acquire a read o.x write o.x release a release b }
method main0 { loop 3 { call m0 } }
method main1 { loop 3 { call m1 } }
thread main0
thread main1
`

// slowSource is racySource scaled up so a run spans thousands of VM steps —
// long enough for stall injection plus a deadline to interrupt it mid-run.
const slowSource = `
program slow
object c
atomic method bump { read c.n compute 6 write c.n }
method main0 { loop 300 { call bump } }
method main1 { loop 300 { call bump } }
thread main0
thread main1
`

// violationsBySeed indexes a report's violations for per-seed comparison.
func violationsBySeed(r *Report) map[int64][]Violation {
	m := map[int64][]Violation{}
	for _, v := range r.Violations {
		m[v.Seed] = append(m[v.Seed], v)
	}
	return m
}

// assertSeedsUnchanged checks that for every seed except the excluded ones,
// the injected report found exactly the baseline's violations.
func assertSeedsUnchanged(t *testing.T, baseline, injected *Report, excluded ...int64) {
	t.Helper()
	skip := map[int64]bool{}
	for _, s := range excluded {
		skip[s] = true
	}
	base, got := violationsBySeed(baseline), violationsBySeed(injected)
	for seed, want := range base {
		if skip[seed] {
			continue
		}
		if !reflect.DeepEqual(got[seed], want) {
			t.Errorf("seed %d: injected run diverged: got %+v, want %+v", seed, got[seed], want)
		}
	}
	for seed := range got {
		if !skip[seed] && base[seed] == nil {
			t.Errorf("seed %d: injected run found violations the baseline did not: %+v", seed, got[seed])
		}
	}
}

func TestPanicQuarantineKeepsOtherTrials(t *testing.T) {
	opts := Options{Trials: 4, Seed: 1}
	baseline, err := CheckSource(racySource, opts)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.CompletedTrials != 4 || len(baseline.Failures) != 0 {
		t.Fatalf("baseline not clean: %+v", baseline)
	}

	const targetSeed = 3
	injected := opts
	injected.inject = func(a core.Analysis, seed int64, cfg *core.Config) {
		if a == core.DCSingle && seed == targetSeed {
			cfg.WrapInst = func(in vm.Instrumentation) vm.Instrumentation {
				return faultinject.Inst(in, &faultinject.Plan{PanicAtAccess: 10, PanicMsg: "injected checker bug"})
			}
		}
	}
	r, err := CheckSource(racySource, injected)
	if err != nil {
		t.Fatalf("a single panicking trial aborted the check: %v", err)
	}
	if r.CompletedTrials != 3 {
		t.Fatalf("CompletedTrials = %d, want 3", r.CompletedTrials)
	}
	if len(r.Failures) != 1 {
		t.Fatalf("want exactly one failure, got %+v", r.Failures)
	}
	f := r.Failures[0]
	if f.Kind != "panic" || f.Seed != targetSeed || f.Analysis != string(ModeSingleRun) {
		t.Fatalf("bad failure record: %+v", f)
	}
	if len(f.StackDigest) != 8 {
		t.Fatalf("missing stack digest: %+v", f)
	}
	if f.Recovered {
		t.Fatal("panic marked recovered although the trial was lost")
	}
	if f.Err == nil || !containsSub(f.Err.Error(), "injected checker bug") {
		t.Fatalf("failure lost the panic value: %v", f.Err)
	}
	assertSeedsUnchanged(t, baseline, r, targetSeed)
}

func TestPanicInTxEndBookkeepingIsQuarantined(t *testing.T) {
	// Same recovery path, but the panic fires in the transaction-end
	// callback — the txn.EndRegular seam.
	opts := Options{Trials: 2, Seed: 1}
	opts.inject = func(a core.Analysis, seed int64, cfg *core.Config) {
		if a == core.DCSingle && seed == 1 {
			cfg.WrapInst = func(in vm.Instrumentation) vm.Instrumentation {
				return faultinject.Inst(in, &faultinject.Plan{PanicAtTxEnd: 2})
			}
		}
	}
	r, err := CheckSource(racySource, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.CompletedTrials != 1 || len(r.Failures) != 1 || r.Failures[0].Kind != "panic" {
		t.Fatalf("report %+v failures %+v", r, r.Failures)
	}
}

func TestOOMDowngradesToMultiRun(t *testing.T) {
	opts := Options{Trials: 3, Seed: 1, MemoryBudget: 1 << 30}
	baseline, err := CheckSource(racySource, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.Downgrades) != 0 || baseline.CompletedTrials != 3 {
		t.Fatalf("baseline tripped the huge budget: %+v", baseline)
	}

	const targetSeed = 2
	injected := opts
	injected.inject = func(a core.Analysis, seed int64, cfg *core.Config) {
		if a == core.DCSingle && seed == targetSeed {
			meter := cfg.Meter
			cfg.WrapInst = func(in vm.Instrumentation) vm.Instrumentation {
				return faultinject.Inst(in, &faultinject.Plan{
					OOMAtAccess: 5, OOMBytes: 1 << 31, Meter: meter,
				})
			}
		}
	}
	r, err := CheckSource(racySource, injected)
	if err != nil {
		t.Fatalf("an OOM trial aborted the check: %v", err)
	}
	if r.CompletedTrials != 3 {
		t.Fatalf("CompletedTrials = %d, want 3 (downgraded trial still completes)", r.CompletedTrials)
	}
	if len(r.Downgrades) != 1 {
		t.Fatalf("want one downgrade, got %+v", r.Downgrades)
	}
	d := r.Downgrades[0]
	if d.Seed != targetSeed || d.From != ModeSingleRun || d.To != ModeMultiRun || d.Reason == "" {
		t.Fatalf("bad downgrade record: %+v", d)
	}
	// Untouched trials match the baseline; the downgraded seed was
	// re-checked by the multi-run pipeline, which still finds the race.
	assertSeedsUnchanged(t, baseline, r, targetSeed)
	if len(violationsBySeed(r)[targetSeed]) == 0 {
		t.Error("downgraded trial found no violations; the multi-run fallback should still catch the race")
	}
	for _, m := range r.BlamedMethods {
		if m == "bump" {
			return
		}
	}
	t.Fatalf("blamed methods lost after downgrade: %v", r.BlamedMethods)
}

// cleanAbbaWindow finds a base seed w (deterministically) such that seeds
// w, w+1, w+2 and the retry seed w+1+DefaultSeedStride all complete under
// single-run mode — so any deadlock in the test comes from injection alone.
func cleanAbbaWindow(t *testing.T) int64 {
	t.Helper()
	unit, err := lang.ParseAndLower(abbaSource)
	if err != nil {
		t.Fatal(err)
	}
	sp := spec.AtomicOnly(unit.Prog, unit.AtomicMethods)
	clean := func(seed int64) bool {
		_, err := core.Run(unit.Prog, core.Config{
			Analysis: core.DCSingle,
			Sched:    vm.NewSticky(seed, 0.1),
			Atomic:   sp.Atomic,
		})
		return err == nil
	}
	for w := int64(1); w < 2000; w++ {
		if clean(w) && clean(w+1) && clean(w+2) && clean(w+1+supervise.DefaultSeedStride) {
			return w
		}
	}
	t.Fatal("no clean seed window found for abbaSource")
	return 0
}

func TestInjectedDeadlockScheduleIsRetriedUnderRotatedSeed(t *testing.T) {
	w := cleanAbbaWindow(t)
	opts := Options{Trials: 3, Seed: w}
	baseline, err := CheckSource(abbaSource, opts)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.CompletedTrials != 3 || len(baseline.Failures) != 0 {
		t.Fatalf("baseline window not clean: %+v", baseline.Failures)
	}

	targetSeed := w + 1
	injected := opts
	injected.inject = func(a core.Analysis, seed int64, cfg *core.Config) {
		if a == core.DCSingle && seed == targetSeed {
			// Alternating the two threads drives the AB-BA locking straight
			// into deadlock: t0 takes a, t1 takes b, both block.
			cfg.Sched = vm.NewScripted([]vm.ThreadID{0, 1, 0, 1, 0, 1, 0, 1}, false)
		}
	}
	r, err := CheckSource(abbaSource, injected)
	if err != nil {
		t.Fatalf("an injected deadlock schedule sank the check: %v", err)
	}
	if r.CompletedTrials != 3 {
		t.Fatalf("CompletedTrials = %d, want 3 (deadlocked trial retries under a rotated seed)", r.CompletedTrials)
	}
	if len(r.Failures) != 1 {
		t.Fatalf("want one recorded deadlock, got %+v", r.Failures)
	}
	f := r.Failures[0]
	if f.Kind != "deadlock" || f.Seed != targetSeed || !f.Recovered || !errors.Is(f.Err, vm.ErrDeadlock) {
		t.Fatalf("bad failure record: %+v", f)
	}
	// The recovered trial re-ran under the rotated seed; untouched trials
	// are unchanged.
	assertSeedsUnchanged(t, baseline, r, targetSeed, targetSeed+supervise.DefaultSeedStride)
	for _, v := range r.Violations {
		if v.Seed == targetSeed {
			t.Fatalf("violation attributed to the deadlocked seed %d: %+v", targetSeed, v)
		}
	}
	// The report counts the three completed runs and nothing of the
	// deadlocked attempt: apart from the supervisor's own supervise.*
	// counters, it holds what the completed seeds publish when re-run on
	// one registry.
	var snap telemetry.Snapshot
	if err := json.Unmarshal(r.Telemetry, &snap); err != nil {
		t.Fatal(err)
	}
	got := map[string]uint64{}
	for name, v := range snap.Counters {
		if !strings.HasPrefix(name, "supervise.") {
			got[name] = v
		}
	}
	want := completedRunCounters(t, w, w+2, targetSeed+supervise.DefaultSeedStride)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Report.Telemetry counters %v,\nwant the completed runs' %v", got, want)
	}
}

// completedRunCounters re-runs abbaSource's single-run trials for seeds on
// one registry, as CheckSource's default options run them, and returns the
// counters the registry holds afterwards.
func completedRunCounters(t *testing.T, seeds ...int64) map[string]uint64 {
	t.Helper()
	unit, err := lang.ParseAndLower(abbaSource)
	if err != nil {
		t.Fatal(err)
	}
	sp := spec.AtomicOnly(unit.Prog, unit.AtomicMethods)
	reg := telemetry.NewRegistry()
	for _, seed := range seeds {
		if _, err := core.Run(unit.Prog, core.Config{
			Analysis:  core.DCSingle,
			Sched:     vm.NewSticky(seed, 0.1),
			Atomic:    sp.Atomic,
			Telemetry: reg,
		}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	return reg.Snapshot().Counters
}

func TestMultiRunToleratesLostFirstRun(t *testing.T) {
	opts := Options{Mode: ModeMultiRun, Trials: 1, Seed: 1, FirstRuns: 5}
	targetFirstSeed := int64(1*1000 + 2)
	opts.inject = func(a core.Analysis, seed int64, cfg *core.Config) {
		if a == core.DCFirst && seed == targetFirstSeed {
			cfg.MaxSteps = 5 // force vm.ErrStepLimit on this first run only
		}
	}
	r, err := CheckSource(racySource, opts)
	if err != nil {
		t.Fatalf("one lost first run failed the pipeline: %v", err)
	}
	if r.CompletedTrials != 1 {
		t.Fatalf("trial not completed: %+v", r)
	}
	if len(r.Failures) != 1 {
		t.Fatalf("want the lost first run recorded, got %+v", r.Failures)
	}
	f := r.Failures[0]
	if f.Analysis != core.DCFirst.String() || f.Seed != targetFirstSeed || f.Kind != "step-limit" || !f.Recovered {
		t.Fatalf("bad first-run failure record: %+v", f)
	}
	if !errors.Is(f.Err, vm.ErrStepLimit) {
		t.Fatalf("first-run failure lost its cause: %v", f.Err)
	}
}

// TestMultiRunSchedule pins the schedule a ModeMultiRun check runs: for
// each trial seed s, first runs under core.FirstRunSeed(s, i) in order, then
// the second run under s. perfbench's traced sparse-multi check hard-codes
// the same seeds (s*1000+i), so traced and untraced checks run the same
// schedules only while both follow this scheme.
func TestMultiRunSchedule(t *testing.T) {
	type run struct {
		analysis core.Analysis
		seed     int64
	}
	var got []run
	opts := Options{Mode: ModeMultiRun, Trials: 2, FirstRuns: 4, Seed: 5}
	opts.inject = func(a core.Analysis, seed int64, _ *core.Config) {
		got = append(got, run{a, seed})
	}
	if _, err := CheckSource(racySource, opts); err != nil {
		t.Fatal(err)
	}
	var want []run
	for trial := int64(0); trial < 2; trial++ {
		s := opts.Seed + trial
		for i := 0; i < 4; i++ {
			want = append(want, run{core.DCFirst, core.FirstRunSeed(s, i)})
		}
		want = append(want, run{core.DCSecond, s})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("runs %v,\nwant %v", got, want)
	}
	if got := core.FirstRunSeed(6, 3); got != 6003 {
		t.Fatalf("FirstRunSeed(6, 3) = %d, want 6003 (seed*1000+i, as perfbench's traced check derives it)", got)
	}
}

func TestTrialDeadlineBoundsLongTrial(t *testing.T) {
	stallAll := func(a core.Analysis, seed int64, cfg *core.Config) {
		cfg.WrapInst = func(in vm.Instrumentation) vm.Instrumentation {
			return faultinject.Inst(in, &faultinject.Plan{
				StallAtAccess: 1, StallEveryAccess: 1, StallFor: 2 * time.Millisecond,
			})
		}
	}
	// Uninjected, the check finishes fast; stalled, a full run takes well
	// over two seconds (slowSource emits ~1200 accesses at 2ms each) — the
	// deadline must cut it off far earlier.
	opts := Options{Trials: 1, Seed: 1, TrialTimeout: 30 * time.Millisecond}
	opts.inject = stallAll
	start := time.Now()
	_, err := CheckSource(slowSource, opts)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("stalled trial completed under a 30ms deadline")
	}
	if !errors.Is(err, ErrTrialTimeout) {
		t.Fatalf("want ErrTrialTimeout, got %v", err)
	}
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("deadline did not bound the trial: took %v (a full stalled run takes >2s)", elapsed)
	}
}

func TestTrialDeadlineOnOneSeedKeepsOthers(t *testing.T) {
	opts := Options{Trials: 3, Seed: 1}
	baseline, err := CheckSource(slowSource, opts)
	if err != nil {
		t.Fatal(err)
	}
	const targetSeed = 2
	// The deadline leaves the healthy seeds wide headroom: a slowSource
	// trial takes tens of milliseconds, even under -race on a loaded host.
	// The target seed's one stall, at its first access, outlasts the
	// deadline by itself, so that seed times out however fast the rest of
	// its run goes.
	const deadline = time.Second
	injected := opts
	injected.TrialTimeout = deadline
	injected.inject = func(a core.Analysis, seed int64, cfg *core.Config) {
		if a == core.DCSingle && seed == targetSeed {
			cfg.WrapInst = func(in vm.Instrumentation) vm.Instrumentation {
				return faultinject.Inst(in, &faultinject.Plan{
					StallAtAccess: 1, StallFor: deadline + deadline/2,
				})
			}
		}
	}
	r, err := CheckSource(slowSource, injected)
	if err != nil {
		t.Fatal(err)
	}
	if r.CompletedTrials != 2 {
		t.Fatalf("CompletedTrials = %d, want 2", r.CompletedTrials)
	}
	if len(r.Failures) != 1 || r.Failures[0].Kind != "timeout" || r.Failures[0].Seed != targetSeed {
		t.Fatalf("want one timeout failure for seed %d, got %+v", targetSeed, r.Failures)
	}
	if !errors.Is(r.Failures[0].Err, ErrTrialTimeout) {
		t.Fatalf("timeout failure lost its type: %v", r.Failures[0].Err)
	}
	assertSeedsUnchanged(t, baseline, r, targetSeed)
}

func TestCanceledContextReturnsPromptlyWithoutRunningTrials(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runs := 0
	opts := Options{Trials: 100}
	opts.inject = func(core.Analysis, int64, *core.Config) { runs++ }
	start := time.Now()
	r, err := CheckSourceContext(ctx, racySource, opts)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v (report %+v)", err, r)
	}
	if runs != 0 {
		t.Fatalf("%d runs started under a canceled context", runs)
	}
	if time.Since(start) > time.Second {
		t.Fatal("canceled check did not return promptly")
	}
}

func TestCancellationMidCheckAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	trials := 0
	opts := Options{Trials: 1000}
	opts.inject = func(a core.Analysis, _ int64, _ *core.Config) {
		trials++
		if trials == 3 {
			cancel()
		}
	}
	_, err := CheckSourceContext(ctx, racySource, opts)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if trials > 4 {
		t.Fatalf("%d runs started after cancellation", trials)
	}
}

func TestRefineSourceContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RefineSourceContext(ctx, racySource, Options{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestErrorPropagationDeadlockEveryMode(t *testing.T) {
	for _, mode := range []Mode{ModeSingleRun, ModeMultiRun, ModeVelodrome} {
		r, err := CheckSource(stuckSource, Options{Mode: mode, Trials: 3, FirstRuns: 3})
		if err == nil {
			t.Fatalf("%s: deterministically deadlocking program produced report %+v", mode, r)
		}
		if !errors.Is(err, vm.ErrDeadlock) {
			t.Fatalf("%s: error does not wrap vm.ErrDeadlock: %v", mode, err)
		}
	}
}

func TestErrorPropagationStepLimitEveryMode(t *testing.T) {
	for _, mode := range []Mode{ModeSingleRun, ModeMultiRun, ModeVelodrome} {
		r, err := CheckSource(racySource, Options{Mode: mode, Trials: 2, FirstRuns: 3, MaxSteps: 5})
		if err == nil {
			t.Fatalf("%s: step-limited program produced report %+v", mode, r)
		}
		if !errors.Is(err, vm.ErrStepLimit) {
			t.Fatalf("%s: error does not wrap vm.ErrStepLimit: %v", mode, err)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"unknown mode", Options{Mode: "quantum"}, "unknown mode"},
		{"negative trials", Options{Trials: -1}, "Trials"},
		{"negative seed", Options{Seed: -5}, "Seed"},
		{"stickiness above one", Options{Stickiness: 1.5}, "Stickiness"},
		{"stickiness negative", Options{Stickiness: -0.1}, "Stickiness"},
		{"negative first runs", Options{FirstRuns: -2}, "FirstRuns"},
		{"negative trial timeout", Options{TrialTimeout: -time.Second}, "TrialTimeout"},
		{"negative retries", Options{Retries: -3}, "Retries"},
		{"negative memory budget", Options{MemoryBudget: -1}, "MemoryBudget"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := CheckSource(racySource, c.opts); err == nil || !containsSub(err.Error(), c.want) {
				t.Errorf("CheckSource: want error mentioning %q, got %v", c.want, err)
			}
			if _, err := CheckUnitFromSource(t, c.opts); err == nil || !containsSub(err.Error(), c.want) {
				t.Errorf("CheckUnit: want error mentioning %q, got %v", c.want, err)
			}
			if _, err := RefineSource(racySource, c.opts); err == nil || !containsSub(err.Error(), c.want) {
				t.Errorf("RefineSource: want error mentioning %q, got %v", c.want, err)
			}
		})
	}
}

// CheckUnitFromSource parses racySource and checks the unit directly, so the
// validation test covers CheckUnit's path too.
func CheckUnitFromSource(t *testing.T, opts Options) (*Report, error) {
	t.Helper()
	unit, err := lang.ParseAndLower(racySource)
	if err != nil {
		t.Fatal(err)
	}
	return CheckUnit(unit, opts)
}

func TestValidationPreventsSchedulerPanic(t *testing.T) {
	// Before validation existed, this panicked inside vm.NewSticky.
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("CheckSource panicked on bad Stickiness: %v", r)
		}
	}()
	if _, err := CheckSource(racySource, Options{Stickiness: 2}); err == nil {
		t.Fatal("Stickiness 2 accepted")
	}
}

func TestReportViolationSeedsReflectDefaults(t *testing.T) {
	// Sanity: the supervised pipeline preserves the original contract that
	// trial i runs seed Seed+i when nothing fails.
	r, err := CheckSource(racySource, Options{Trials: 4, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r.Violations {
		if v.Seed < 10 || v.Seed > 13 {
			t.Fatalf("violation outside the seed range: %+v", v)
		}
	}
	if r.CompletedTrials != 4 {
		t.Fatalf("CompletedTrials = %d", r.CompletedTrials)
	}
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
