package core

import (
	"context"
	"errors"
	"testing"

	"doublechecker/internal/vm"
)

// stuckProg always deadlocks under every schedule: its only thread waits on
// a monitor nobody will ever notify.
func stuckProg() (*vm.Program, func(vm.MethodID) bool) {
	b := vm.NewBuilder("stuck")
	mon := b.Object()
	main := b.Method("main")
	main.Acquire(mon).Wait(mon).Release(mon)
	b.Thread(main)
	prog := b.MustBuild()
	return prog, func(vm.MethodID) bool { return false }
}

// abbaProg deadlocks only under schedules that interleave the two opposing
// lock acquisitions — some seeds survive, some do not.
func abbaProg() (*vm.Program, func(vm.MethodID) bool) {
	b := vm.NewBuilder("abba")
	a, bb := b.Object(), b.Object()
	obj := b.Object()
	m0 := b.Method("m0")
	m0.Acquire(a).Acquire(bb).Read(obj, 0).Release(bb).Release(a)
	m1 := b.Method("m1")
	m1.Acquire(bb).Acquire(a).Write(obj, 0).Release(a).Release(bb)
	main0 := b.Method("main0")
	main0.CallN(m0, 3)
	main1 := b.Method("main1")
	main1.CallN(m1, 3)
	b.Thread(main0)
	b.Thread(main1)
	prog := b.MustBuild()
	atomic := func(vm.MethodID) bool { return false }
	return prog, atomic
}

// randomCfg builds multi-run configurations on the default random
// scheduler, seeded with the run's seed.
func randomCfg(atomic func(vm.MethodID) bool) func(Analysis, int64) Config {
	return func(_ Analysis, seed int64) Config { return Config{Seed: seed, Atomic: atomic} }
}

// survives reports whether prog completes under the random scheduler with
// seed. DCFirst and DCSecond share the executor and scheduler, so a seed's
// interleaving — and hence any deadlock — is identical across analyses.
func survives(prog *vm.Program, atomic func(vm.MethodID) bool, seed int64) bool {
	_, err := Run(prog, Config{Analysis: DCFirst, Seed: seed, Atomic: atomic})
	return err == nil
}

func TestMultiRunToleratesIndividualFirstRunFailures(t *testing.T) {
	prog, atomic := abbaProg()
	// Deterministic: with the default random scheduler, the 20 first-run
	// seeds of a trial split into deadlocking and surviving schedules. Find
	// a trial whose first runs split and whose own seed (the second run's)
	// survives, then check the pipeline tolerates exactly the deadlocking
	// first runs.
	const firstRuns = 20
	var failSeeds, goodSeeds []int64
	trial := int64(-1)
	for s := int64(0); s < 10 && trial < 0; s++ {
		failSeeds, goodSeeds = nil, nil
		for i := 0; i < firstRuns; i++ {
			if seed := FirstRunSeed(s, i); survives(prog, atomic, seed) {
				goodSeeds = append(goodSeeds, seed)
			} else {
				failSeeds = append(failSeeds, seed)
			}
		}
		if len(failSeeds) > 0 && len(goodSeeds) > 0 && survives(prog, atomic, s) {
			trial = s
		}
	}
	if trial < 0 {
		t.Skipf("no trial seed in [0, 10) produced a mix with a surviving second run; pick other seeds")
	}
	o, err := MultiRunContext(context.Background(), prog, firstRuns, trial, randomCfg(atomic))
	if err != nil {
		t.Fatalf("pipeline failed despite %d surviving first runs: %v", len(goodSeeds), err)
	}
	if len(o.Firsts) != len(goodSeeds) || len(o.FirstFailures) != len(failSeeds) {
		t.Fatalf("firsts=%d failures=%d, want %d/%d", len(o.Firsts), len(o.FirstFailures), len(goodSeeds), len(failSeeds))
	}
	for _, f := range o.FirstFailures {
		if !errors.Is(f.Err, vm.ErrDeadlock) {
			t.Fatalf("first-run failure lost its cause: %+v", f)
		}
		if f.Seed != FirstRunSeed(trial, f.Index) {
			t.Fatalf("failure seed %d does not match index %d (trial seed %d)", f.Seed, f.Index, trial)
		}
	}
	if o.Second == nil {
		t.Fatal("no second run result")
	}
}

func TestMultiRunErrorsWhenAllFirstRunsFail(t *testing.T) {
	prog, atomic := stuckProg()
	o, err := MultiRunContext(context.Background(), prog, 3, 99, randomCfg(atomic))
	if err == nil {
		t.Fatal("want error when every first run deadlocks")
	}
	if !errors.Is(err, vm.ErrDeadlock) {
		t.Fatalf("error does not wrap vm.ErrDeadlock: %v", err)
	}
	if len(o.FirstFailures) != 3 || len(o.Firsts) != 0 {
		t.Fatalf("outcome %+v", o)
	}
	if o.Second != nil {
		t.Fatal("second run ran despite an empty first-run ensemble")
	}
}

func TestMultiRunSecondRunFailurePropagates(t *testing.T) {
	// The one first run succeeds on a surviving seed, then the second run
	// is driven into deadlock via the trial seed: find a trial whose first
	// run survives and whose own seed deadlocks.
	prog, atomic := abbaProg()
	trial := int64(-1)
	for s := int64(0); s < 40 && trial < 0; s++ {
		if survives(prog, atomic, FirstRunSeed(s, 0)) && !survives(prog, atomic, s) {
			trial = s
		}
	}
	if trial < 0 {
		t.Skip("no seed mix")
	}
	o, err := MultiRunContext(context.Background(), prog, 1, trial, randomCfg(atomic))
	if err == nil {
		t.Fatal("want second-run failure")
	}
	if !errors.Is(err, vm.ErrDeadlock) {
		t.Fatalf("error does not wrap vm.ErrDeadlock: %v", err)
	}
	_ = o
}

func TestMultiRunContextCanceled(t *testing.T) {
	prog, atomic := abbaProg()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MultiRunContext(ctx, prog, 5, 99, randomCfg(atomic))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunContextCanceledReturnsError(t *testing.T) {
	prog, atomic := abbaProg()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, prog, Config{Analysis: DCSingle, Atomic: atomic})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
