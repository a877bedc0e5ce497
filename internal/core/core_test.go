package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"doublechecker/internal/cost"
	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
)

// racyProgram returns the canonical racy atomic increment plus its script
// and spec.
func racyProgram() (*vm.Program, []vm.ThreadID, func(vm.MethodID) bool) {
	b := vm.NewBuilder("racy")
	o := b.Object()
	inc := b.Method("inc")
	inc.Read(o, 0).Write(o, 0)
	m0 := b.Method("main0")
	m0.Call(inc)
	m1 := b.Method("main1")
	m1.Call(inc)
	b.Thread(m0)
	b.Thread(m1)
	prog := b.MustBuild()
	incID := prog.MethodByName("inc").ID
	return prog, []vm.ThreadID{0, 1, 0, 1, 1, 0}, func(m vm.MethodID) bool { return m == incID }
}

func TestSingleRunFindsRacyViolation(t *testing.T) {
	prog, script, atomic := racyProgram()
	r, err := Run(prog, Config{Analysis: DCSingle, Sched: vm.NewScripted(script, true), Atomic: atomic})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Violations) == 0 {
		t.Fatal("single-run mode must find the violation")
	}
	if names := r.BlamedMethodNames(prog); len(names) != 1 || names[0] != "inc" {
		t.Errorf("blamed = %v", names)
	}
}

func TestVelodromeFindsSameRacyViolation(t *testing.T) {
	prog, script, atomic := racyProgram()
	r, err := Run(prog, Config{Analysis: Velodrome, Sched: vm.NewScripted(script, true), Atomic: atomic})
	if err != nil {
		t.Fatal(err)
	}
	if names := r.BlamedMethodNames(prog); len(names) != 1 || names[0] != "inc" {
		t.Errorf("blamed = %v", names)
	}
}

func TestFirstRunProducesStaticInfo(t *testing.T) {
	prog, script, atomic := racyProgram()
	r, err := Run(prog, Config{Analysis: DCFirst, Sched: vm.NewScripted(script, true), Atomic: atomic})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Violations) != 0 {
		t.Error("first run reports no precise violations")
	}
	if r.StaticMethods[prog.MethodByName("inc").ID] == 0 {
		t.Errorf("static methods missing inc: %v", r.StaticMethods)
	}
	if r.Txn.LogEntries != 0 {
		t.Error("first run must not log")
	}
}

func TestMultiRunPipelineFindsViolation(t *testing.T) {
	prog, _, atomic := racyProgram()
	// Random scheduling across several first-run seeds; at least one seed
	// triggers the cycle, and the second run then monitors inc.
	var found bool
	for seed := int64(0); seed < 10 && !found; seed++ {
		o, err := MultiRunContext(context.Background(), prog, 10, seed, randomCfg(atomic))
		if err != nil {
			t.Fatal(err)
		}
		found = len(o.Second.Violations) > 0
	}
	if !found {
		t.Error("multi-run pipeline found no violation in 10 second-run seeds")
	}
}

func TestSecondRunWithEmptyFilterInstrumentsNothing(t *testing.T) {
	prog, script, atomic := racyProgram()
	r, err := Run(prog, Config{
		Analysis: DCSecond,
		Sched:    vm.NewScripted(script, true),
		Atomic:   atomic,
		Filter:   &txn.Filter{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.ICD.RegularAccesses+r.ICD.UnaryAccesses != 0 {
		t.Errorf("empty filter instrumented %d accesses",
			r.ICD.RegularAccesses+r.ICD.UnaryAccesses)
	}
}

func TestSecondRunWithFullFilterEqualsSingleRun(t *testing.T) {
	prog, script, atomic := racyProgram()
	full := &txn.Filter{Methods: map[vm.MethodID]bool{}, Unary: true}
	for _, m := range prog.Methods {
		full.Methods[m.ID] = true
	}
	single, err := Run(prog, Config{Analysis: DCSingle, Sched: vm.NewScripted(script, true), Atomic: atomic})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(prog, Config{Analysis: DCSecond, Sched: vm.NewScripted(script, true), Atomic: atomic, Filter: full})
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Violations) != len(second.Violations) {
		t.Errorf("single %d vs full-filter second %d violations",
			len(single.Violations), len(second.Violations))
	}
}

func TestPCDOnlyFindsViolationAtHigherCost(t *testing.T) {
	prog, script, atomic := racyProgram()
	meterSingle := cost.NewMeter(cost.Default())
	single, err := Run(prog, Config{Analysis: DCSingle, Sched: vm.NewScripted(script, true), Atomic: atomic, Meter: meterSingle})
	if err != nil {
		t.Fatal(err)
	}
	meterPCD := cost.NewMeter(cost.Default())
	pcdOnly, err := Run(prog, Config{Analysis: PCDOnly, Sched: vm.NewScripted(script, true), Atomic: atomic, Meter: meterPCD})
	if err != nil {
		t.Fatal(err)
	}
	if len(pcdOnly.Violations) == 0 {
		t.Error("PCD-only must find the violation")
	}
	if pcdOnly.PCD.EntriesReplayed <= single.PCD.EntriesReplayed {
		t.Errorf("PCD-only should replay more entries: %d vs %d",
			pcdOnly.PCD.EntriesReplayed, single.PCD.EntriesReplayed)
	}
}

func TestBaselineHasNoAnalysisCost(t *testing.T) {
	prog, script, atomic := racyProgram()
	meter := cost.NewMeter(cost.Default())
	r, err := Run(prog, Config{Analysis: Baseline, Sched: vm.NewScripted(script, true), Atomic: atomic, Meter: meter})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Violations) != 0 || r.Cost.Total == 0 {
		t.Errorf("baseline: %d violations, cost %d", len(r.Violations), r.Cost.Total)
	}
}

func TestParseAnalysis(t *testing.T) {
	for _, a := range []Analysis{Baseline, Velodrome, VelodromeUnsound, DCSingle, DCFirst, DCSecond, VeloSecond, PCDOnly} {
		got, err := ParseAnalysis(a.String())
		if err != nil || got != a {
			t.Errorf("round trip %v: got %v err %v", a, got, err)
		}
	}
	if _, err := ParseAnalysis("nope"); err == nil {
		t.Error("expected error for unknown analysis")
	}
}

// ---------------------------------------------------------------------------
// Random program generation for property tests.

// genProgram builds a random, deadlock-free multithreaded program: threads
// run sequences of atomic and non-atomic method calls plus raw accesses;
// methods read/write random fields of shared objects, optionally under a
// single lock (no nested locks, so no deadlock).
func genProgram(seed int64) (*vm.Program, func(vm.MethodID) bool) {
	rng := rand.New(rand.NewSource(seed))
	b := vm.NewBuilder(fmt.Sprintf("rand%d", seed))
	nObj := 2 + rng.Intn(4)
	objs := b.Objects(nObj)
	nLocks := rng.Intn(3)
	locks := b.Objects(nLocks)

	nMeth := 2 + rng.Intn(4)
	atomicSet := make(map[vm.MethodID]bool)
	var meths []*vm.MethodBuilder
	for i := 0; i < nMeth; i++ {
		mb := b.Method(fmt.Sprintf("m%d", i))
		useLock := nLocks > 0 && rng.Intn(3) == 0
		var lk vm.ObjectID
		if useLock {
			lk = locks[rng.Intn(nLocks)]
			mb.Acquire(lk)
		}
		for j := 0; j < 2+rng.Intn(5); j++ {
			obj := objs[rng.Intn(nObj)]
			f := vm.FieldID(rng.Intn(2))
			if rng.Intn(2) == 0 {
				mb.Read(obj, f)
			} else {
				mb.Write(obj, f)
			}
		}
		if useLock {
			mb.Release(lk)
		}
		if rng.Intn(2) == 0 {
			atomicSet[mb.ID()] = true
		}
		meths = append(meths, mb)
	}

	nThreads := 2 + rng.Intn(3)
	for i := 0; i < nThreads; i++ {
		main := b.Method(fmt.Sprintf("main%d", i))
		for j := 0; j < 3+rng.Intn(6); j++ {
			switch rng.Intn(4) {
			case 0: // raw unary access
				main.Write(objs[rng.Intn(nObj)], vm.FieldID(rng.Intn(2)))
			case 1:
				main.Read(objs[rng.Intn(nObj)], vm.FieldID(rng.Intn(2)))
			default:
				main.Call(meths[rng.Intn(nMeth)])
			}
		}
		b.Thread(main)
	}
	prog := b.MustBuild()
	return prog, func(m vm.MethodID) bool { return atomicSet[m] }
}

func blamedSet(r *Result, prog *vm.Program) string {
	names := r.BlamedMethodNames(prog)
	sort.Strings(names)
	return fmt.Sprintf("%v", names)
}

// TestPropertySingleRunAgreesWithVelodrome is the central soundness and
// precision check: on the identical interleaving (same seed), DoubleChecker
// single-run and Velodrome must agree on whether the execution contains any
// conflict-serializability violation.
func TestPropertySingleRunAgreesWithVelodrome(t *testing.T) {
	agreeBlamed := 0
	total := 0
	for seed := int64(0); seed < 60; seed++ {
		prog, atomic := genProgram(seed)
		for sched := int64(0); sched < 3; sched++ {
			velo, err := Run(prog, Config{Analysis: Velodrome, Seed: sched, Atomic: atomic})
			if err != nil {
				t.Fatalf("seed %d/%d velo: %v", seed, sched, err)
			}
			dc, err := Run(prog, Config{Analysis: DCSingle, Seed: sched, Atomic: atomic})
			if err != nil {
				t.Fatalf("seed %d/%d dc: %v", seed, sched, err)
			}
			if (len(velo.Violations) > 0) != (len(dc.Violations) > 0) {
				t.Errorf("seed %d sched %d: velodrome %d violations, single-run %d",
					seed, sched, len(velo.Violations), len(dc.Violations))
			}
			total++
			if blamedSet(velo, prog) == blamedSet(dc, prog) {
				agreeBlamed++
			}
		}
	}
	// Blame assignment depends on which path the cycle search extracts, so
	// exact blame equality is not guaranteed; but it should hold nearly
	// always. Alert if it degrades badly.
	if agreeBlamed*10 < total*8 {
		t.Errorf("blame agreement only %d/%d", agreeBlamed, total)
	}
}

// TestPropertyICDSoundFilter: every transaction of every precise cycle that
// Velodrome finds must appear in some ICD SCC on the same interleaving
// (paper §3.2.5). Transactions are matched across checkers by StartSeq,
// which is identical because the schedules are identical.
func TestPropertyICDSoundFilter(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		prog, atomic := genProgram(seed)
		for sched := int64(0); sched < 2; sched++ {
			velo, err := Run(prog, Config{Analysis: Velodrome, Seed: sched, Atomic: atomic})
			if err != nil {
				t.Fatal(err)
			}
			if len(velo.Violations) == 0 {
				continue
			}
			dc, err := Run(prog, Config{Analysis: DCSingle, Seed: sched, Atomic: atomic})
			if err != nil {
				t.Fatal(err)
			}
			// Union of regular-transaction start seqs across DC's precise
			// cycles (PCD only sees transactions ICD put in SCCs, so this
			// is the filtered set).
			dcTxs := make(map[uint64]bool)
			for _, v := range dc.Violations {
				for _, tx := range v.Cycle {
					if !tx.Unary {
						dcTxs[tx.StartSeq] = true
					}
				}
			}
			for _, v := range velo.Violations {
				for _, tx := range v.Cycle {
					if tx.Unary {
						continue
					}
					if !dcTxs[tx.StartSeq] {
						t.Errorf("seed %d sched %d: velodrome cycle txn (start %d, m%d) missing from single-run cycles",
							seed, sched, tx.StartSeq, tx.Method)
					}
				}
			}
		}
	}
}

// TestPropertyDeterministicResults: the same configuration twice must yield
// identical results — the foundation of every comparison above.
func TestPropertyDeterministicResults(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		prog, atomic := genProgram(seed)
		a, err := Run(prog, Config{Analysis: DCSingle, Seed: 7, Atomic: atomic})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(prog, Config{Analysis: DCSingle, Seed: 7, Atomic: atomic})
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Violations) != len(b.Violations) || blamedSet(a, prog) != blamedSet(b, prog) {
			t.Errorf("seed %d: nondeterministic results", seed)
		}
	}
}

// TestPropertyPCDOnlyAgreesWithSingleRun: processing every transaction
// instead of only SCC transactions must not change what is found (ICD is a
// sound filter), only what it costs.
func TestPropertyPCDOnlyAgreesWithSingleRun(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		prog, atomic := genProgram(seed)
		single, err := Run(prog, Config{Analysis: DCSingle, Seed: 2, Atomic: atomic})
		if err != nil {
			t.Fatal(err)
		}
		all, err := Run(prog, Config{Analysis: PCDOnly, Seed: 2, Atomic: atomic})
		if err != nil {
			t.Fatal(err)
		}
		if (len(single.Violations) > 0) != (len(all.Violations) > 0) {
			t.Errorf("seed %d: single %d vs pcd-only %d violations",
				seed, len(single.Violations), len(all.Violations))
		}
	}
}

// TestPropertyUnsoundVelodromeAgrees: in the deterministic interpreter the
// unsound variant cannot miss dependences, so it must agree exactly.
func TestPropertyUnsoundVelodromeAgrees(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		prog, atomic := genProgram(seed)
		sound, err := Run(prog, Config{Analysis: Velodrome, Seed: 3, Atomic: atomic})
		if err != nil {
			t.Fatal(err)
		}
		unsound, err := Run(prog, Config{Analysis: VelodromeUnsound, Seed: 3, Atomic: atomic})
		if err != nil {
			t.Fatal(err)
		}
		if blamedSet(sound, prog) != blamedSet(unsound, prog) {
			t.Errorf("seed %d: sound %v vs unsound %v", seed,
				sound.BlamedMethodNames(prog), unsound.BlamedMethodNames(prog))
		}
	}
}

// TestPropertyCostOrdering: on a realistic workload (mostly thread-local
// accesses, moderate lock-guarded sharing — the shape of the paper's
// benchmarks) the paper's cost shape must hold: baseline < first run <
// single-run < Velodrome (single-run adds logging over the first run;
// Velodrome adds per-access synchronization over everything).
func TestPropertyCostOrdering(t *testing.T) {
	prog, atomic := genMixed()
	costs := make(map[Analysis]cost.Units)
	var base cost.Units
	for _, a := range []Analysis{Baseline, Velodrome, DCSingle, DCFirst} {
		meter := cost.NewMeter(cost.Default())
		if _, err := Run(prog, Config{Analysis: a, Seed: 5, Atomic: atomic, Meter: meter}); err != nil {
			t.Fatal(err)
		}
		costs[a] = meter.Total()
		if a == Baseline {
			base = meter.Total()
		}
	}
	if !(base < costs[DCFirst] && costs[DCFirst] < costs[DCSingle] && costs[DCSingle] < costs[Velodrome]) {
		t.Errorf("cost ordering violated: base=%d first=%d single=%d velo=%d",
			base, costs[DCFirst], costs[DCSingle], costs[Velodrome])
	}
}

// TestXalanPathologyShape: a lock ping-pong workload where every release/
// acquire conflicts produces many overlapping imprecise SCCs that PCD must
// reprocess — the paper's xalan6 case, the one benchmark where Velodrome
// beats single-run mode (§5.3). Assert the mechanism, not the exact ratio:
// ICD reports many SCCs and PCD replays far more transactions than the
// program has.
func TestXalanPathologyShape(t *testing.T) {
	prog, atomic := genContended(11)
	r, err := Run(prog, Config{Analysis: DCSingle, Seed: 5, Atomic: atomic})
	if err != nil {
		t.Fatal(err)
	}
	if r.ICD.SCCs < 10 {
		t.Errorf("expected many imprecise SCCs, got %d", r.ICD.SCCs)
	}
	if r.PCD.TxnsProcessed < 5*r.ICD.SCCs {
		t.Errorf("expected heavy PCD reprocessing: %d txns over %d SCCs",
			r.PCD.TxnsProcessed, r.ICD.SCCs)
	}
	if len(r.Violations) != 0 {
		t.Errorf("properly locked ping-pong has no precise violations, got %d", len(r.Violations))
	}
}

// genMixed builds a benchmark-shaped workload: per thread, long runs of
// thread-local accesses and compute, with occasional lock-guarded shared
// updates.
func genMixed() (*vm.Program, func(vm.MethodID) bool) {
	b := vm.NewBuilder("mixed")
	shared := b.Object()
	lk := b.Object()
	locals := b.Objects(4)
	update := b.Method("update")
	update.Acquire(lk).Read(shared, 0).Write(shared, 0).Release(lk)
	atomicIDs := map[vm.MethodID]bool{update.ID(): true}
	for i := 0; i < 4; i++ {
		local := b.Method(fmt.Sprintf("local%d", i))
		for j := 0; j < 8; j++ {
			local.Read(locals[i], vm.FieldID(j)).Write(locals[i], vm.FieldID(j))
		}
		local.Compute(4)
		atomicIDs[local.ID()] = true
		main := b.Method(fmt.Sprintf("main%d", i))
		for it := 0; it < 40; it++ {
			main.Call(local)
			if it%8 == 0 {
				main.Call(update)
			}
		}
		b.Thread(main)
	}
	prog := b.MustBuild()
	return prog, func(m vm.MethodID) bool { return atomicIDs[m] }
}

// genContended builds the pathological lock ping-pong workload.
func genContended(seed int64) (*vm.Program, func(vm.MethodID) bool) {
	b := vm.NewBuilder("contended")
	o := b.Object()
	lk := b.Object()
	work := b.Method("work")
	work.Acquire(lk)
	for i := 0; i < 10; i++ {
		work.Read(o, vm.FieldID(i)).Write(o, vm.FieldID(i))
	}
	work.Release(lk)
	for i := 0; i < 4; i++ {
		main := b.Method(fmt.Sprintf("main%d", i))
		main.CallN(work, 30)
		b.Thread(main)
	}
	prog := b.MustBuild()
	workID := prog.MethodByName("work").ID
	return prog, func(m vm.MethodID) bool { return m == workID }
}
