package core

import (
	"testing"

	"doublechecker/internal/cost"
	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
)

// ablationProg: one racy method plus unary-heavy and log-heavy structure so
// every knob has something to move.
func ablationProg() (*vm.Program, func(vm.MethodID) bool) {
	b := vm.NewBuilder("abl")
	o := b.Object()
	local := b.Object()
	inc := b.Method("inc")
	inc.Read(o, 0).Read(o, 0).Compute(4).Write(o, 0).Write(o, 0)
	for i := 0; i < 2; i++ {
		main := b.Method([]string{"main0", "main1"}[i])
		for j := 0; j < 15; j++ {
			main.Call(inc)
			// Non-transactional run with duplicate accesses.
			main.Read(local, 0).Read(local, 0).Write(local, 1).Write(local, 1)
		}
		b.Thread(main)
	}
	prog := b.MustBuild()
	incID := prog.MethodByName("inc").ID
	return prog, func(m vm.MethodID) bool { return m == incID }
}

func runAbl(t *testing.T, mut func(*Config)) (*Result, cost.Units) {
	t.Helper()
	prog, atomic := ablationProg()
	meter := cost.NewMeter(cost.Default())
	cfg := Config{Analysis: DCSingle, Seed: 3, Atomic: atomic, Meter: meter}
	if mut != nil {
		mut(&cfg)
	}
	r, err := Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, meter.Total()
}

func TestAblationNoElision(t *testing.T) {
	ref, refCost := runAbl(t, nil)
	noEl, cost2 := runAbl(t, func(c *Config) { c.NoElision = true })
	if noEl.Txn.LogElided != 0 {
		t.Errorf("elision disabled but %d elided", noEl.Txn.LogElided)
	}
	if noEl.Txn.LogEntries <= ref.Txn.LogEntries {
		t.Errorf("log entries should grow: %d vs %d", noEl.Txn.LogEntries, ref.Txn.LogEntries)
	}
	if cost2 <= refCost {
		t.Errorf("disabling elision should cost more: %d vs %d", cost2, refCost)
	}
	// And it must not change what is found.
	if len(ref.Violations) == 0 || (len(ref.Violations) > 0) != (len(noEl.Violations) > 0) {
		t.Errorf("elision must not affect detection: %d vs %d violations",
			len(ref.Violations), len(noEl.Violations))
	}
}

func TestAblationNoUnaryMerge(t *testing.T) {
	ref, _ := runAbl(t, nil)
	noMerge, _ := runAbl(t, func(c *Config) { c.NoUnaryMerge = true })
	if noMerge.Txn.UnaryTxns <= ref.Txn.UnaryTxns {
		t.Errorf("unary txns should multiply: %d vs %d",
			noMerge.Txn.UnaryTxns, ref.Txn.UnaryTxns)
	}
	if (len(ref.Violations) > 0) != (len(noMerge.Violations) > 0) {
		t.Errorf("merging must not affect detection: %d vs %d violations",
			len(ref.Violations), len(noMerge.Violations))
	}
}

func TestAblationEagerDetect(t *testing.T) {
	ref, refCost := runAbl(t, nil)
	eager, eagerCost := runAbl(t, func(c *Config) { c.EagerDetect = true })
	if eager.ICD.EagerChecks == 0 {
		t.Error("eager checks should run")
	}
	if ref.ICD.EagerChecks != 0 {
		t.Error("reference must not run eager checks")
	}
	if eagerCost <= refCost {
		t.Errorf("eager detection should cost more: %d vs %d", eagerCost, refCost)
	}
	if (len(ref.Violations) > 0) != (len(eager.Violations) > 0) {
		t.Error("eager detection is additive; findings must not change")
	}
}

func TestAblationParallelPCD(t *testing.T) {
	ref, refCost := runAbl(t, nil)
	par, parCost := runAbl(t, func(c *Config) { c.ParallelPCD = true })
	if par.OffCritical.Total == 0 {
		t.Error("parallel PCD should report off-critical cost")
	}
	if ref.OffCritical.Total != 0 {
		t.Error("reference must not report off-critical cost")
	}
	if parCost >= refCost {
		t.Errorf("parallel PCD should reduce critical-path cost: %d vs %d", parCost, refCost)
	}
	if (len(ref.Violations) > 0) != (len(par.Violations) > 0) {
		t.Error("parallel PCD must not change findings")
	}
}

func TestUnionFilterMinSupport(t *testing.T) {
	mk := func(counts map[vm.MethodID]int, unary bool) *Result {
		return &Result{StaticMethods: counts, StaticUnary: unary}
	}
	firsts := []*Result{
		mk(map[vm.MethodID]int{1: 2, 2: 1}, false),
		mk(map[vm.MethodID]int{1: 3}, true),
	}
	f1 := UnionFilterMinSupport(firsts, 1)
	if !f1.Methods[1] || !f1.Methods[2] || !f1.Unary {
		t.Errorf("support 1: %+v", f1)
	}
	f4 := UnionFilterMinSupport(firsts, 4)
	if !f4.Methods[1] || f4.Methods[2] {
		t.Errorf("support 4 should keep only method 1: %+v", f4)
	}
	f9 := UnionFilterMinSupport(firsts, 9)
	if len(f9.Methods) != 0 || f9.Unary {
		t.Errorf("support 9 should select nothing (incl. unary): %+v", f9)
	}
	// UnionFilter is the support-1 special case.
	u := UnionFilter(firsts)
	if len(u.Methods) != len(f1.Methods) || u.Unary != f1.Unary {
		t.Error("UnionFilter must equal min-support 1")
	}
}

// TestMemoryBudgetOOM reproduces the paper's out-of-memory phenomenon
// (§5.1): with a small budget, the PCD-only straw man — which retains every
// log — trips the OOM marker, while the ICD-filtered single-run mode under
// the same budget does not.
func TestMemoryBudgetOOM(t *testing.T) {
	// A long mostly-serial run: single-run mode's reachability GC keeps the
	// live set small, while the straw man retains every log.
	b := vm.NewBuilder("oom")
	o := b.Object()
	work := b.Method("work")
	for i := 0; i < 8; i++ {
		work.Read(o, vm.FieldID(i)).Write(o, vm.FieldID(i))
	}
	for i := 0; i < 2; i++ {
		main := b.Method([]string{"m0", "m1"}[i])
		main.CallN(work, 300)
		b.Thread(main)
	}
	prog := b.MustBuild()
	workID := prog.MethodByName("work").ID
	atomic := func(m vm.MethodID) bool { return m == workID }

	const budget = 64 * 1024
	run := func(a Analysis) bool {
		meter := cost.NewMeter(cost.Default())
		r, err := Run(prog, Config{
			Analysis: a, Seed: 3, Atomic: atomic,
			Meter: meter, MemoryBudget: budget, GCPeriod: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.Cost.OOM
	}
	if !run(PCDOnly) {
		t.Error("PCD-only should exceed the budget (it retains every log)")
	}
	if run(DCSingle) {
		t.Error("single-run mode should stay within the same budget (GC reclaims logs)")
	}
}

// TestUnaryOnlyFilterSecondRun exercises the paper's conditional unary
// instrumentation corner: a filter selecting no methods but flagging unary
// accesses — the second run then watches only non-transactional code.
func TestUnaryOnlyFilterSecondRun(t *testing.T) {
	b := vm.NewBuilder("unaryonly")
	o := b.Object()
	safe := b.Method("safe") // atomic but never racy (thread-local objects)
	localA := b.Object()
	safe.Read(localA, 0).Write(localA, 0)
	m0 := b.Method("main0")
	m0.CallN(safe, 5)
	// Racy unary accesses on o.
	for i := 0; i < 10; i++ {
		m0.Read(o, 0).Write(o, 0)
	}
	m1 := b.Method("main1")
	for i := 0; i < 10; i++ {
		m1.Read(o, 0).Write(o, 0)
	}
	b.Thread(m0)
	b.Thread(m1)
	prog := b.MustBuild()
	safeID := prog.MethodByName("safe").ID
	atomic := func(m vm.MethodID) bool { return m == safeID }

	filter := &txn.Filter{Unary: true} // no methods, unary only
	r, err := Run(prog, Config{
		Analysis: DCSecond, Seed: 2, Atomic: atomic, Filter: filter,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.ICD.RegularAccesses != 0 {
		t.Errorf("no regular transactions are selected, yet %d accesses instrumented",
			r.ICD.RegularAccesses)
	}
	if r.ICD.UnaryAccesses == 0 {
		t.Error("unary accesses must be instrumented")
	}
}
