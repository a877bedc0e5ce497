package icd

import (
	"slices"
	"testing"

	"doublechecker/internal/cost"
	"doublechecker/internal/octet"
	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
)

// racyIncrement: two threads run the atomic method inc = {rd x; wr x} with
// no lock; the script interleaves them non-serializably.
func racyIncrement() (*vm.Program, []vm.ThreadID, func(vm.MethodID) bool) {
	b := vm.NewBuilder("racy-inc")
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

func runICD(t *testing.T, prog *vm.Program, sched vm.Scheduler, atomic func(vm.MethodID) bool, opts Options) *Checker {
	t.Helper()
	c := NewChecker(prog, nil, opts)
	if _, err := vm.NewExec(prog, vm.Config{Sched: sched, Inst: c, Atomic: atomic}).Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return c
}

func TestDetectsImpreciseSCCForRealCycle(t *testing.T) {
	prog, script, atomic := racyIncrement()
	var sccs [][]*txn.Txn
	c := runICD(t, prog, vm.NewScripted(script, true), atomic,
		Options{Logging: true, OnSCC: func(s []*txn.Txn) { sccs = append(sccs, slices.Clone(s)) }})
	if c.Stats().SCCs == 0 {
		t.Fatal("ICD must detect an SCC for the racy interleaving")
	}
	if len(sccs) == 0 {
		t.Fatal("OnSCC not invoked")
	}
	// The SCC must contain both inc transactions.
	regulars := 0
	for _, tx := range sccs[0] {
		if !tx.Unary {
			regulars++
		}
	}
	if regulars < 2 {
		t.Errorf("SCC should contain both regular transactions: %v", sccs[0])
	}
}

func TestSerialExecutionNoSCC(t *testing.T) {
	prog, _, atomic := racyIncrement()
	c := runICD(t, prog, vm.NewScripted([]vm.ThreadID{0, 0, 0, 1, 1, 1}, false), atomic, Options{})
	if c.Stats().SCCs != 0 {
		t.Errorf("serial execution produced %d SCCs", c.Stats().SCCs)
	}
}

// TestObjectGranularityFalsePositive reproduces §3.2.3: object-level
// tracking creates an IDG cycle even though the precise fields differ. ICD
// must report an SCC (PCD would later reject it).
func TestObjectGranularityFalsePositive(t *testing.T) {
	b := vm.NewBuilder("objgran")
	o := b.Object()
	p := b.Object()
	ma := b.Method("ma") // wr o.f; rd p.q
	ma.Write(o, 0).Read(p, 0)
	mb := b.Method("mb") // wr p.q; rd o.g (different field of o)
	mb.Write(p, 0).Read(o, 1)
	m0 := b.Method("main0")
	m0.Call(ma)
	m1 := b.Method("main1")
	m1.Call(mb)
	b.Thread(m0)
	b.Thread(m1)
	prog := b.MustBuild()
	atomic := func(m vm.MethodID) bool {
		n := prog.Methods[m].Name
		return n == "ma" || n == "mb"
	}
	// t0: call, wr o; t1: call, wr p; t0: rd p (conflict: edge B->A);
	// t1: rd o (conflict: edge from t0's side back into B).
	script := []vm.ThreadID{0, 1, 0, 1, 0, 1}
	c := runICD(t, prog, vm.NewScripted(script, false), atomic, Options{})
	if c.Stats().SCCs == 0 {
		t.Error("object-granularity imprecision should produce an IDG SCC")
	}
}

func TestStaticInfoCollectsMethods(t *testing.T) {
	prog, script, atomic := racyIncrement()
	c := runICD(t, prog, vm.NewScripted(script, true), atomic, Options{})
	methods, unary := c.StaticInfo()
	incID := prog.MethodByName("inc").ID
	if methods[incID] == 0 {
		t.Errorf("inc should be in static SCC info: %v", methods)
	}
	_ = unary // unary participation depends on interleaving; just exercise it
}

func TestUnaryInSCCFlag(t *testing.T) {
	// t1's non-transactional rd/wr lands inside t0's atomic rd..wr window.
	b := vm.NewBuilder("unary")
	o := b.Object()
	atomicRW := b.Method("atomicRW")
	atomicRW.Read(o, 0).Write(o, 0)
	m0 := b.Method("main0")
	m0.Call(atomicRW)
	m1 := b.Method("main1")
	m1.Read(o, 0).Write(o, 0)
	b.Thread(m0)
	b.Thread(m1)
	prog := b.MustBuild()
	atomic := func(m vm.MethodID) bool { return prog.Methods[m].Name == "atomicRW" }
	script := []vm.ThreadID{0, 0, 1, 1, 0}
	c := runICD(t, prog, vm.NewScripted(script, true), atomic, Options{})
	if c.Stats().SCCs == 0 {
		t.Fatal("expected an SCC")
	}
	if !c.Stats().UnaryInSCC {
		t.Error("SCC involves a unary transaction; flag must be set")
	}
}

func TestLoggingRecordsAccesses(t *testing.T) {
	prog, script, atomic := racyIncrement()
	var scc []*txn.Txn
	runICD(t, prog, vm.NewScripted(script, true), atomic,
		Options{Logging: true, OnSCC: func(s []*txn.Txn) { scc = slices.Clone(s) }})
	if scc == nil {
		t.Fatal("no SCC")
	}
	entries := 0
	for _, tx := range scc {
		entries += len(tx.Log)
	}
	if entries < 4 { // at least rd+wr per inc transaction
		t.Errorf("SCC logs have %d entries, want >= 4", entries)
	}
}

func TestNoLoggingKeepsLogsEmpty(t *testing.T) {
	prog, script, atomic := racyIncrement()
	var scc []*txn.Txn
	c := runICD(t, prog, vm.NewScripted(script, true), atomic,
		Options{OnSCC: func(s []*txn.Txn) { scc = slices.Clone(s) }})
	if c.TxnStats().LogEntries != 0 {
		t.Errorf("first-run mode must not log, recorded %d", c.TxnStats().LogEntries)
	}
	for _, tx := range scc {
		if len(tx.Log) != 0 {
			t.Error("transaction log should be empty without logging")
		}
	}
}

func TestFilterSkipsEverything(t *testing.T) {
	prog, script, atomic := racyIncrement()
	c := runICD(t, prog, vm.NewScripted(script, true), atomic,
		Options{Filter: &txn.Filter{}})
	st := c.Stats()
	if st.RegularAccesses != 0 || st.UnaryAccesses != 0 || st.SCCs != 0 {
		t.Errorf("empty filter should instrument nothing: %+v", st)
	}
}

func TestFilterSelectsOnlyNamedMethod(t *testing.T) {
	prog, script, atomic := racyIncrement()
	incID := prog.MethodByName("inc").ID
	c := runICD(t, prog, vm.NewScripted(script, true), atomic,
		Options{Filter: &txn.Filter{Methods: map[vm.MethodID]bool{incID: true}}})
	st := c.Stats()
	if st.RegularTx != 2 {
		t.Errorf("instrumented regular tx = %d, want 2", st.RegularTx)
	}
	if st.UnaryAccesses != 0 {
		t.Errorf("unary accesses instrumented = %d, want 0 (unary not selected)", st.UnaryAccesses)
	}
	if st.SCCs == 0 {
		t.Error("violation within selected method must still surface")
	}
}

func TestGCDoesNotBreakSCCDetection(t *testing.T) {
	prog, script, atomic := racyIncrement()
	c := runICD(t, prog, vm.NewScripted(script, true), atomic, Options{GCPeriod: 1})
	if c.Stats().SCCs == 0 {
		t.Error("SCC must survive aggressive collection")
	}
}

func TestIDGEdgesFewRelativeToAccesses(t *testing.T) {
	// Paper Table 3 discussion: compared to how many accesses execute,
	// there are few ICD edges. Mostly-local work should stay on the fast
	// path.
	b := vm.NewBuilder("local")
	objs := b.Objects(8)
	work := b.Method("work")
	for i := 0; i < 50; i++ {
		work.Write(objs[0], 0).Read(objs[0], 0)
	}
	work2 := b.Method("work2")
	for i := 0; i < 50; i++ {
		work2.Write(objs[1], 0).Read(objs[1], 0)
	}
	b.Thread(work)
	b.Thread(work2)
	prog := b.MustBuild()
	c := runICD(t, prog, vm.NewRandom(3), nil, Options{})
	if c.Stats().IDGEdges > 5 {
		t.Errorf("thread-local work created %d IDG edges", c.Stats().IDGEdges)
	}
	if c.OctetStats().FastPath < 150 {
		t.Errorf("fast path hits = %d, want most accesses", c.OctetStats().FastPath)
	}
}

func TestCostMuchCheaperThanPerAccessSync(t *testing.T) {
	// ICD without logging vs a hypothetical per-access sync cost: the whole
	// point of the paper. Verify the meter charges mostly fast paths.
	b := vm.NewBuilder("cheap")
	o := b.Object()
	work := b.Method("work")
	for i := 0; i < 100; i++ {
		work.Read(o, 0)
	}
	b.Thread(work)
	prog := b.MustBuild()
	meter := cost.NewMeter(cost.Default())
	c := NewChecker(prog, meter, Options{})
	if _, err := vm.NewExec(prog, vm.Config{Inst: c, Meter: meter}).Run(); err != nil {
		t.Fatal(err)
	}
	base := cost.Default().BaseOp * 101 // ops incl call overhead approx
	if meter.Total() > base*2 {
		t.Errorf("ICD overhead too high: total %d vs base ~%d", meter.Total(), base)
	}
}

func TestSCCDetectionDeferredToTxnEnd(t *testing.T) {
	// The SCC must be reported only once both transactions finished; the
	// trigger transaction is the one that ends last.
	prog, script, atomic := racyIncrement()
	var sccSizes []int
	runICD(t, prog, vm.NewScripted(script, true), atomic,
		Options{OnSCC: func(s []*txn.Txn) { sccSizes = append(sccSizes, len(s)) }})
	if len(sccSizes) != 1 {
		t.Fatalf("SCC reported %d times, want exactly once", len(sccSizes))
	}
}

func TestArraysIgnoredByBaseChecker(t *testing.T) {
	b := vm.NewBuilder("arr")
	arr := b.Array(4)
	m0 := b.Method("m0")
	m0.ArrayWrite(arr, 0)
	m1 := b.Method("m1")
	m1.ArrayRead(arr, 0)
	b.Thread(m0)
	b.Thread(m1)
	prog := b.MustBuild()
	c := runICD(t, prog, vm.NewScripted([]vm.ThreadID{0, 1}, false), nil, Options{})
	// 4 sync accesses (thread handles), 0 array accesses.
	if got := c.Stats().RegularAccesses + c.Stats().UnaryAccesses; got != 4 {
		t.Errorf("instrumented = %d, want 4", got)
	}
}

// TestFenceEdges drives a RdSh fence scenario end to end through ICD: a
// writer makes an object exclusive, two readers upgrade it to RdSh, and a
// stale third reader's fence transition must add a gLastRdSh edge
// (paper Figure 4, handleFenceTransition).
func TestFenceEdges(t *testing.T) {
	b := vm.NewBuilder("fence")
	o := b.Object()
	w := b.Method("w")
	w.Write(o, 0)
	r1 := b.Method("r1")
	r1.Read(o, 0)
	r2 := b.Method("r2")
	r2.Read(o, 0)
	r3 := b.Method("r3")
	r3.Read(o, 0)
	b.Thread(w)
	b.Thread(r1)
	b.Thread(r2)
	b.Thread(r3)
	prog := b.MustBuild()
	// w writes (claim), r1 reads (conflict -> RdEx), r2 reads (upgrade ->
	// RdSh, gLastRdSh set), r3 reads (fence -> gLastRdSh edge).
	script := []vm.ThreadID{0, 1, 2, 3}
	c := runICD(t, prog, vm.NewScripted(script, false), nil, Options{})
	if c.OctetStats().Fences == 0 {
		t.Fatal("expected a fence transition")
	}
	if c.Stats().IDGEdges < 3 {
		t.Errorf("expected conflict + upgrade + fence edges, got %d", c.Stats().IDGEdges)
	}
}

// TestEagerDetectFindsCyclesEarly exercises the EagerDetect ablation path
// including its cost charging.
func TestEagerDetectFindsCyclesEarly(t *testing.T) {
	prog, script, atomic := racyIncrement()
	meter := cost.NewMeter(cost.Default())
	c := NewChecker(prog, meter, Options{EagerDetect: true})
	if _, err := vm.NewExec(prog, vm.Config{
		Sched: vm.NewScripted(script, true), Inst: c, Atomic: atomic, Meter: meter,
	}).Run(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.EagerChecks == 0 || st.EagerNodesExplored == 0 {
		t.Errorf("eager stats empty: %+v", st)
	}
	if st.SCCs == 0 {
		t.Error("deferred detection must still run alongside eager checks")
	}
}

// TestManagerAccessorAndKnobs exercises the ablation knobs through ICD.
func TestManagerAccessorAndKnobs(t *testing.T) {
	prog, script, atomic := racyIncrement()
	c := NewChecker(prog, nil, Options{Logging: true, NoElision: true, NoUnaryMerge: true})
	if _, err := vm.NewExec(prog, vm.Config{
		Sched: vm.NewScripted(script, true), Inst: c, Atomic: atomic,
	}).Run(); err != nil {
		t.Fatal(err)
	}
	if c.Manager() == nil {
		t.Fatal("Manager accessor")
	}
	if c.Manager().Stats().LogElided != 0 {
		t.Error("NoElision must reach the manager")
	}
}

// TestStatsBeforeProgramStart: a checker that has not started a run reports
// zero counts rather than reading run state that ProgramStart builds.
func TestStatsBeforeProgramStart(t *testing.T) {
	prog, _, _ := racyIncrement()
	c := NewChecker(prog, nil, Options{})
	if s := c.OctetStats(); s != (octet.Stats{}) {
		t.Errorf("OctetStats before ProgramStart = %+v, want zero", s)
	}
	if s := c.TxnStats(); s != (txn.Stats{}) {
		t.Errorf("TxnStats before ProgramStart = %+v, want zero", s)
	}
}

// TestEdgeKindsAndFinishesAddUp: the IDG edges counted per Figure 4 handler
// sum to IDGEdges, and since every input here ends with no transaction open,
// every transaction the manager created finished once, as a regular or a
// unary IDG node. Each count must move somewhere in the corpus.
func TestEdgeKindsAndFinishesAddUp(t *testing.T) {
	var total Stats
	for _, in := range reuseInputs(t) {
		c := NewChecker(in.prog, nil, Options{Logging: true})
		if err := in.drive(c, nil); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		s, ts := c.Stats(), c.TxnStats()
		if sum := s.EdgesConflicting + s.EdgesUpgradeRdEx + s.EdgesUpgradeRdSh + s.EdgesFence; sum != s.IDGEdges {
			t.Errorf("%s: edges by handler sum to %d, IDGEdges = %d", in.name, sum, s.IDGEdges)
		}
		if s.FinishedRegular != ts.RegularTxns || s.FinishedUnary != ts.UnaryTxns {
			t.Errorf("%s: finished %d regular and %d unary, manager created %d and %d",
				in.name, s.FinishedRegular, s.FinishedUnary, ts.RegularTxns, ts.UnaryTxns)
		}
		total.EdgesConflicting += s.EdgesConflicting
		total.EdgesUpgradeRdEx += s.EdgesUpgradeRdEx
		total.EdgesUpgradeRdSh += s.EdgesUpgradeRdSh
		total.EdgesFence += s.EdgesFence
		total.FinishedRegular += s.FinishedRegular
		total.FinishedUnary += s.FinishedUnary
	}
	if total.EdgesConflicting == 0 || total.EdgesUpgradeRdEx == 0 || total.EdgesUpgradeRdSh == 0 ||
		total.EdgesFence == 0 || total.FinishedRegular == 0 || total.FinishedUnary == 0 {
		t.Fatalf("a count never moved over the corpus: %+v", total)
	}
}
