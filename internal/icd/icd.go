// Package icd implements DoubleChecker's imprecise cycle detection analysis
// (paper §3.2).
//
// ICD watches every (monitored) access through the Octet barriers and turns
// Octet's state transitions into edges of the imprecise dependence graph
// (IDG), whose nodes are transactions. The handlers follow the paper's
// Figure 4 exactly:
//
//   - conflicting transition: edge currTX(respT) -> currTX(reqT); when the
//     new state is RdEx_reqT, reqT.lastRdEx := currTX(reqT);
//   - upgrading transition (RdEx_T1 -> RdSh): edge T1.lastRdEx -> currTX(T)
//     and edge gLastRdSh -> currTX(T); then gLastRdSh := currTX(T);
//   - fence transition: edge gLastRdSh -> currTX(T).
//
// These edges soundly over-approximate every cross-thread dependence (the
// paper's §3.2.5 soundness argument), at a fraction of the cost of precise
// tracking: the common case is Octet's read-only fast path.
//
// Rather than checking for cycles at every edge, ICD defers detection to
// transaction end (§3.2.3) and computes the strongly connected component of
// the just-finished transaction, exploring only finished transactions. The
// component comes from an SCC condensation of the IDG maintained as edges
// arrive (graph.IncSCC), so a finish costs a lookup, not a walk. Any SCC
// found is handed to the OnSCC callback (PCD, in single-run mode or the
// second run of multi-run mode) together with the transactions' read/write
// logs, which ICD records when logging is enabled (§3.2.4).
package icd

import (
	"sync"

	"doublechecker/internal/cost"
	"doublechecker/internal/graph"
	"doublechecker/internal/obs"
	"doublechecker/internal/octet"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
)

// Options configures an ICD checker.
type Options struct {
	// Logging records per-transaction read/write logs so a precise analysis
	// can replay SCCs (single-run mode and the second run of multi-run
	// mode). The first run of multi-run mode leaves this off — avoiding
	// logging is exactly its performance advantage (§3.1).
	Logging bool
	// Filter restricts instrumentation for the second run of multi-run
	// mode; nil instruments everything.
	Filter *txn.Filter
	// OnSCC receives each detected SCC (the potential atomicity violation).
	// The slice is valid only during the call: the checker reuses its backing
	// array for the next SCC, so a callee that keeps the members copies them.
	OnSCC func(scc []*txn.Txn)
	// GCPeriod runs transaction collection every N instrumented accesses;
	// 0 uses the default (8192).
	GCPeriod uint64
	// InstrumentArrays includes array element accesses, conflating all
	// elements of an array into object-level state (§5.4). The paper
	// disables cycle detection in that experiment because conflation makes
	// it imprecise; callers combine this with DisableSCC.
	InstrumentArrays bool
	// DisableSCC turns off SCC detection at transaction end (§5.4 array
	// experiment).
	DisableSCC bool
	// NoElision disables read/write-log duplicate elision (ablation).
	NoElision bool
	// NoUnaryMerge makes every non-transactional access its own unary
	// transaction (ablation).
	NoUnaryMerge bool
	// EagerDetect additionally runs a cycle check at every cross-thread
	// edge occurrence, the strategy the paper rejects in §3.2.3 in favour
	// of detection at transaction end. Reporting to PCD still happens on
	// the deferred path (eager hits see incomplete transactions); the knob
	// exists to measure the cost the paper's design avoids.
	EagerDetect bool
	// Telemetry, when non-nil, receives the icd.scc / icd.gc phase spans
	// and one icd.scc.size observation per detected SCC. The run's counts
	// stay in Stats and OctetStats; core publishes them when a run
	// completes.
	Telemetry *telemetry.Registry
	// TraceSpan is the request-scoped parent under which the icd.scc and
	// icd.gc phase spans also appear in the trace tree. The zero Span — the
	// default — keeps them out of any trace at no cost; the registry above
	// keeps aggregating either way.
	TraceSpan obs.Span
}

// Stats counts ICD activity; Table 3's columns come from here.
type Stats struct {
	EagerChecks        uint64 // cycle checks under EagerDetect (ablation)
	EagerNodesExplored uint64
	RegularTx          uint64 // instrumented regular transactions
	RegularAccesses    uint64 // instrumented accesses inside regular transactions
	UnaryAccesses      uint64 // instrumented non-transactional accesses
	IDGEdges           uint64 // distinct cross-thread IDG edges
	SCCs               uint64 // SCCs detected (potential violations)
	SCCTxns            uint64 // total transactions across detected SCCs
	UnaryInSCC         bool   // any unary transaction in any SCC (multi-run boolean)
	SCCDetections      uint64 // SCC computations attempted
	SCCNodesExplored   uint64
	FinishChecks       uint64 // transaction finishes considered for detection
	SkipNoEligibleOut  uint64 // skipped: no outgoing edge to a finished transaction
	SkipNoEligibleIn   uint64 // skipped: no incoming edge from a finished transaction
	DetectionUnits     uint64 // modelled cost units spent on per-finish cycle detection
	// MaintenanceUnits is the modelled cost of the SCC condensation's graph
	// upkeep (order maintenance, component merges, adjacency compaction) —
	// the per-edge work that keeps per-finish detection a lookup.
	MaintenanceUnits uint64
	// IDGEdges split by the Figure 4 handler that added the edge.
	EdgesConflicting uint64
	EdgesUpgradeRdEx uint64 // upgrading: T1.lastRdEx -> currTX(T)
	EdgesUpgradeRdSh uint64 // upgrading: gLastRdSh -> currTX(T)
	EdgesFence       uint64
	// FinishedRegular and FinishedUnary count finished transactions, the
	// IDG's nodes; a transaction still open when the run ends is in neither.
	FinishedRegular uint64
	FinishedUnary   uint64
}

// arena is one run's graph storage, handed to a later run when the run
// ends: the SCC engine in every configuration, plus the transaction manager's
// nodes and edges from a recycling run (see recycles).
type arena struct {
	inc   *graph.IncSCC[*txn.Txn]
	spare txn.Spares
}

// arenas carries arenas from ended runs to starting ones, across checkers and
// goroutines, so a multi-run check stops rebuilding the IDG's storage at every
// run. Tests swap in a deterministic stand-in: a sync.Pool may drop what it
// holds (under -race, at random).
var arenas interface {
	Get() any
	Put(any)
} = new(sync.Pool)

// eligible is the engine's activation predicate: only finished, uncollected
// transactions take part in detection (§3.2.3).
func eligible(t *txn.Txn) bool { return t.Finished && !t.Dead() }

// Checker is an ICD instance; it implements vm.Instrumentation. Per-thread
// state lives in slices indexed by thread ID.
type Checker struct {
	vm.NopInst
	prog  *vm.Program
	meter *cost.Meter
	model cost.Model // the meter's prices, read once
	opts  Options

	mgr   *txn.Manager
	oct   *octet.Engine
	arena *arena // between ProgramStart and ProgramEnd

	lastRdEx  []*txn.Txn // by thread; nil until the thread's first RdEx
	gLastRdSh *txn.Txn

	skipping []bool // by thread: inside a transaction the filter leaves out
	exec     vm.ExecView

	// sccMethods accumulates the static transaction information multi-run
	// mode's first run passes to the second run: the starting methods of
	// regular transactions involved in any SCC (§3.1), with how many SCCs
	// each participated in (the paper's future-work suggestion of
	// communicating imprecise cycles more precisely; core.UnionFilter can
	// threshold on the counts).
	sccMethods map[vm.MethodID]int

	// inc is the incremental SCC condensation (nil under DisableSCC).
	// incNodes/incEdges snapshot its work counters so each interaction
	// charges only the delta.
	inc      *graph.IncSCC[*txn.Txn]
	incNodes uint64
	incEdges uint64

	// aggs holds per-component member aggregates keyed by the engine's
	// representative transaction, maintained on merges so detection can
	// report a component in O(distinct methods) instead of O(members) when
	// nothing downstream needs the member list (OnSCC nil). Entries die with
	// their component: the sweep hook deletes the representative's entry
	// before the manager recycles the transaction node.
	aggs     map[*txn.Txn]*compAgg
	aggsFree []*compAgg

	rootsBuf []*txn.Txn // GC root-set scratch
	compBuf  []*txn.Txn // the member path's SCC hand-off buffer

	stats   Stats
	sinceGC uint64
	// sccSize is the icd.scc.size histogram, nil without a registry. It is
	// observed once per SCC: a distribution needs every observation.
	sccSize *telemetry.Histogram
}

// NewChecker returns an ICD checker. meter may be nil. The run's state —
// transaction manager, SCC engine, Octet engine — is built by ProgramStart.
func NewChecker(prog *vm.Program, meter *cost.Meter, opts Options) *Checker {
	if opts.GCPeriod == 0 {
		opts.GCPeriod = 8192
	}
	c := &Checker{
		prog:       prog,
		meter:      meter,
		model:      meter.Model(),
		opts:       opts,
		sccMethods: make(map[vm.MethodID]int),
	}
	if opts.Telemetry != nil {
		c.sccSize = opts.Telemetry.Histogram(telemetry.ICDSCCSize, telemetry.SCCSizeBuckets)
	}
	return c
}

// skips reports whether thread t is inside a filtered-out transaction.
func (c *Checker) skips(t vm.ThreadID) bool {
	return int(t) < len(c.skipping) && c.skipping[t]
}

// lastRdExOf returns thread t's lastRdEx, or nil.
func (c *Checker) lastRdExOf(t vm.ThreadID) *txn.Txn {
	if int(t) < len(c.lastRdEx) {
		return c.lastRdEx[t]
	}
	return nil
}

// recycles reports whether nothing retains transactions or edges past a
// Collect, or past the run: no logs for PCD, no SCC handoff. The manager then
// recycles swept nodes — the multi-run first run's hot path stops allocating
// in the steady state — and at ProgramEnd hands all of them to the next run.
func (c *Checker) recycles() bool { return !c.opts.Logging && c.opts.OnSCC == nil }

// compAgg is one cyclic component's member aggregate: how many members are
// unary, and how many carry each starting method. Detection folds these
// counts into the checker's stats exactly as a member walk would, without
// the walk.
type compAgg struct {
	unary   int
	methods map[vm.MethodID]int
}

func (a *compAgg) reset() {
	a.unary = 0
	clear(a.methods)
}

// addMember folds one transaction into the aggregate.
func (a *compAgg) addMember(t *txn.Txn) {
	if t.Unary {
		a.unary++
	} else if t.Method != vm.NoMethod {
		a.methods[t.Method]++
	}
}

// aggFor returns the aggregate keyed by rep, creating (or recycling) one
// seeded with rep itself when the component was a singleton until now.
func (c *Checker) aggFor(rep *txn.Txn) *compAgg {
	agg, ok := c.aggs[rep]
	if !ok {
		if n := len(c.aggsFree); n > 0 {
			agg = c.aggsFree[n-1]
			c.aggsFree = c.aggsFree[:n-1]
		} else {
			agg = &compAgg{methods: make(map[vm.MethodID]int)}
		}
		agg.addMember(rep)
		c.aggs[rep] = agg
	}
	return agg
}

// mergeAggs is the engine's merge hook: the loser component's aggregate is
// folded into the winner's.
func (c *Checker) mergeAggs(winner, loser *txn.Txn) {
	wa := c.aggFor(winner)
	if la, ok := c.aggs[loser]; ok {
		wa.unary += la.unary
		for m, n := range la.methods {
			wa.methods[m] += n
		}
		la.reset()
		c.aggsFree = append(c.aggsFree, la)
		delete(c.aggs, loser)
		return
	}
	wa.addMember(loser)
}

// chargeEngine charges the condensation's work since the last call to the
// cost meter, at the SCC per-node/per-edge prices. The charge lands in
// MaintenanceUnits, not DetectionUnits: the engine pays per edge so that
// per-finish detection stays a lookup, and the two buckets keep that trade
// visible.
func (c *Checker) chargeEngine() {
	st := c.inc.Stats()
	dn, de := st.NodesVisited-c.incNodes, st.EdgesScanned-c.incEdges
	if dn == 0 && de == 0 {
		return
	}
	c.incNodes, c.incEdges = st.NodesVisited, st.EdgesScanned
	if c.meter != nil {
		u := c.model.SCCPerNode*cost.Units(dn) + c.model.SCCPerEdge*cost.Units(de)
		c.meter.Charge(u)
		c.stats.MaintenanceUnits += uint64(u)
	}
}

// Stats returns ICD counters.
func (c *Checker) Stats() Stats { return c.stats }

// TxnStats returns the transaction manager's counters (zero before
// ProgramStart).
func (c *Checker) TxnStats() txn.Stats {
	if c.mgr == nil {
		return txn.Stats{}
	}
	return c.mgr.Stats()
}

// OctetStats returns the underlying Octet engine's counters (zero before
// ProgramStart).
func (c *Checker) OctetStats() octet.Stats {
	if c.oct == nil {
		return octet.Stats{}
	}
	return c.oct.Stats()
}

// StaticInfo returns the first run's output for the second run: how many
// SCCs each method's regular transactions appeared in, and whether any
// unary transaction appeared in any SCC.
func (c *Checker) StaticInfo() (map[vm.MethodID]int, bool) {
	out := make(map[vm.MethodID]int, len(c.sccMethods))
	for m, n := range c.sccMethods {
		out[m] = n
	}
	return out, c.stats.UnaryInSCC
}

// ProgramStart implements vm.Instrumentation: it builds the run's state,
// taking the graph storage an earlier run left in arenas when there is some.
func (c *Checker) ProgramStart(e vm.ExecView) {
	c.exec = e
	c.mgr = txn.NewManager(c.opts.Logging, e.Now, c.meter)
	c.mgr.OnFinish(c.txnFinished)
	if c.opts.NoElision {
		c.mgr.DisableElision()
	}
	if c.opts.NoUnaryMerge {
		c.mgr.DisableUnaryMerging()
	}
	c.arena, _ = arenas.Get().(*arena)
	if c.arena == nil {
		c.arena = &arena{inc: graph.NewIncSCC(eligible, (*txn.Txn).Slot)}
	}
	if c.recycles() {
		c.mgr.EnableRecycling()
		c.mgr.Adopt(c.arena.spare)
		c.arena.spare = txn.Spares{}
	}
	if !c.opts.DisableSCC {
		c.inc = c.arena.inc
		c.incNodes, c.incEdges = 0, 0
		c.mgr.OnIntraEdge(func(src, dst *txn.Txn) {
			c.inc.AddEdge(src, dst)
			c.chargeEngine()
		})
		if c.opts.OnSCC == nil {
			c.aggs = make(map[*txn.Txn]*compAgg)
			c.inc.SetOnMerge(c.mergeAggs)
		}
		c.mgr.OnSweep(func(t *txn.Txn) {
			c.inc.Release(t)
			if agg, ok := c.aggs[t]; ok {
				agg.reset()
				c.aggsFree = append(c.aggsFree, agg)
				delete(c.aggs, t)
			}
		})
	}
	c.oct = octet.New(c, e.Blocked, c.meter)
}

// ProgramEnd implements vm.Instrumentation: the run's graph storage goes back
// to arenas, emptied, for a later run. Stats, TxnStats, OctetStats and
// StaticInfo stay readable. A recycling run also hands over its transactions
// and edges, so its Manager holds none afterwards; a logging run keeps them,
// since PCD and its violations retain them. A run that stops short of
// ProgramEnd leaves its storage to the garbage collector.
func (c *Checker) ProgramEnd() {
	a := c.arena
	c.arena = nil
	if c.inc != nil {
		a.inc.Reset()
		a.inc.SetOnMerge(nil)
		c.inc, c.aggs = nil, nil
	}
	if c.recycles() {
		a.spare = c.mgr.Retire()
		clear(c.lastRdEx)
		c.gLastRdSh = nil
	}
	arenas.Put(a)
}

// ThreadStart implements vm.Instrumentation.
func (c *Checker) ThreadStart(t vm.ThreadID) { c.oct.ThreadStart(t) }

// ThreadExit implements vm.Instrumentation.
func (c *Checker) ThreadExit(t vm.ThreadID) {
	c.oct.ThreadExit(t)
	c.mgr.ThreadExit(t)
}

// TxBegin implements vm.Instrumentation.
func (c *Checker) TxBegin(t vm.ThreadID, m vm.MethodID) {
	if !c.opts.Filter.TxSelected(m) {
		c.skipping = vm.Grow(c.skipping, int(t))
		c.skipping[t] = true
		return
	}
	c.stats.RegularTx++
	c.mgr.BeginRegular(t, m)
}

// TxEnd implements vm.Instrumentation.
func (c *Checker) TxEnd(t vm.ThreadID, m vm.MethodID) {
	if c.skips(t) {
		c.skipping[t] = false
		return
	}
	c.mgr.EndRegular(t)
}

// Access implements vm.Instrumentation: the Octet barrier plus ICD's
// logging instrumentation.
func (c *Checker) Access(a vm.Access) {
	if c.skips(a.Thread) {
		return
	}
	inTx := c.exec != nil && c.exec.InTx(a.Thread)
	if !inTx && !c.opts.Filter.UnarySelected() {
		return
	}
	if a.Class == vm.ClassArray {
		if !c.opts.InstrumentArrays {
			// The paper's default configuration instruments only field
			// accesses; arrays are evaluated separately (§5.4).
			return
		}
		// Conflate array elements: object-level metadata (§5.4).
		a.Field = 0
	}
	if inTx {
		c.stats.RegularAccesses++
	} else {
		c.stats.UnaryAccesses++
	}

	// The Octet barrier runs first (its transitions fire the Figure 4
	// hooks), then the access is recorded in the current transaction's
	// read/write log, in barrier order, exactly as the paper inserts ICD's
	// logging instrumentation "before each program access but after
	// Octet's instrumentation" (§3.2.4).
	if a.Write {
		c.oct.BeforeWrite(a.Thread, a.Obj)
	} else {
		c.oct.BeforeRead(a.Thread, a.Obj)
	}
	c.mgr.Record(a.Thread, a.Obj, a.Field, a.Write, a.Class == vm.ClassSync, a.Seq)

	c.sinceGC++
	if c.sinceGC >= c.opts.GCPeriod {
		c.sinceGC = 0
		c.collect()
	}
}

// HandleConflicting implements octet.Hooks (Figure 4,
// handleConflictingTransition).
func (c *Checker) HandleConflicting(resp, req vm.ThreadID, old, new octet.State, explicit bool) {
	// currTX(respT): the responder's latest transaction — never a fresh
	// one; the responder is at (or past) a safe point, not making accesses.
	src := c.mgr.EdgeSource(resp)
	var dst *txn.Txn
	if src != nil {
		// An incoming edge cuts a merged unary transaction first.
		dst = c.mgr.EdgeSink(req)
		c.addIDGEdge(src, dst, &c.stats.EdgesConflicting)
	} else {
		dst = c.mgr.Current(req)
	}
	if new.Kind == octet.RdEx && new.Owner == req {
		c.lastRdEx = vm.Grow(c.lastRdEx, int(req))
		c.lastRdEx[req] = dst
	}
}

// HandleUpgrading implements octet.Hooks (Figure 4,
// handleUpgradingTransition).
func (c *Checker) HandleUpgrading(t vm.ThreadID, rdExOwner vm.ThreadID, old, new octet.State) {
	last := c.lastRdExOf(rdExOwner)
	var cur *txn.Txn
	if last != nil || c.gLastRdSh != nil {
		cur = c.mgr.EdgeSink(t) // incoming edges cut merged unaries
	} else {
		cur = c.mgr.Current(t)
	}
	if last != nil {
		c.addIDGEdge(last, cur, &c.stats.EdgesUpgradeRdEx)
	}
	if c.gLastRdSh != nil {
		c.addIDGEdge(c.gLastRdSh, cur, &c.stats.EdgesUpgradeRdSh)
	}
	c.gLastRdSh = cur
}

// HandleFence implements octet.Hooks (Figure 4, handleFenceTransition).
func (c *Checker) HandleFence(t vm.ThreadID, counter uint64) {
	if c.gLastRdSh != nil {
		c.addIDGEdge(c.gLastRdSh, c.mgr.EdgeSink(t), &c.stats.EdgesFence)
	}
}

// addIDGEdge adds the edge src -> dst to the IDG. A new edge is counted in
// IDGEdges and in *kind, the Stats field of the handler that added it.
func (c *Checker) addIDGEdge(src, dst *txn.Txn, kind *uint64) {
	if src == nil || dst == nil || src == dst {
		return
	}
	before := c.mgr.Stats().CrossEdges
	c.mgr.AddCrossEdge(src, dst)
	if c.mgr.Stats().CrossEdges != before {
		c.stats.IDGEdges++
		*kind++
		if c.meter != nil {
			c.meter.Charge(c.model.IDGEdge)
		}
		if c.inc != nil {
			c.inc.AddEdge(src, dst)
			c.chargeEngine()
		}
	}
	if c.opts.EagerDetect {
		// The rejected per-edge strategy: look for a cycle through the new
		// edge right now. Charged like SCC work.
		c.stats.EagerChecks++
		succ := func(t *txn.Txn) []*txn.Txn {
			c.stats.EagerNodesExplored++
			if c.meter != nil {
				c.meter.Charge(c.model.SCCPerNode + c.model.SCCPerEdge*cost.Units(len(t.Out)))
			}
			return t.Succs()
		}
		graph.FindPath(dst, src, succ)
	}
}

// txnFinished runs deferred cycle detection (§3.2.3): compute the maximal
// SCC containing the finished transaction, over finished transactions only.
func (c *Checker) txnFinished(tx *txn.Txn) {
	if tx.Unary {
		c.stats.FinishedUnary++
	} else {
		c.stats.FinishedRegular++
	}
	if c.opts.DisableSCC {
		return
	}
	c.stats.FinishChecks++
	// The engine must observe every finish even when detection below is
	// skipped: an eligibility change alone can complete a cycle (all of the
	// cycle's edges may predate this finish).
	c.inc.Activate(tx)
	c.chargeEngine()
	// Quick reject (outgoing): a cycle through tx needs an outgoing edge to
	// an already-finished transaction (all cycle members are finished when
	// the last one finishes, and detection runs at every finish).
	anyFinished := false
	for _, e := range tx.Out {
		if e.Dst.Finished && !e.Dst.Dead() {
			anyFinished = true
			break
		}
	}
	if !anyFinished {
		c.stats.SkipNoEligibleOut++
		return
	}
	// Quick reject (incoming): the cycle equally needs an incoming edge whose
	// source has finished. The manager maintains that flag monotonically — a
	// finished source never unfinishes, and a swept one only leaves the flag
	// conservatively set — so the test is a single load.
	if !tx.FinishedInEdge() {
		c.stats.SkipNoEligibleIn++
		return
	}
	c.stats.SCCDetections++
	span := c.opts.Telemetry.StartSpan(c.opts.TraceSpan, telemetry.SpanICDSCC, c.meter)
	defer span.End()
	var comp []*txn.Txn
	var size int
	if c.opts.OnSCC == nil {
		// Aggregate path: nothing downstream needs the member list, so the
		// component is reported from its maintained aggregate — an O(1)
		// lookup plus O(distinct methods) of counter folding, with no member
		// walk.
		rep, sz, cyclic, ok := c.inc.Component(tx)
		if !ok || !cyclic {
			return
		}
		size = sz
		touched := 1 // the component lookup itself
		if agg, found := c.aggs[rep]; found {
			if agg.unary > 0 {
				c.stats.UnaryInSCC = true
			}
			for m, n := range agg.methods {
				c.sccMethods[m] += n
				touched++
			}
		} else if tx.Unary {
			// A singleton self-loop component is exactly tx.
			c.stats.UnaryInSCC = true
		} else if tx.Method != vm.NoMethod {
			c.sccMethods[tx.Method]++
		}
		c.stats.SCCNodesExplored += uint64(touched)
		if c.meter != nil {
			u := c.model.SCCPerNode * cost.Units(touched)
			c.meter.Charge(u)
			c.stats.DetectionUnits += uint64(u)
		}
	} else {
		// Member path: the OnSCC handoff needs the member slice, so
		// extraction pays per member, into the reused buffer.
		comp = c.inc.CyclicComponent(tx, c.compBuf[:0])
		if comp == nil {
			return
		}
		size = len(comp)
		c.stats.SCCNodesExplored += uint64(size)
		if c.meter != nil {
			u := c.model.SCCPerNode * cost.Units(size)
			c.meter.Charge(u)
			c.stats.DetectionUnits += uint64(u)
		}
		for _, member := range comp {
			if member.Unary {
				c.stats.UnaryInSCC = true
			} else if member.Method != vm.NoMethod {
				c.sccMethods[member.Method]++
			}
		}
	}
	c.stats.SCCs++
	c.stats.SCCTxns += uint64(size)
	span.SetInt("scc_txns", int64(size))
	if c.sccSize != nil {
		c.sccSize.Observe(uint64(size))
	}
	if comp != nil {
		c.opts.OnSCC(comp)
		clear(comp) // keep no transaction alive past the hand-off
		c.compBuf = comp[:0]
	}
}

// collect garbage-collects transactions unreachable from the ICD roots:
// thread currents (implicit), lastRdEx, and gLastRdSh.
func (c *Checker) collect() {
	span := c.opts.Telemetry.StartSpan(c.opts.TraceSpan, telemetry.SpanICDGC, c.meter)
	defer span.End()
	roots := c.rootsBuf[:0]
	for _, tx := range c.lastRdEx {
		if tx != nil {
			roots = append(roots, tx)
		}
	}
	if c.gLastRdSh != nil {
		roots = append(roots, c.gLastRdSh)
	}
	c.mgr.Collect(roots)
	c.rootsBuf = roots[:0]
}

// Manager exposes the transaction manager (the PCD-only configuration needs
// every transaction's log at program end); nil before ProgramStart.
func (c *Checker) Manager() *txn.Manager { return c.mgr }
