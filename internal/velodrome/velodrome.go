// Package velodrome implements the Velodrome sound and precise dynamic
// conflict-serializability checker (Flanagan, Freund, Yi — PLDI 2008), the
// baseline the paper compares against (paper §2, §4 "Velodrome
// implementation").
//
// Velodrome tracks, for every field, the last transaction to write it and
// the last transaction of each thread to read it since that write. At every
// access it adds any implied cross-thread dependence edges to a transaction
// dependence graph and immediately checks for a cycle; a cycle is a sound
// and precise witness of a conflict-serializability violation. To keep the
// analysis and the access atomic in a racy program, the real implementation
// locks a metadata word around every access — the dominant cost the paper
// measures (82% of overhead) — which our cost model charges as
// Model.VeloSync per access.
//
// The unsound variant (paper §5.3) skips synchronization when the metadata
// would not change (current transaction already last writer/reader). In our
// deterministic interpreter the variant cannot actually miss dependences
// (every step is atomic), so it differs only in cost — precisely the point
// of comparing against it.
//
// The metadata is indexed the way DoubleChecker's per-field state is: the
// run's txn.Manager numbers each field densely (Manager.Var), a slice holds
// one cell per number, and each cell keeps its readers in a short slice
// sorted by thread. An access hashes its field once, in Var, and a write
// meets its readers in thread order without sorting them.
package velodrome

import (
	"slices"

	"doublechecker/internal/cost"
	"doublechecker/internal/graph"
	"doublechecker/internal/obs"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
)

// metadata is one field's last-access state: the last transaction to write
// it, and the last transaction of each thread to read it since that write,
// sorted by thread.
type metadata struct {
	lastWrite *txn.Txn
	lastReads []lastRead
}

// lastRead is one thread's last reader transaction of a field.
type lastRead struct {
	th vm.ThreadID
	tx *txn.Txn
}

// reader returns thread t's last reader transaction, or nil.
func (md *metadata) reader(t vm.ThreadID) *txn.Txn {
	for _, r := range md.lastReads {
		if r.th == t {
			return r.tx
		}
	}
	return nil
}

// setRead makes tx thread t's last reader, keeping the readers sorted by
// thread.
func (md *metadata) setRead(t vm.ThreadID, tx *txn.Txn) {
	i := 0
	for i < len(md.lastReads) && md.lastReads[i].th < t {
		i++
	}
	if i < len(md.lastReads) && md.lastReads[i].th == t {
		md.lastReads[i].tx = tx
		return
	}
	md.lastReads = slices.Insert(md.lastReads, i, lastRead{th: t, tx: tx})
}

// Stats counts checker activity.
type Stats struct {
	InstrumentedAccesses uint64
	EdgesAdded           uint64
	CycleChecks          uint64
	CycleNodesVisited    uint64
	SyncFastSkips        uint64 // unsound variant: accesses that skipped sync
	ViolationsDynamic    uint64
}

// Options configures a Checker.
type Options struct {
	// Unsound enables the no-sync-when-unchanged variant (§5.3).
	Unsound bool
	// InstrumentArrays includes array element accesses, conflating all
	// elements of an array in one metadata cell (§5.4).
	InstrumentArrays bool
	// DisableCycleDetection turns off online cycle checks for the §5.4
	// array experiment (element conflation makes detection imprecise, so
	// the paper turns it off there). The zero value detects cycles.
	DisableCycleDetection bool
	// Filter restricts instrumentation (used when Velodrome serves as the
	// second run of multi-run mode, §5.3). nil instruments everything.
	Filter *txn.Filter
	// GCPeriod runs transaction-graph collection every N instrumented
	// accesses; 0 uses the default (8192).
	GCPeriod uint64
	// Telemetry, when non-nil, receives the velo.gc phase span. The run's
	// counts stay in Stats; core publishes them when a run completes.
	Telemetry *telemetry.Registry
	// TraceSpan is the request-scoped parent under which the velo.gc phase
	// span also appears in the trace tree; the zero Span keeps it out.
	TraceSpan obs.Span
}

// Checker is a Velodrome instance; it implements vm.Instrumentation.
type Checker struct {
	vm.NopInst
	prog  *vm.Program
	meter *cost.Meter
	model cost.Model // the meter's prices, read once
	opts  Options
	mgr   *txn.Manager

	// meta holds each field's metadata, by the manager's Var. The field
	// numbers are the manager's, so meta starts empty with each manager.
	meta []metadata

	// skipping marks, by thread ID, threads currently inside an unmonitored
	// regular transaction (filtered out by opts.Filter).
	skipping []bool

	exec       vm.ExecView
	violations []txn.Violation
	stats      Stats
	sinceGC    uint64
}

// NewChecker returns a Velodrome checker. meter may be nil.
func NewChecker(prog *vm.Program, meter *cost.Meter, opts Options) *Checker {
	c := &Checker{
		prog:  prog,
		meter: meter,
		model: meter.Model(),
		opts:  opts,
	}
	if c.opts.GCPeriod == 0 {
		c.opts.GCPeriod = 8192
	}
	return c
}

// Violations returns the dynamic violations detected, in detection order.
func (c *Checker) Violations() []txn.Violation { return c.violations }

// Stats returns checker counters.
func (c *Checker) Stats() Stats { return c.stats }

// TxnStats returns the underlying transaction-manager counters (zero before
// ProgramStart).
func (c *Checker) TxnStats() txn.Stats {
	if c.mgr == nil {
		return txn.Stats{}
	}
	return c.mgr.Stats()
}

// ProgramStart implements vm.Instrumentation: it builds the run's
// transaction manager, and empties the metadata its field numbers index.
func (c *Checker) ProgramStart(e vm.ExecView) {
	c.exec = e
	c.mgr = txn.NewManager(false, e.Now, c.meter)
	c.meta = nil
}

// TxBegin implements vm.Instrumentation.
func (c *Checker) TxBegin(t vm.ThreadID, m vm.MethodID) {
	if !c.opts.Filter.TxSelected(m) {
		c.skipping = vm.Grow(c.skipping, int(t))
		c.skipping[t] = true
		return
	}
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

// ThreadExit implements vm.Instrumentation.
func (c *Checker) ThreadExit(t vm.ThreadID) { c.mgr.ThreadExit(t) }

// skips reports whether thread t is inside a filtered-out transaction.
func (c *Checker) skips(t vm.ThreadID) bool {
	return int(t) < len(c.skipping) && c.skipping[t]
}

// Access implements vm.Instrumentation: the Velodrome barrier.
func (c *Checker) Access(a vm.Access) {
	if c.skips(a.Thread) {
		return
	}
	inTx := c.exec != nil && c.exec.InTx(a.Thread)
	if !inTx && !c.opts.Filter.UnarySelected() {
		return
	}
	// Synchronization accesses use the object's dedicated header word
	// (paper §4), a field number apart from the object's data fields.
	field, sync := a.Field, a.Class == vm.ClassSync
	if a.Class == vm.ClassArray {
		if !c.opts.InstrumentArrays {
			return
		}
		// Array-level metadata: conflate all elements (paper §5.4).
		field = 0
	}

	c.stats.InstrumentedAccesses++
	v := c.mgr.Var(a.Obj, field, sync)
	c.meta = vm.Grow(c.meta, int(v))
	md := &c.meta[v]
	// If this access receives an incoming cross-thread edge, a merged unary
	// transaction must be cut first (see txn.Manager.EdgeSink).
	var cur *txn.Txn
	if c.incomingEdge(md, a) {
		cur = c.mgr.EdgeSink(a.Thread)
	} else {
		cur = c.mgr.Current(a.Thread)
	}

	// Analysis-access atomicity cost: the sound checker always pays the
	// metadata lock; the unsound variant pays it only when the metadata
	// actually changes.
	changes := c.metadataChanges(md, cur, a)
	if c.opts.Unsound && !changes {
		c.charge(c.model.VeloNoSyncPath)
		c.stats.SyncFastSkips++
	} else {
		c.charge(c.model.VeloSync)
	}

	if a.Write {
		c.write(md, cur, a.Seq)
	} else {
		c.read(md, cur, a.Seq)
	}
	c.mgr.Record(a.Thread, a.Obj, a.Field, a.Write, sync, a.Seq)

	c.sinceGC++
	if c.sinceGC >= c.opts.GCPeriod {
		c.sinceGC = 0
		c.collect()
	}
}

// metadataChanges mirrors the unsound variant's check (§5.3: skip
// synchronization when "the current transaction is already the last writer
// or reader"): a read whose last-reader entry is already cur, or a write
// whose last writer is cur with no foreign readers, leaves the metadata
// semantically unchanged.
func (c *Checker) metadataChanges(md *metadata, cur *txn.Txn, a vm.Access) bool {
	if a.Write {
		if md.lastWrite != cur {
			return true
		}
		for _, r := range md.lastReads {
			if r.th != a.Thread || r.tx != cur {
				return true
			}
		}
		return false
	}
	return md.reader(a.Thread) != cur
}

// incomingEdge reports whether this access will receive a cross-thread
// dependence edge (Figure 5's edge conditions).
func (c *Checker) incomingEdge(md *metadata, a vm.Access) bool {
	if md.lastWrite != nil && md.lastWrite.Thread != a.Thread {
		return true
	}
	if !a.Write {
		return false
	}
	for _, r := range md.lastReads {
		if r.th != a.Thread {
			return true
		}
	}
	return false
}

// read applies the READ rule of Figure 5.
func (c *Checker) read(md *metadata, cur *txn.Txn, seq uint64) {
	c.charge(c.model.VeloMetadata)
	if md.lastWrite != nil && md.lastWrite.Thread != cur.Thread {
		c.addEdge(md.lastWrite, cur, seq)
	}
	md.setRead(cur.Thread, cur)
}

// write applies the WRITE rule of Figure 5.
func (c *Checker) write(md *metadata, cur *txn.Txn, seq uint64) {
	c.charge(c.model.VeloMetadata)
	if md.lastWrite != nil && md.lastWrite.Thread != cur.Thread {
		c.addEdge(md.lastWrite, cur, seq)
	}
	// The readers' anti-dependence edges go in thread order. Each edge's
	// cycle check charges per visited node, and the edges added before it
	// decide what it visits, so the order fixes the metered cost.
	for _, r := range md.lastReads {
		if r.th != cur.Thread {
			c.addEdge(r.tx, cur, seq)
		}
	}
	md.lastWrite = cur
	clear(md.lastReads) // the backing array keeps no reader alive
	md.lastReads = md.lastReads[:0]
}

// addEdge inserts a cross-thread edge and immediately checks for a cycle
// through it (Velodrome detects cycles online, per edge).
func (c *Checker) addEdge(src, dst *txn.Txn, seq uint64) {
	if src == dst || src.EdgeTo(dst) != nil {
		return
	}
	c.mgr.AddCrossEdge(src, dst)
	c.stats.EdgesAdded++
	c.charge(c.model.VeloEdge)
	if c.opts.DisableCycleDetection {
		return
	}
	c.stats.CycleChecks++
	// The new edge src->dst closes a cycle iff dst reaches src; the
	// returned path dst -> ... -> src plus the new edge is the cycle.
	succ := func(t *txn.Txn) []*txn.Txn {
		c.stats.CycleNodesVisited++
		c.charge(c.model.VeloCycleNode)
		return t.Succs()
	}
	if path := graph.FindPath(dst, src, succ); path != nil {
		c.stats.ViolationsDynamic++
		c.violations = append(c.violations, txn.NewViolation(path, seq))
	}
}

// collect garbage-collects transactions unreachable from the metadata and
// thread-current roots.
func (c *Checker) collect() {
	span := c.opts.Telemetry.StartSpan(c.opts.TraceSpan, telemetry.SpanVeloGC, c.meter)
	defer span.End()
	var roots []*txn.Txn
	for i := range c.meta {
		md := &c.meta[i]
		if md.lastWrite != nil {
			roots = append(roots, md.lastWrite)
		}
		for _, r := range md.lastReads {
			roots = append(roots, r.tx)
		}
	}
	c.mgr.Collect(roots)
}

func (c *Checker) charge(u cost.Units) {
	if c.meter != nil {
		c.meter.Charge(u)
	}
}
