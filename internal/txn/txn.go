// Package txn provides the transaction infrastructure shared by all three
// checkers (Velodrome, ICD, PCD): transaction nodes and dependence edges,
// per-transaction read/write logs with on-the-fly duplicate elision
// (paper §4, "Instrumenting program accesses"), the unary-transaction
// merging optimization (§4, originally from Velodrome), and the
// reachability-based collection of dead transactions that stands in for the
// paper's weak-reference treatment (§4, §6).
package txn

import (
	"fmt"

	"doublechecker/internal/cost"
	"doublechecker/internal/vm"
)

// Modelled sizes (bytes) for the memory accounting that drives the GC cost
// model: a transaction object, one log entry, one edge.
const (
	txnBytes   = 96
	entryBytes = 16
	edgeBytes  = 40
	occBytes   = 8
)

// Txn is one dynamic transaction: a regular transaction (an atomic region
// execution) or a unary transaction (a maximal run of non-transactional
// accesses uninterrupted by cross-thread communication).
type Txn struct {
	ID       uint64
	Thread   vm.ThreadID
	Method   vm.MethodID // NoMethod for unary transactions
	Unary    bool
	StartSeq uint64
	EndSeq   uint64
	Finished bool

	// Out holds this transaction's outgoing dependence edges (intra-thread
	// program-order edges and cross-thread edges), deduplicated by target.
	Out []*Edge
	out map[*Txn]*Edge

	// Log is the transaction's ordered read/write log (only when the
	// manager logs). Seq values are the VM's global access sequence.
	Log []LogEntry
	// Marks are the edge-occurrence log entries (only when logging).
	Marks []Mark

	accesses    int  // accesses recorded (independent of log elision)
	interrupted bool // a cross-thread edge touched this (unary) transaction
	marked      bool // GC scratch
	dead        bool
	finIn       bool // has an incoming edge whose source has finished
}

// Accesses returns how many accesses executed in this transaction
// (regardless of log elision or whether logging is enabled).
func (t *Txn) Accesses() int { return t.accesses }

// String renders the transaction compactly for reports.
func (t *Txn) String() string {
	kind := "tx"
	if t.Unary {
		kind = "unary"
	}
	return fmt.Sprintf("%s#%d(t%d,m%d)", kind, t.ID, t.Thread, t.Method)
}

// Succs returns the distinct successor transactions.
func (t *Txn) Succs() []*Txn {
	succs := make([]*Txn, 0, len(t.Out))
	for _, e := range t.Out {
		succs = append(succs, e.Dst)
	}
	return succs
}

// EdgeTo returns the edge from t to dst, or nil.
func (t *Txn) EdgeTo(dst *Txn) *Edge {
	return t.out[dst]
}

// Interrupted reports whether a cross-thread edge has touched this
// transaction (which prevents merging subsequent unary accesses into it).
func (t *Txn) Interrupted() bool { return t.interrupted }

// FinishedInEdge reports whether any incoming dependence edge's source has
// finished. The manager maintains the flag monotonically (stamped when an
// edge arrives from an already-finished source, and when a source finishes,
// over its out-edges). ICD's deferred detection uses it as a sound quick
// reject: a cycle through t among finished transactions needs an eligible
// incoming edge as well as an eligible outgoing one.
func (t *Txn) FinishedInEdge() bool { return t.finIn }

// Edge is a dependence edge between two transactions. Multiple dynamic
// dependences between the same pair share one Edge; when logging is
// enabled, each occurrence additionally leaves a pair of Marks in the two
// transactions' logs (paper §3.2.4: "The read/write log has special entries
// that correspond to incoming and outgoing cross-thread edges").
type Edge struct {
	Src, Dst *Txn
	Cross    bool   // false for intra-thread program-order edges
	Order    uint64 // creation order of the first occurrence (blame assignment)
}

// Mark is an edge occurrence's "special log entry". A mark's position among
// its transaction's log entries is given by Seq (entries and marks of one
// transaction are totally ordered by Seq, with marks sorting before an
// equal-Seq entry because the barrier fires before the access is logged).
// The in-mark and its matching out-mark share the same Seq, which is how
// PCD's edge-based replay pairs them without any global clock semantics:
// Seq is only ever compared within a transaction or between a paired
// in/out mark.
type Mark struct {
	In    bool // incoming edge mark (sink side) vs outgoing (source side)
	Other *Txn // the peer transaction
	Seq   uint64
}

// LogEntry is one recorded access.
type LogEntry struct {
	Obj   vm.ObjectID
	Field vm.FieldID
	Write bool
	Sync  bool // synchronization access (lock/handle object)
	Seq   uint64
}

func (e LogEntry) String() string {
	rw := "rd"
	if e.Write {
		rw = "wr"
	}
	return fmt.Sprintf("%s o%d.%d@%d", rw, e.Obj, e.Field, e.Seq)
}

// Stats counts manager activity.
type Stats struct {
	RegularTxns uint64
	UnaryTxns   uint64
	CrossEdges  uint64 // distinct cross-thread edges
	CrossOccs   uint64 // dynamic cross-thread dependence occurrences
	IntraEdges  uint64
	LogEntries  uint64
	LogElided   uint64
	Collections uint64
	Swept       uint64
}

// fieldKey identifies a field for elision metadata.
type fieldKey struct {
	obj   vm.ObjectID
	field vm.FieldID
}

// lastAccess is the per-(field, thread) elision timestamp (paper §4: "ICD
// tracks, for each field, the value of a per-thread timestamp of the last
// access (and whether it was a read or write)").
type lastAccess struct {
	ts    uint64
	wrote bool
}

// Manager creates transactions, maintains per-thread currents, adds edges,
// records logs, and collects dead transactions.
type Manager struct {
	logging bool
	meter   *cost.Meter
	clock   func() uint64 // global step clock (vm.Exec.Now)

	current []*Txn // each thread's latest transaction, by thread ID
	all     []*Txn
	nextID  uint64
	edgeSeq uint64

	// onFinish is invoked whenever a transaction finishes (regular end, or
	// a unary transaction being retired). ICD triggers SCC detection here.
	onFinish func(*Txn)
	// onIntraEdge is invoked for each program-order edge created between
	// consecutive transactions of a thread (cycle engines that mirror the
	// graph need them as well as the cross edges they add themselves).
	onIntraEdge func(src, dst *Txn)
	// onSweep is invoked for each transaction swept by Collect, before its
	// storage is reclaimed (incremental detection engines drop their node
	// state here).
	onSweep func(*Txn)

	noElide bool
	noMerge bool
	recycle bool

	// Free lists for the recycling mode: swept transaction nodes and edge
	// objects are reused instead of handed to the runtime GC, keeping the
	// non-logging hot path allocation-free in the steady state. Retire hands
	// them, with every node and edge still live, to the next run's manager
	// (Adopt). The modelled cost accounting (alloc/Free) is unchanged —
	// recycling saves real allocations, not modelled bytes.
	freeTxns  []*Txn
	freeEdges []*Edge
	gcStack   []*Txn // Collect's mark-stack scratch, reused across collections

	elide    map[fieldKey]map[vm.ThreadID]*lastAccess
	threadTS map[vm.ThreadID]uint64

	stats Stats
}

// NewManager returns a Manager. logging enables read/write logs (single-run
// mode and the second run of multi-run mode). clock supplies the global
// step clock; meter may be nil.
func NewManager(logging bool, clock func() uint64, meter *cost.Meter) *Manager {
	if clock == nil {
		var n uint64
		clock = func() uint64 { n++; return n }
	}
	return &Manager{
		logging:  logging,
		meter:    meter,
		clock:    clock,
		elide:    make(map[fieldKey]map[vm.ThreadID]*lastAccess),
		threadTS: make(map[vm.ThreadID]uint64),
	}
}

// OnFinish registers the finished-transaction callback.
func (m *Manager) OnFinish(f func(*Txn)) { m.onFinish = f }

// OnIntraEdge registers a callback fired for every intra-thread
// program-order edge the manager creates.
func (m *Manager) OnIntraEdge(f func(src, dst *Txn)) { m.onIntraEdge = f }

// OnSweep registers a callback fired for every transaction Collect sweeps,
// before the transaction's storage is reclaimed.
func (m *Manager) OnSweep(f func(*Txn)) { m.onSweep = f }

// EnableRecycling turns on free-list reuse of swept transaction nodes and
// edge objects. Only safe when nothing retains *Txn or *Edge pointers past a
// Collect: the checker must not be logging (PCD replays hold logs) and must
// not hand SCCs or violations onward (violations retain their cycle's
// transactions). ICD's non-logging first run — the configuration whose whole
// point is a minimal hot path (§3.1) — satisfies both.
func (m *Manager) EnableRecycling() { m.recycle = true }

// Spares is a recycling manager's storage carried from one run to the next:
// transaction nodes, each keeping its emptied edge map, and edge objects.
type Spares struct {
	txns  []*Txn
	edges []*Edge
}

// Retire ends a recycling manager's run and hands over its storage: every
// transaction, live or already swept, and every edge join the returned
// Spares, for a later manager's Adopt. Afterwards no transaction or edge of
// this run may be used, and the manager answers only Stats. Retire panics
// unless EnableRecycling was called: without it, transactions may be
// retained past the run.
func (m *Manager) Retire() Spares {
	if !m.recycle {
		panic("txn: Retire without EnableRecycling")
	}
	for _, tx := range m.all {
		m.freeEdges = append(m.freeEdges, tx.Out...)
		m.freeTxns = append(m.freeTxns, tx)
	}
	sp := Spares{txns: m.freeTxns, edges: m.freeEdges}
	m.all, m.freeTxns, m.freeEdges = nil, nil, nil
	clear(m.current)
	return sp
}

// Adopt installs storage a retired manager handed over as this manager's
// free lists. Call it on a fresh manager, after EnableRecycling.
func (m *Manager) Adopt(sp Spares) {
	m.freeTxns, m.freeEdges = sp.txns, sp.edges
}

// DisableElision turns off read/write-log duplicate elision (ablation of
// the paper's §4 optimization).
func (m *Manager) DisableElision() { m.noElide = true }

// DisableUnaryMerging makes every non-transactional access its own unary
// transaction (ablation of the merging optimization the paper reuses from
// Velodrome).
func (m *Manager) DisableUnaryMerging() { m.noMerge = true }

// Logging reports whether read/write logs are recorded.
func (m *Manager) Logging() bool { return m.logging }

// Stats returns a copy of the manager's counters.
func (m *Manager) Stats() Stats { return m.stats }

// Live returns the number of uncollected transactions.
func (m *Manager) Live() int { return len(m.all) }

// cur returns thread t's latest transaction, or nil before its first.
func (m *Manager) cur(t vm.ThreadID) *Txn {
	if int(t) < len(m.current) {
		return m.current[t]
	}
	return nil
}

// setCur makes tx thread t's latest transaction.
func (m *Manager) setCur(t vm.ThreadID, tx *Txn) {
	for int(t) >= len(m.current) {
		m.current = append(m.current, nil)
	}
	m.current[t] = tx
}

func (m *Manager) alloc(bytes int64) {
	if m.meter != nil {
		m.meter.Alloc(bytes)
	}
}

func (m *Manager) newTxn(t vm.ThreadID, method vm.MethodID, unary bool) *Txn {
	m.nextID++
	var tx *Txn
	if n := len(m.freeTxns); n > 0 {
		tx = m.freeTxns[n-1]
		m.freeTxns = m.freeTxns[:n-1]
		out, outs := tx.out, tx.Out[:0]
		clear(out)
		*tx = Txn{out: out, Out: outs}
	} else {
		tx = &Txn{out: make(map[*Txn]*Edge)}
	}
	tx.ID = m.nextID
	tx.Thread = t
	tx.Method = method
	tx.Unary = unary
	tx.StartSeq = m.clock()
	m.all = append(m.all, tx)
	m.alloc(txnBytes)
	m.threadTS[t]++
	if unary {
		m.stats.UnaryTxns++
	} else {
		m.stats.RegularTxns++
	}
	return tx
}

// finish marks tx finished and fires the callback.
func (m *Manager) finish(tx *Txn) {
	if tx == nil || tx.Finished {
		return
	}
	tx.Finished = true
	tx.EndSeq = m.clock()
	// Stamp successors: each now has an incoming edge from a finished
	// transaction (see Txn.FinishedInEdge).
	for _, e := range tx.Out {
		e.Dst.finIn = true
	}
	if m.onFinish != nil {
		m.onFinish(tx)
	}
}

// BeginRegular starts a regular transaction for thread t executing atomic
// method meth, retiring t's current unary transaction if any, and linking
// program order.
func (m *Manager) BeginRegular(t vm.ThreadID, meth vm.MethodID) *Txn {
	prev := m.cur(t)
	tx := m.newTxn(t, meth, false)
	if prev != nil {
		m.addIntraEdge(prev, tx)
		if prev.Unary {
			m.finish(prev)
		}
	}
	m.setCur(t, tx)
	return tx
}

// EndRegular finishes thread t's current regular transaction. The thread's
// next access will begin a fresh unary transaction.
func (m *Manager) EndRegular(t vm.ThreadID) {
	tx := m.cur(t)
	if tx == nil || tx.Unary {
		panic(fmt.Sprintf("txn: EndRegular(t%d) with current %v", t, tx))
	}
	m.finish(tx)
	// Keep tx as "current" for edge-sourcing purposes until the next
	// access creates a unary transaction; mark it so Current knows.
	m.setCur(t, tx)
}

// Current returns thread t's current transaction for edge sourcing/sinking,
// creating a unary transaction on demand. Consecutive unary accesses merge
// into one unary transaction until a cross-thread edge interrupts it
// (paper §4's reuse of Velodrome's optimization).
func (m *Manager) Current(t vm.ThreadID) *Txn {
	tx := m.cur(t)
	switch {
	case tx == nil:
		tx = m.newTxn(t, vm.NoMethod, true)
		m.setCur(t, tx)
	case tx.Finished || (tx.Unary && tx.interrupted) || (m.noMerge && tx.Unary && tx.accesses > 0):
		prev := tx
		tx = m.newTxn(t, vm.NoMethod, true)
		m.addIntraEdge(prev, tx)
		if prev.Unary {
			m.finish(prev)
		}
		m.setCur(t, tx)
	}
	return tx
}

// ThreadExit retires thread t's current transaction. The reference is kept:
// an exited thread can still be the responder of an Octet conflicting
// transition (its objects remain in its exclusive states), and the edge
// source for that is its last transaction.
func (m *Manager) ThreadExit(t vm.ThreadID) {
	if tx := m.cur(t); tx != nil && !tx.Finished {
		m.finish(tx)
	}
}

// EdgeSource returns thread t's transaction for sourcing a dependence edge:
// its current transaction, which may already be finished (the paper's
// currTX(T) likewise refers to T's latest transaction when T sits between
// transactions or has exited). Unlike Current, EdgeSource never creates a
// transaction; it returns nil for a thread that never ran one.
func (m *Manager) EdgeSource(t vm.ThreadID) *Txn { return m.cur(t) }

// EdgeSink returns the transaction that an incoming cross-thread edge for
// thread t's in-flight access should target. For a regular transaction this
// is simply the current transaction. For a unary transaction that has
// already merged earlier accesses, the merge must be cut FIRST: the merging
// optimization is only valid for runs of accesses uninterrupted by
// cross-thread edges, so the access now receiving a dependence starts a
// fresh unary transaction. (Deferring the split to the next access — easy to
// get wrong — both manufactures false cycles through over-merged unaries and
// hides real ones behind backward in/out positions.)
//
// Checkers must call EdgeSink before recording the access itself, so the
// fresh transaction has Accesses() == 0 and further edges for the same
// access reuse it.
func (m *Manager) EdgeSink(t vm.ThreadID) *Txn {
	cur := m.Current(t)
	if !cur.Unary || cur.accesses == 0 {
		return cur
	}
	fresh := m.newTxn(t, vm.NoMethod, true)
	m.addIntraEdge(cur, fresh)
	m.finish(cur)
	m.setCur(t, fresh)
	return fresh
}

func (m *Manager) addIntraEdge(src, dst *Txn) {
	if src == dst {
		return
	}
	if e := src.out[dst]; e != nil {
		return
	}
	m.newEdge(src, dst, false)
	m.stats.IntraEdges++
	m.alloc(edgeBytes)
	if m.onIntraEdge != nil {
		m.onIntraEdge(src, dst)
	}
}

// AddCrossEdge records a cross-thread dependence edge src -> dst. When
// logging, the occurrence is annotated with the current log lengths of both
// transactions, which tells PCD where in each log the dependence fell. The
// edge interrupts unary merging on both endpoint threads and bumps their
// elision timestamps. Self edges (src == dst) are ignored. It returns the
// Edge (nil for self edges).
func (m *Manager) AddCrossEdge(src, dst *Txn) *Edge {
	if src == nil || dst == nil || src == dst {
		return nil
	}
	m.stats.CrossOccs++
	m.bumpTS(src)
	m.bumpTS(dst)
	if src.Unary {
		src.interrupted = true
	}
	if dst.Unary {
		dst.interrupted = true
	}
	e := src.out[dst]
	if e == nil {
		e = m.newEdge(src, dst, true)
		m.stats.CrossEdges++
		m.alloc(edgeBytes)
	}
	if m.logging {
		seq := m.clock()
		src.Marks = append(src.Marks, Mark{In: false, Other: dst, Seq: seq})
		dst.Marks = append(dst.Marks, Mark{In: true, Other: src, Seq: seq})
		m.alloc(2 * occBytes)
	}
	return e
}

// newEdge allocates (or recycles) an edge src -> dst and links it into
// src's adjacency.
func (m *Manager) newEdge(src, dst *Txn, cross bool) *Edge {
	m.edgeSeq++
	var e *Edge
	if n := len(m.freeEdges); n > 0 {
		e = m.freeEdges[n-1]
		m.freeEdges = m.freeEdges[:n-1]
	} else {
		e = new(Edge)
	}
	*e = Edge{Src: src, Dst: dst, Cross: cross, Order: m.edgeSeq}
	src.out[dst] = e
	src.Out = append(src.Out, e)
	if src.Finished {
		// A finished source never re-fires finish's successor stamping, so
		// the edge stamps its sink directly (see Txn.FinishedInEdge).
		dst.finIn = true
	}
	return e
}

// bumpTS invalidates elision windows for the owning thread when its current
// transaction communicates.
func (m *Manager) bumpTS(tx *Txn) {
	if m.cur(tx.Thread) == tx {
		m.threadTS[tx.Thread]++
	}
}

// Record appends an access to thread t's current transaction's log (if
// logging), applying duplicate elision, and returns the transaction. sync
// marks synchronization accesses.
func (m *Manager) Record(t vm.ThreadID, obj vm.ObjectID, field vm.FieldID, write, sync bool, seq uint64) *Txn {
	tx := m.Current(t)
	tx.accesses++
	if !m.logging {
		return tx
	}
	if m.noElide {
		tx.Log = append(tx.Log, LogEntry{Obj: obj, Field: field, Write: write, Sync: sync, Seq: seq})
		m.stats.LogEntries++
		m.alloc(entryBytes)
		if m.meter != nil {
			m.meter.Charge(m.meter.Model().LogAppend)
		}
		return tx
	}
	key := fieldKey{obj, field}
	perThread := m.elide[key]
	if perThread == nil {
		perThread = make(map[vm.ThreadID]*lastAccess)
		m.elide[key] = perThread
	}
	la := perThread[t]
	cur := m.threadTS[t]
	if la != nil && la.ts == cur && (!write || la.wrote) {
		// Same elision window and no new information: a read is covered by
		// any prior recorded access; a write is covered by a prior write.
		m.stats.LogElided++
		if m.meter != nil {
			m.meter.Charge(m.meter.Model().LogElide)
		}
		return tx
	}
	if la == nil {
		la = &lastAccess{}
		perThread[t] = la
	}
	if la.ts == cur {
		la.wrote = la.wrote || write
	} else {
		la.wrote = write
	}
	la.ts = cur
	tx.Log = append(tx.Log, LogEntry{Obj: obj, Field: field, Write: write, Sync: sync, Seq: seq})
	m.stats.LogEntries++
	m.alloc(entryBytes)
	if m.meter != nil {
		m.meter.Charge(m.meter.Model().LogAppend)
	}
	return tx
}

// Collect sweeps transactions that can never participate in a future cycle:
// those not forward-reachable from the root set (each thread's current
// transaction plus any checker-supplied roots such as lastRdEx, gLastRdSh,
// and per-field metadata references). Returns the number swept.
//
// Soundness: every future edge's sink is some thread's current transaction,
// so the forward-reachable set of retired transactions only shrinks over
// time; a transaction unreachable now can never be visited by a future
// cycle search or SCC computation (all of which start from root-adjacent
// transactions).
func (m *Manager) Collect(extraRoots []*Txn) int {
	m.stats.Collections++
	stack := m.gcStack[:0]
	mark := func(tx *Txn) {
		if tx != nil && !tx.marked {
			tx.marked = true
			stack = append(stack, tx)
		}
	}
	for _, tx := range m.current {
		mark(tx)
	}
	for _, tx := range extraRoots {
		mark(tx)
	}
	for len(stack) > 0 {
		tx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range tx.Out {
			mark(e.Dst)
		}
	}
	kept := m.all[:0]
	swept := 0
	for _, tx := range m.all {
		if tx.marked {
			tx.marked = false
			kept = append(kept, tx)
			continue
		}
		swept++
		tx.dead = true
		if m.onSweep != nil {
			m.onSweep(tx)
		}
		if m.meter != nil {
			m.meter.Free(txnBytes +
				entryBytes*int64(len(tx.Log)) +
				edgeBytes*int64(len(tx.Out)) +
				occBytes*int64(len(tx.Marks)))
		}
		if m.recycle {
			// Components die whole (mutual reachability), so nothing live
			// can still point at these nodes or their edges: reuse them.
			for _, e := range tx.Out {
				*e = Edge{}
				m.freeEdges = append(m.freeEdges, e)
			}
			tx.Out = tx.Out[:0]
			tx.Log = nil
			tx.Marks = nil
			m.freeTxns = append(m.freeTxns, tx)
		} else {
			tx.Log = nil
			tx.Marks = nil
			tx.Out = nil
			tx.out = nil
		}
	}
	m.all = kept
	m.stats.Swept += uint64(swept)
	m.gcStack = stack
	return swept
}

// Dead reports whether the transaction was swept by Collect.
func (t *Txn) Dead() bool { return t.dead }

// All returns the live (uncollected) transactions, in creation order. The
// PCD-only straw-man configuration (§5.4) uses this to hand the entire
// execution to the precise analysis.
func (m *Manager) All() []*Txn {
	out := make([]*Txn, len(m.all))
	copy(out, m.all)
	return out
}
