// Package pcd implements DoubleChecker's precise cycle detection analysis
// (paper §3.3).
//
// PCD is not a standalone dynamic analysis: it consumes, for each SCC that
// ICD reports, (1) the set of transactions, (2) their read/write logs, and
// (3) the cross-thread IDG edges recorded relative to log entries. It
// "replays" that slice of the execution, rebuilding precise per-field
// last-access information — W(f), the last transaction to write f, and
// R(T,f), the last transaction of each thread T to read f — and adds
// precise dependence edges to a precise dependence graph (PDG) using the
// rules of the paper's Figure 5. A cycle in the PDG is a real conflict
// serializability violation; blame assignment (§3.3) marks the
// transaction(s) that completed each cycle.
//
// Two replay orders are implemented. ReplayBySeq uses the VM's global access
// clock, which is exact. ReplayByEdges reconstructs an order purely from the
// per-transaction log order plus the edge-relative positions ICD recorded —
// what the paper's implementation must do, since a JVM has no global access
// clock. Both orders are consistent with the actual execution, so they find
// the same cycles; a property test asserts that.
package pcd

import (
	"fmt"
	"sort"

	"doublechecker/internal/cost"
	"doublechecker/internal/graph"
	"doublechecker/internal/obs"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
)

// ReplayOrder selects how PCD linearizes the SCC's log entries.
type ReplayOrder int

const (
	// BySeq replays in global access-clock order (exact).
	BySeq ReplayOrder = iota
	// ByEdges replays in an order reconstructed from log positions and
	// edge-relative coordinates (paper-faithful).
	ByEdges
)

// Stats counts PCD activity.
type Stats struct {
	SCCsProcessed   uint64
	TxnsProcessed   uint64 // SCC members fed to Process (re-reports included)
	DistinctTxns    uint64 // distinct transactions ever sent to PCD
	EntriesReplayed uint64
	PDGEdges        uint64
	CycleChecks     uint64
	PreciseCycles   uint64 // dynamic precise cycles (pre-dedup)
}

// tel holds pre-resolved telemetry handles (nil when no registry attached).
type tel struct {
	sccs     *telemetry.Counter
	txns     *telemetry.Counter
	txnsSent *telemetry.Counter
	entries  *telemetry.Counter
	edges    *telemetry.Counter
	cycles   *telemetry.Counter
	fieldMap *telemetry.Histogram
}

// Checker is a PCD instance. It is fed SCCs by ICD (via core) and
// accumulates precise violations.
type Checker struct {
	meter *cost.Meter
	order ReplayOrder

	violations []txn.Violation
	seen       map[string]bool     // cycle identity (sorted txn IDs) dedup
	seenTxns   map[uint64]struct{} // distinct txn IDs sent to PCD
	stats      Stats
	reg        *telemetry.Registry // nil: no metrics, phase spans trace only
	tel        *tel
	tspan      obs.Span // request-scoped parent for pcd.replay spans
	tempBytes  int64    // live replay temporaries (released per Process)
}

// SetTelemetry attaches a registry: Process then records live counters, the
// per-field map-size histogram, and the pcd.replay / pcd.blame phase spans.
func (c *Checker) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.reg = reg
	c.tel = &tel{
		sccs:     reg.Counter(telemetry.PCDSCCs),
		txns:     reg.Counter(telemetry.PCDTxns),
		txnsSent: reg.Counter(telemetry.PCDTxnsSent),
		entries:  reg.Counter(telemetry.PCDEntries),
		edges:    reg.Counter(telemetry.PCDEdges),
		cycles:   reg.Counter(telemetry.PCDCycles),
		fieldMap: reg.Histogram(telemetry.PCDFieldMap, telemetry.MapSizeBuckets),
	}
}

// SetTraceSpan attaches a request-scoped parent span: each SCC's pcd.replay
// phase span — and the pcd.blame spans nested in it — then also appear in
// the trace tree. The zero Span (the default) keeps them out.
func (c *Checker) SetTraceSpan(sp obs.Span) { c.tspan = sp }

// tempAlloc meters a replay-temporary allocation.
func (c *Checker) tempAlloc(n int64) {
	c.tempBytes += n
	if c.meter != nil {
		c.meter.Alloc(n)
	}
}

// NewChecker returns a PCD checker using the given replay order; meter may
// be nil.
func NewChecker(meter *cost.Meter, order ReplayOrder) *Checker {
	return &Checker{
		meter:    meter,
		order:    order,
		seen:     make(map[string]bool),
		seenTxns: make(map[uint64]struct{}),
	}
}

// Violations returns the distinct precise violations found so far.
func (c *Checker) Violations() []txn.Violation { return c.violations }

// Stats returns PCD counters.
func (c *Checker) Stats() Stats { return c.stats }

func (c *Checker) charge(u cost.Units) {
	if c.meter != nil {
		c.meter.Charge(u)
	}
}

func (c *Checker) model() cost.Model {
	if c.meter != nil {
		return c.meter.Model()
	}
	return cost.Model{}
}

// entryRef locates one log entry during replay.
type entryRef struct {
	tx  *txn.Txn
	idx int
}

// fieldKey is PCD's per-field metadata key; sync accesses use a separate
// metadata space (they model the paper's per-object lock-release word).
type fieldKey struct {
	obj   vm.ObjectID
	field vm.FieldID
	sync  bool
}

// pdg is the precise dependence graph over one Process invocation.
type pdg struct {
	adj   map[*txn.Txn]map[*txn.Txn]uint64 // -> edge order (first occurrence)
	succs map[*txn.Txn][]*txn.Txn
}

func newPDG() *pdg {
	return &pdg{
		adj:   make(map[*txn.Txn]map[*txn.Txn]uint64),
		succs: make(map[*txn.Txn][]*txn.Txn),
	}
}

// add inserts an edge with the given order if absent; reports whether it was
// new.
func (g *pdg) add(src, dst *txn.Txn, order uint64) bool {
	if src == dst {
		return false
	}
	m := g.adj[src]
	if m == nil {
		m = make(map[*txn.Txn]uint64)
		g.adj[src] = m
	}
	if _, ok := m[dst]; ok {
		return false
	}
	m[dst] = order
	g.succs[src] = append(g.succs[src], dst)
	return true
}

func (g *pdg) order(src, dst *txn.Txn) (uint64, bool) {
	o, ok := g.adj[src][dst]
	return o, ok
}

// segState tracks the current PDG node ("segment") of one replayed
// transaction. Regular transactions are a single node. Unary transactions
// are re-split during replay: ICD merged their accesses based on the
// imprecise IDG edges, but the merging optimization is only valid between
// accesses uninterrupted by edges — judged precisely here. An incoming
// precise edge therefore starts a fresh segment, restoring exactly the
// partition a fully precise online analysis (Velodrome) would have used.
// Without this, a merged unary can manufacture a cycle that the singleton
// ground truth does not have.
type segState struct {
	node  *txn.Txn
	count int // entries replayed into node
	idx   int // segment index (for deterministic synthetic IDs)
}

// Process replays one SCC and records any precise violations. It returns
// the violations newly found in this SCC (already added to Violations).
func (c *Checker) Process(scc []*txn.Txn) []txn.Violation {
	c.stats.SCCsProcessed++
	c.stats.TxnsProcessed += uint64(len(scc))
	span := c.reg.StartSpan(c.tspan, telemetry.SpanPCDReplay, c.meter)
	defer span.End()
	span.SetInt("scc_txns", int64(len(scc)))
	if c.tel != nil {
		c.tel.sccs.Inc()
		c.tel.txns.Add(uint64(len(scc)))
	}

	inSCC := make(map[*txn.Txn]bool, len(scc))
	for _, tx := range scc {
		inSCC[tx] = true
		if _, ok := c.seenTxns[tx.ID]; !ok {
			c.seenTxns[tx.ID] = struct{}{}
			c.stats.DistinctTxns++
			if c.tel != nil {
				c.tel.txnsSent.Inc()
			}
		}
	}

	var entries []entryRef
	switch c.order {
	case ByEdges:
		entries = orderByEdges(scc, inSCC)
	default:
		entries = orderBySeq(scc)
	}

	// Replay temporaries (the ordered entry list, the PDG, last-access
	// maps) are real allocations made while every input log is still live;
	// for a giant SCC — above all the PCD-only straw man's whole-execution
	// replay — this heap spike is what drives GC cost and the paper's
	// out-of-memory failures. The temporaries are released when Process
	// returns.
	c.tempBytes = 0
	defer func() {
		if c.meter != nil {
			c.meter.Free(c.tempBytes)
		}
		c.tempBytes = 0
	}()
	c.tempAlloc(24 * int64(len(entries)))

	g := newPDG()
	segs := make(map[*txn.Txn]*segState, len(scc))
	seg := func(tx *txn.Txn) *segState {
		st := segs[tx]
		if st == nil {
			st = &segState{node: tx}
			segs[tx] = st
		}
		return st
	}
	// threadChain tracks each thread's most recent replayed node, to add
	// intra-thread program-order edges lazily (same-thread transactions
	// never overlap, so replay order visits them sequentially).
	threadChain := make(map[vm.ThreadID]*txn.Txn)

	// Last-access information (Figure 5), holding segment nodes.
	lastWrite := make(map[fieldKey]*txn.Txn)
	lastReads := make(map[fieldKey]map[vm.ThreadID]*txn.Txn)

	model := c.model()
	var found []txn.Violation
	for _, ref := range entries {
		e := ref.tx.Log[ref.idx]
		c.stats.EntriesReplayed++
		c.charge(model.PCDPerEntry)
		key := fieldKey{obj: e.Obj, field: e.Field, sync: e.Sync}
		st := seg(ref.tx)

		// Will this entry receive a cross-thread edge?
		incoming := false
		if w := lastWrite[key]; w != nil && w.Thread != ref.tx.Thread {
			incoming = true
		}
		if e.Write && !incoming {
			for t := range lastReads[key] {
				if t != ref.tx.Thread {
					incoming = true
					break
				}
			}
		}
		if incoming && ref.tx.Unary && st.count > 0 {
			// Cut the merged unary: fresh segment node.
			st.idx++
			fresh := &txn.Txn{
				ID:       ref.tx.ID<<16 | uint64(st.idx),
				Thread:   ref.tx.Thread,
				Method:   ref.tx.Method,
				Unary:    true,
				StartSeq: e.Seq,
				Finished: true,
			}
			g.add(st.node, fresh, e.Seq)
			st.node = fresh
			st.count = 0
		}
		cur := st.node

		// Intra-thread program order.
		if prev := threadChain[ref.tx.Thread]; prev != nil && prev != cur {
			g.add(prev, cur, e.Seq)
		}
		threadChain[ref.tx.Thread] = cur

		if e.Write {
			if w := lastWrite[key]; w != nil && w.Thread != cur.Thread {
				found = c.addPDGEdge(span.Trace(), g, w, cur, e.Seq, found)
			}
			// Readers in thread order: a write racing several readers inserts
			// its anti-dependence edges — and so detects cycles — in a fixed
			// sequence, keeping replay deterministic (map iteration is not).
			for _, t := range sortedThreads(lastReads[key]) {
				if t != cur.Thread {
					found = c.addPDGEdge(span.Trace(), g, lastReads[key][t], cur, e.Seq, found)
				}
			}
			lastWrite[key] = cur
			delete(lastReads, key)
		} else {
			if w := lastWrite[key]; w != nil && w.Thread != cur.Thread {
				found = c.addPDGEdge(span.Trace(), g, w, cur, e.Seq, found)
			}
			m := lastReads[key]
			if m == nil {
				m = make(map[vm.ThreadID]*txn.Txn)
				lastReads[key] = m
			}
			m[cur.Thread] = cur
		}
		st.count++
	}
	if c.tel != nil {
		c.tel.entries.Add(uint64(len(entries)))
		// The live per-field metadata at end of replay: W(f) plus R(T,f)
		// key sets — the heap spike §3.3's replay pays for.
		c.tel.fieldMap.Observe(uint64(len(lastWrite) + len(lastReads)))
	}
	return found
}

// addPDGEdge inserts a precise dependence edge and checks for a cycle
// through it. replay is the trace handle of the enclosing pcd.replay span,
// the parent of a found cycle's pcd.blame span.
func (c *Checker) addPDGEdge(replay obs.Span, g *pdg, src, dst *txn.Txn, seq uint64, found []txn.Violation) []txn.Violation {
	if !g.add(src, dst, seq) {
		return found
	}
	c.stats.PDGEdges++
	if c.tel != nil {
		c.tel.edges.Inc()
	}
	c.tempAlloc(64)
	c.charge(c.model().PCDPerEdge)
	c.stats.CycleChecks++
	model := c.model()
	succ := func(t *txn.Txn) []*txn.Txn {
		c.charge(model.PCDCycleNode)
		return g.succs[t]
	}
	path := graph.FindPath(dst, src, succ)
	if path == nil {
		return found
	}
	c.stats.PreciseCycles++
	if c.tel != nil {
		c.tel.cycles.Inc()
	}
	key := cycleKey(path)
	if c.seen[key] {
		return found
	}
	c.seen[key] = true
	// Blame charges no cost units, so its span carries no meter.
	blame := c.reg.StartSpan(replay, telemetry.SpanPCDBlame, nil)
	v := txn.NewViolationWith(path, seq, g.order)
	blame.End()
	c.violations = append(c.violations, v)
	return append(found, v)
}

// sortedThreads returns a reader map's thread keys in ascending order.
func sortedThreads(m map[vm.ThreadID]*txn.Txn) []vm.ThreadID {
	if len(m) == 0 {
		return nil
	}
	ts := make([]vm.ThreadID, 0, len(m))
	for t := range m {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

// cycleKey builds a canonical identity for a cycle: its sorted member IDs.
func cycleKey(cycle []*txn.Txn) string {
	ids := make([]uint64, len(cycle))
	for i, tx := range cycle {
		ids[i] = tx.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	key := ""
	for _, id := range ids {
		key += fmt.Sprintf("%d,", id)
	}
	return key
}

// orderBySeq sorts all log entries of the SCC by the global access clock.
func orderBySeq(scc []*txn.Txn) []entryRef {
	var refs []entryRef
	for _, tx := range scc {
		for i := range tx.Log {
			refs = append(refs, entryRef{tx, i})
		}
	}
	sort.Slice(refs, func(i, j int) bool {
		return refs[i].tx.Log[refs[i].idx].Seq < refs[j].tx.Log[refs[j].idx].Seq
	})
	return refs
}

// orderByEdges reconstructs a replay order from the §3.2.4 machinery: each
// transaction's log with its special edge-mark entries, plus per-thread
// program order between transactions.
//
// Marks carry a globally ordered creation stamp. This is legitimate
// run-time information (not a replay-side oracle): an IDG edge is created
// on an already-synchronized Octet slow path, so stamping it from a global
// counter costs nothing — the same trick Octet itself uses for gRdShCnt.
//
// A mark on a transaction of thread T at stamp s is evidence that T had, by
// stamp s, executed everything that precedes the mark: the mark's own
// transaction's log prefix, and all of T's earlier transactions. The replay
// therefore processes marks in stamp order and flushes those prefixes
// before each one. The SCC's own marks are not always enough — a
// happens-before chain between two SCC accesses can run through
// transactions outside the reported SCC (ones unfinished at detection
// time, say) — so ordering anchors are pulled transitively through the
// recorded edge structure: every mark names its peer transaction, whose own
// marks are further evidence. Entries after a thread's last anchor follow
// in a deterministic tail.
func orderByEdges(scc []*txn.Txn, inSCC map[*txn.Txn]bool) []entryRef {
	// Pull the anchor set: SCC transactions plus everything reachable
	// through mark peers (bounded — real chains are short; the cap only
	// guards pathological graphs).
	const maxAnchors = 1 << 16
	anchors := make(map[*txn.Txn]bool, len(scc))
	queue := append([]*txn.Txn(nil), scc...)
	for _, tx := range scc {
		anchors[tx] = true
	}
	for len(queue) > 0 && len(anchors) < maxAnchors {
		tx := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, mk := range tx.Marks {
			if mk.Other != nil && !anchors[mk.Other] {
				anchors[mk.Other] = true
				queue = append(queue, mk.Other)
			}
		}
	}

	// Per-thread program-order chains over SCC members. Same-thread
	// transactions are created in program order, so IDs order them strictly
	// (StartSeq can tie when a retirement and a successor share one clock
	// tick).
	byThread := make(map[vm.ThreadID][]*txn.Txn)
	for _, tx := range scc {
		byThread[tx.Thread] = append(byThread[tx.Thread], tx)
	}
	prevOf := make(map[*txn.Txn]*txn.Txn)
	for _, txs := range byThread {
		sort.Slice(txs, func(i, j int) bool { return txs[i].ID < txs[j].ID })
		for i := 1; i < len(txs); i++ {
			prevOf[txs[i]] = txs[i-1]
		}
	}

	emitted := make(map[*txn.Txn]int, len(scc))
	var refs []entryRef

	// flushTo emits tx's entries with index < cut (and first, everything in
	// tx's same-thread SCC predecessors).
	var flushTo func(tx *txn.Txn, cut int)
	flushTo = func(tx *txn.Txn, cut int) {
		if prev := prevOf[tx]; prev != nil {
			flushTo(prev, len(prev.Log))
		}
		for i := emitted[tx]; i < cut; i++ {
			refs = append(refs, entryRef{tx, i})
		}
		if cut > emitted[tx] {
			emitted[tx] = cut
		}
	}

	// flushThreadBefore flushes, fully, every SCC transaction of th with
	// ID < beforeID: a mark on a later transaction of th proves they are
	// all in the past.
	flushThreadBefore := func(th vm.ThreadID, beforeID uint64) {
		txs := byThread[th]
		for i := len(txs) - 1; i >= 0; i-- {
			if txs[i].ID < beforeID {
				flushTo(txs[i], len(txs[i].Log))
				return // flushTo covers the predecessors
			}
		}
	}

	// Global anchor sequence. For equal stamps (several edges from one
	// barrier), out-marks flush before in-marks so a dependence's source
	// side is emitted first.
	type gmark struct {
		tx  *txn.Txn
		cut int // entries of tx preceding the mark (SCC members only)
		seq uint64
		in  bool
	}
	var marks []gmark
	for tx := range anchors {
		li := 0
		member := inSCC[tx]
		for _, mk := range tx.Marks {
			cut := 0
			if member {
				// Entries strictly before the mark; an equal-Seq entry
				// comes after it (the barrier fires before the access is
				// logged).
				for li < len(tx.Log) && tx.Log[li].Seq < mk.Seq {
					li++
				}
				cut = li
			}
			marks = append(marks, gmark{tx: tx, cut: cut, seq: mk.Seq, in: mk.In})
		}
	}
	sort.Slice(marks, func(i, j int) bool {
		if marks[i].seq != marks[j].seq {
			return marks[i].seq < marks[j].seq
		}
		if marks[i].in != marks[j].in {
			return !marks[i].in // out-marks first
		}
		return marks[i].tx.ID < marks[j].tx.ID
	})
	for _, m := range marks {
		flushThreadBefore(m.tx.Thread, m.tx.ID)
		if inSCC[m.tx] {
			flushTo(m.tx, m.cut)
		}
	}

	// Deterministic tail: remaining entries per thread, in ID order.
	tail := make([]*txn.Txn, 0, len(byThread))
	for _, txs := range byThread {
		tail = append(tail, txs[len(txs)-1])
	}
	sort.Slice(tail, func(i, j int) bool { return tail[i].ID < tail[j].ID })
	for _, tx := range tail {
		flushTo(tx, len(tx.Log))
	}
	return refs
}
