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
	"cmp"
	"slices"
	"sort"
	"strconv"

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

	// Replay working state. Process fills it and empties it again on
	// return, keeping the capacity, so a stream of SCCs replays without
	// rebuilding maps and slices per call.
	entries []entryRef         // the SCC's log entries in replay order
	members map[*txn.Txn]int32 // SCC member -> position (ByEdges only)
	fieldIx map[fieldKey]int32 // field -> index into fields
	fields  []fieldState       // last-access state per field, by index
	segs    []segState         // current segment per SCC member, by position
	chains  []*txn.Txn         // latest replayed node per thread, by thread ID
	g       pdg
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
		members:  make(map[*txn.Txn]int32),
		fieldIx:  make(map[fieldKey]int32),
		g: pdg{
			edges: make(map[pdgEdge]uint64),
			succs: make(map[*txn.Txn][]*txn.Txn),
		},
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
	seq uint64 // tx.Log[idx].Seq, cached as the BySeq sort key
	idx int32  // position in tx.Log
	mem int32  // tx's position in the SCC
}

// fieldKey is PCD's per-field metadata key; sync accesses use a separate
// metadata space (they model the paper's per-object lock-release word).
type fieldKey struct {
	obj   vm.ObjectID
	field vm.FieldID
	sync  bool
}

// fieldState is one field's last-access information (Figure 5), holding
// segment nodes: W(f), the last writer, and R(T,f), the last reader of
// each thread T since that write, kept sorted by thread.
type fieldState struct {
	write   *txn.Txn
	readers []*txn.Txn
}

// read records node as its thread's last reader of the field.
func (f *fieldState) read(node *txn.Txn) {
	i := 0
	for i < len(f.readers) && f.readers[i].Thread < node.Thread {
		i++
	}
	if i < len(f.readers) && f.readers[i].Thread == node.Thread {
		f.readers[i] = node
		return
	}
	f.readers = slices.Insert(f.readers, i, node)
}

// field returns the replay state of k, assigning it the next dense index on
// first use in this Process call.
func (c *Checker) field(k fieldKey) *fieldState {
	i, ok := c.fieldIx[k]
	if !ok {
		i = int32(len(c.fields))
		c.fieldIx[k] = i
		if len(c.fields) < cap(c.fields) {
			// Reuse the released slot and its readers array.
			c.fields = c.fields[:i+1]
		} else {
			c.fields = append(c.fields, fieldState{})
		}
	}
	return &c.fields[i]
}

// pdgEdge is one precise dependence edge.
type pdgEdge struct{ src, dst *txn.Txn }

// pdg is the precise dependence graph over one Process invocation.
type pdg struct {
	edges map[pdgEdge]uint64      // -> edge order (first occurrence)
	succs map[*txn.Txn][]*txn.Txn // successors in insertion order
}

// add inserts an edge with the given order if absent; reports whether it was
// new.
func (g *pdg) add(src, dst *txn.Txn, order uint64) bool {
	if src == dst {
		return false
	}
	e := pdgEdge{src, dst}
	if _, ok := g.edges[e]; ok {
		return false
	}
	g.edges[e] = order
	g.succs[src] = append(g.succs[src], dst)
	return true
}

func (g *pdg) order(src, dst *txn.Txn) (uint64, bool) {
	o, ok := g.edges[pdgEdge{src, dst}]
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
	defer c.release()

	c.segs = slices.Grow(c.segs[:0], len(scc))[:len(scc)]
	threads := 0
	for i, tx := range scc {
		c.segs[i] = segState{node: tx}
		threads = max(threads, int(tx.Thread)+1)
		if _, ok := c.seenTxns[tx.ID]; !ok {
			c.seenTxns[tx.ID] = struct{}{}
			c.stats.DistinctTxns++
			if c.tel != nil {
				c.tel.txnsSent.Inc()
			}
		}
	}
	// chains tracks each thread's most recent replayed node, to add
	// intra-thread program-order edges lazily (same-thread transactions
	// never overlap, so replay order visits them sequentially).
	c.chains = slices.Grow(c.chains[:0], threads)[:threads]

	switch c.order {
	case ByEdges:
		for i, tx := range scc {
			c.members[tx] = int32(i)
		}
		c.entries = orderByEdges(c.entries, scc, c.members)
	default:
		c.entries = orderBySeq(c.entries, scc)
	}

	// Replay temporaries (the ordered entry list, the PDG, last-access
	// state) are modelled as allocations made while every input log is
	// still live. In the paper's JVM they are real: for a giant SCC —
	// above all the PCD-only straw man's whole-execution replay — this heap
	// spike is what drives GC cost and the out-of-memory failures. The
	// meter charges them per call even though this Checker reuses its
	// memory across calls; they are released when Process returns.
	c.tempAlloc(24 * int64(len(c.entries)))

	model := c.model()
	var found []txn.Violation
	for _, ref := range c.entries {
		e := &ref.tx.Log[ref.idx]
		c.stats.EntriesReplayed++
		c.charge(model.PCDPerEntry)
		f := c.field(fieldKey{obj: e.Obj, field: e.Field, sync: e.Sync})
		st := &c.segs[ref.mem]
		th := ref.tx.Thread

		// Will this entry receive a cross-thread edge?
		incoming := f.write != nil && f.write.Thread != th
		if e.Write && !incoming {
			for _, r := range f.readers {
				if r.Thread != th {
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
				Thread:   th,
				Method:   ref.tx.Method,
				Unary:    true,
				StartSeq: e.Seq,
				Finished: true,
			}
			c.g.add(st.node, fresh, e.Seq)
			st.node = fresh
			st.count = 0
		}
		cur := st.node

		// Intra-thread program order.
		if prev := c.chains[th]; prev != nil && prev != cur {
			c.g.add(prev, cur, e.Seq)
		}
		c.chains[th] = cur

		if w := f.write; w != nil && w.Thread != th {
			found = c.addPDGEdge(span.Trace(), w, cur, e.Seq, found)
		}
		if e.Write {
			// Readers in thread order: a write racing several readers inserts
			// its anti-dependence edges — and so detects cycles — in a fixed
			// sequence, keeping replay deterministic.
			for _, r := range f.readers {
				if r.Thread != th {
					found = c.addPDGEdge(span.Trace(), r, cur, e.Seq, found)
				}
			}
			f.write = cur
			f.readers = f.readers[:0]
		} else {
			f.read(cur)
		}
		st.count++
	}
	if c.tel != nil {
		c.tel.entries.Add(uint64(len(c.entries)))
		// The live per-field metadata at end of replay: the fields with W(f)
		// set plus those with a non-empty R(·,f) — the heap spike §3.3's
		// replay pays for.
		live := 0
		for i := range c.fields {
			if c.fields[i].write != nil {
				live++
			}
			if len(c.fields[i].readers) > 0 {
				live++
			}
		}
		c.tel.fieldMap.Observe(uint64(live))
	}
	return found
}

// release ends a Process call: it frees the metered replay temporaries and
// empties the working state, keeping its capacity but dropping every
// transaction pointer so that replayed logs can be collected.
func (c *Checker) release() {
	if c.meter != nil {
		c.meter.Free(c.tempBytes)
	}
	c.tempBytes = 0
	clear(c.entries)
	c.entries = c.entries[:0]
	clear(c.members)
	clear(c.fieldIx)
	for i := range c.fields {
		f := &c.fields[i]
		f.write = nil
		f.readers = f.readers[:0]
		clear(f.readers[:cap(f.readers)])
	}
	c.fields = c.fields[:0]
	clear(c.segs)
	c.segs = c.segs[:0]
	clear(c.chains)
	c.chains = c.chains[:0]
	clear(c.g.edges)
	clear(c.g.succs)
}

// addPDGEdge inserts a precise dependence edge and checks for a cycle
// through it. replay is the trace handle of the enclosing pcd.replay span,
// the parent of a found cycle's pcd.blame span.
func (c *Checker) addPDGEdge(replay obs.Span, src, dst *txn.Txn, seq uint64, found []txn.Violation) []txn.Violation {
	if !c.g.add(src, dst, seq) {
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
		return c.g.succs[t]
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
	v := txn.NewViolationWith(path, seq, c.g.order)
	blame.End()
	c.violations = append(c.violations, v)
	return append(found, v)
}

// cycleKey builds a canonical identity for a cycle: its sorted member IDs.
func cycleKey(cycle []*txn.Txn) string {
	ids := make([]uint64, len(cycle))
	for i, tx := range cycle {
		ids[i] = tx.ID
	}
	slices.Sort(ids)
	key := make([]byte, 0, 8*len(ids))
	for _, id := range ids {
		key = strconv.AppendUint(key, id, 10)
		key = append(key, ',')
	}
	return string(key)
}

// orderBySeq fills refs (empty on entry) with all log entries of the SCC,
// sorted by the global access clock.
func orderBySeq(refs []entryRef, scc []*txn.Txn) []entryRef {
	for m, tx := range scc {
		for i := range tx.Log {
			refs = append(refs, entryRef{tx: tx, seq: tx.Log[i].Seq, idx: int32(i), mem: int32(m)})
		}
	}
	slices.SortFunc(refs, func(a, b entryRef) int { return cmp.Compare(a.seq, b.seq) })
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
func orderByEdges(refs []entryRef, scc []*txn.Txn, members map[*txn.Txn]int32) []entryRef {
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

	// flushTo emits tx's entries with index < cut (and first, everything in
	// tx's same-thread SCC predecessors).
	var flushTo func(tx *txn.Txn, cut int)
	flushTo = func(tx *txn.Txn, cut int) {
		if prev := prevOf[tx]; prev != nil {
			flushTo(prev, len(prev.Log))
		}
		mem := members[tx]
		for i := emitted[tx]; i < cut; i++ {
			refs = append(refs, entryRef{tx: tx, seq: tx.Log[i].Seq, idx: int32(i), mem: mem})
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
		_, member := members[tx]
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
		if _, ok := members[m.tx]; ok {
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
