// Package pcd implements DoubleChecker's precise cycle detection analysis
// (paper §3.3).
//
// PCD is not a standalone dynamic analysis: it consumes, for each SCC that
// ICD reports, the set of transactions and their read/write logs. It
// "replays" that slice of the execution, rebuilding precise per-field
// last-access information — W(f), the last transaction to write f, and
// R(T,f), the last transaction of each thread T to read f — and adds
// precise dependence edges to a precise dependence graph (PDG) using the
// rules of the paper's Figure 5. A cycle in the PDG is a real conflict
// serializability violation; blame assignment (§3.3) marks the
// transaction(s) that completed each cycle.
//
// Replay follows the VM's global access clock: every log entry carries the
// Seq at which its access ran, so the order is exact. The paper's
// implementation has no such clock on a JVM and rebuilds the order from
// special log entries for cross-thread edges (§3.2.4); the cost model still
// charges for those entries (package txn), but nothing here reads them.
package pcd

import (
	"cmp"
	"math"
	"slices"
	"strconv"

	"doublechecker/internal/cost"
	"doublechecker/internal/graph"
	"doublechecker/internal/obs"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
)

// ReplayOrder once selected how PCD linearized an SCC's log entries.
//
// Deprecated: PCD always replays in Seq order, and NewChecker ignores its
// ReplayOrder.
type ReplayOrder int

// BySeq is global access-clock order, the only replay order.
//
// Deprecated: see ReplayOrder.
const BySeq ReplayOrder = 0

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

// Checker is a PCD instance. It is fed SCCs by ICD (via core) and
// accumulates precise violations.
type Checker struct {
	meter *cost.Meter
	// The meter's PCD unit prices, read once (zero without a meter).
	perEntry, perEdge, perCycleNode cost.Units

	violations []txn.Violation
	seen       map[string]bool // cycle identity (sorted txn IDs) dedup
	seenTxns   []uint64        // distinct txn IDs sent to PCD, a bitset by ID
	stats      Stats
	reg        *telemetry.Registry  // nil: no metrics, phase spans trace only
	fieldMap   *telemetry.Histogram // pcd.field_map.size, nil without reg
	tspan      obs.Span             // request-scoped parent for pcd.replay spans
	tempBytes  int64                // live replay temporaries (released per Process)

	// Replay working state. Process fills it and empties it again on
	// return, keeping the capacity, so a stream of SCCs replays without
	// rebuilding maps and slices per call.
	scc        []*txn.Txn      // the SCC being replayed
	replaySpan obs.Span        // trace handle of its pcd.replay span
	found      []txn.Violation // violations new in this call
	runs       []member        // members with a log, by thread, then ID
	heads      []head          // one merge head per thread run
	fieldAt    []int32         // by LogEntry.Var: 1 + the field's index in fields, or 0
	fields     []fieldState    // last-access state per field, by index
	segs       []segState      // current segment per SCC member, by position
	chains     []int32         // latest replayed node per thread ID, or -1
	g          pdg
	search     graph.PathSearch
	succ       graph.SuccFunc[int32] // PDG successors, charging PCDCycleNode
	keyIDs     []uint64              // cycleKey scratch
	key        []byte                // cycleKey scratch
}

// SetTelemetry attaches a registry: Process then records the pcd.replay /
// pcd.blame phase spans and one pcd.field_map.size observation per call.
// The counts stay in Stats; core publishes them when a run completes.
func (c *Checker) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.reg = reg
	c.fieldMap = reg.Histogram(telemetry.PCDFieldMap, telemetry.MapSizeBuckets)
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

// NewChecker returns a PCD checker; meter may be nil. The ReplayOrder is
// ignored (see its deprecation note).
func NewChecker(meter *cost.Meter, _ ReplayOrder) *Checker {
	c := &Checker{
		meter: meter,
		seen:  make(map[string]bool),
	}
	if meter != nil {
		m := meter.Model()
		c.perEntry, c.perEdge, c.perCycleNode = m.PCDPerEntry, m.PCDPerEdge, m.PCDCycleNode
	}
	c.succ = func(v int32) []int32 {
		c.charge(c.perCycleNode)
		return c.g.succs[v]
	}
	return c
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

// fieldState is one field's last-access information (Figure 5), holding
// PDG nodes: W(f), the last writer, and R(T,f), the last reader of each
// thread T since that write, kept sorted by thread. A field is a LogEntry's
// Var, the recording manager's number for (object, field, sync): a sync
// access has its own metadata space (it models the paper's per-object
// lock-release word).
type fieldState struct {
	v       uint32 // the field's Var
	write   int32  // W(f), or -1
	writeTh vm.ThreadID
	readers []reader
}

// reader is R(th,f).
type reader struct {
	th   vm.ThreadID
	node int32
}

// read records node as thread th's last reader of the field.
func (f *fieldState) read(th vm.ThreadID, node int32) {
	i := 0
	for i < len(f.readers) && f.readers[i].th < th {
		i++
	}
	if i < len(f.readers) && f.readers[i].th == th {
		f.readers[i].node = node
		return
	}
	f.readers = slices.Insert(f.readers, i, reader{th: th, node: node})
}

// field returns the replay state of field v, assigning it the next dense
// index on first use in this Process call.
func (c *Checker) field(v uint32) *fieldState {
	c.fieldAt = vm.Grow(c.fieldAt, int(v))
	i := c.fieldAt[v] - 1
	if i < 0 {
		i = int32(len(c.fields))
		c.fieldAt[v] = i + 1
		if len(c.fields) < cap(c.fields) {
			// Reuse the released slot and its readers array.
			c.fields = c.fields[:i+1]
			f := &c.fields[i]
			f.v, f.write, f.readers = v, -1, f.readers[:0]
		} else {
			c.fields = append(c.fields, fieldState{v: v, write: -1})
		}
	}
	return &c.fields[i]
}

// pdg is the precise dependence graph over one Process invocation. A node
// is an index: the SCC members come first, by position, and fresh unary
// segments follow in the order the replay cuts them.
type pdg struct {
	nodes []*txn.Txn // node -> transaction
	succs [][]int32  // successors in insertion order, by node
	edges []pdgEdge  // every edge, in insertion order
}

// pdgEdge is one PDG edge and the order of its first occurrence, which
// blame assignment reads.
type pdgEdge struct {
	src, dst int32
	order    uint64
}

// addNode appends tx as a node, reusing a released successor list.
func (g *pdg) addNode(tx *txn.Txn) int32 {
	v := int32(len(g.nodes))
	g.nodes = append(g.nodes, tx)
	if len(g.succs) < cap(g.succs) {
		g.succs = g.succs[:v+1]
		g.succs[v] = g.succs[v][:0]
	} else {
		g.succs = append(g.succs, nil)
	}
	return v
}

// add inserts an edge with the given order if absent; reports whether it was
// new. It scans src's successors newest first, as txn.Txn.EdgeTo scans a
// transaction's out-edges.
func (g *pdg) add(src, dst int32, order uint64) bool {
	if src == dst {
		return false
	}
	succs := g.succs[src]
	for i := len(succs) - 1; i >= 0; i-- {
		if succs[i] == dst {
			return false
		}
	}
	g.succs[src] = append(succs, dst)
	g.edges = append(g.edges, pdgEdge{src: src, dst: dst, order: order})
	return true
}

// order returns the order of edge src -> dst, scanning the edge list. Only
// blame asks, for the edges of a cycle not seen before.
func (g *pdg) order(src, dst int32) (uint64, bool) {
	for _, e := range g.edges {
		if e.src == src && e.dst == dst {
			return e.order, true
		}
	}
	return 0, false
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
	node  int32
	count int // entries replayed into node
	idx   int // segment index (for deterministic synthetic IDs)
}

// Process replays one SCC and records any precise violations. It returns
// the violations newly found in this SCC (already added to Violations).
// Replay reads each log entry's field as its Var, and counts distinct
// transactions by ID, and both numberings are a txn.Manager's: one Checker
// replays the logs of one manager.
func (c *Checker) Process(scc []*txn.Txn) []txn.Violation {
	defer c.release()
	return c.replay(scc)
}

// replay is Process short of its release: the call's PDG and field state
// stay in the working state until release empties it.
func (c *Checker) replay(scc []*txn.Txn) []txn.Violation {
	c.stats.SCCsProcessed++
	c.stats.TxnsProcessed += uint64(len(scc))
	span := c.reg.StartSpan(c.tspan, telemetry.SpanPCDReplay, c.meter)
	defer span.End()
	span.SetInt("scc_txns", int64(len(scc)))
	c.scc, c.replaySpan = scc, span.Trace()

	c.segs = slices.Grow(c.segs[:0], len(scc))[:len(scc)]
	threads, entries := 0, 0
	for i, tx := range scc {
		c.segs[i] = segState{node: c.g.addNode(tx)}
		threads = max(threads, int(tx.Thread)+1)
		entries += len(tx.Log)
		if c.markSeen(tx.ID) {
			c.stats.DistinctTxns++
		}
	}
	// chains tracks each thread's most recent replayed node, to add
	// intra-thread program-order edges lazily (same-thread transactions
	// never overlap, so replay order visits them sequentially).
	c.chains = slices.Grow(c.chains[:0], threads)[:threads]
	for i := range c.chains {
		c.chains[i] = -1
	}

	// Replay temporaries (the ordered entry list, the PDG, last-access
	// state) are modelled as allocations made while every input log is
	// still live. In the paper's JVM they are real: for a giant SCC —
	// above all the PCD-only straw man's whole-execution replay — this heap
	// spike is what drives GC cost and the out-of-memory failures. The
	// meter charges them per call even though this Checker reuses its
	// memory across calls, and the merge builds no entry list; they are
	// released when Process returns.
	c.tempAlloc(24 * int64(entries))

	c.replayBySeq()
	if c.fieldMap != nil {
		// The live per-field metadata at end of replay: the fields with W(f)
		// set plus those with a non-empty R(·,f) — the heap spike §3.3's
		// replay pays for.
		live := 0
		for i := range c.fields {
			if c.fields[i].write >= 0 {
				live++
			}
			if len(c.fields[i].readers) > 0 {
				live++
			}
		}
		c.fieldMap.Observe(uint64(live))
	}
	return c.found
}

// markSeen adds a transaction ID to the seen-set and reports whether it was
// new. A txn.Manager numbers its transactions densely from 1, so the bitset
// grows to one bit per transaction of the run at most.
func (c *Checker) markSeen(id uint64) bool {
	w, bit := int(id/64), uint64(1)<<(id%64)
	c.seenTxns = vm.Grow(c.seenTxns, w)
	if c.seenTxns[w]&bit != 0 {
		return false
	}
	c.seenTxns[w] |= bit
	return true
}

// replayEntry replays entry e of member m.
func (c *Checker) replayEntry(m int32, e *txn.LogEntry) {
	c.stats.EntriesReplayed++
	c.charge(c.perEntry)
	f := c.field(e.Var)
	st := &c.segs[m]
	tx := c.scc[m]
	th := tx.Thread

	// Will this entry receive a cross-thread edge?
	incoming := f.write >= 0 && f.writeTh != th
	if e.Write && !incoming {
		for _, r := range f.readers {
			if r.th != th {
				incoming = true
				break
			}
		}
	}
	if incoming && tx.Unary && st.count > 0 {
		// Cut the merged unary: fresh segment node.
		st.idx++
		fresh := c.g.addNode(&txn.Txn{
			ID:       tx.ID<<16 | uint64(st.idx),
			Thread:   th,
			Method:   tx.Method,
			Unary:    true,
			StartSeq: e.Seq,
			Finished: true,
		})
		c.g.add(st.node, fresh, e.Seq)
		st.node = fresh
		st.count = 0
	}
	cur := st.node

	// Intra-thread program order.
	if prev := c.chains[th]; prev >= 0 && prev != cur {
		c.g.add(prev, cur, e.Seq)
	}
	c.chains[th] = cur

	if f.write >= 0 && f.writeTh != th {
		c.addPDGEdge(f.write, cur, e.Seq)
	}
	if e.Write {
		// Readers in thread order: a write racing several readers inserts
		// its anti-dependence edges — and so detects cycles — in a fixed
		// sequence, keeping replay deterministic.
		for _, r := range f.readers {
			if r.th != th {
				c.addPDGEdge(r.node, cur, e.Seq)
			}
		}
		f.write, f.writeTh = cur, th
		f.readers = f.readers[:0]
	} else {
		f.read(th, cur)
	}
	st.count++
}

// member is one SCC member in the replay merge.
type member struct {
	th  vm.ThreadID
	pos int32 // position in the SCC
	id  uint64
}

// head is one thread's run in the replay merge: runs[k:end] are the thread's
// members in ID order, and entry i of runs[k]'s log, at clock seq, is the
// next to replay.
type head struct {
	k, end, i int32
	seq       uint64
}

// replayBySeq replays the SCC's entries in global access-clock order, the
// order a sort by Seq would give, without sorting them. Each log is in Seq
// order, and one thread's transactions never overlap in time, so a thread's
// members taken in ID order form one run sorted by Seq. (ICD hands members
// over in no particular order.) The merge of those runs picks the head
// with the smallest Seq by a linear scan, since there are few threads, and
// replays it as a batch until it passes the runner-up. Seq values are
// unique, so the merge equals the sort exactly.
func (c *Checker) replayBySeq() {
	runs := c.runs[:0]
	for m, tx := range c.scc {
		if len(tx.Log) > 0 {
			runs = append(runs, member{th: tx.Thread, pos: int32(m), id: tx.ID})
		}
	}
	slices.SortFunc(runs, func(a, b member) int {
		if a.th != b.th {
			return cmp.Compare(a.th, b.th)
		}
		return cmp.Compare(a.id, b.id)
	})
	c.runs = runs
	heads := c.heads[:0]
	for k := 0; k < len(runs); {
		end := k + 1
		for end < len(runs) && runs[end].th == runs[k].th {
			end++
		}
		heads = append(heads, head{k: int32(k), end: int32(end), seq: c.scc[runs[k].pos].Log[0].Seq})
		k = end
	}
	for len(heads) > 0 {
		h, limit := 0, uint64(math.MaxUint64)
		for i := 1; i < len(heads); i++ {
			if s := heads[i].seq; s < heads[h].seq {
				h, limit = i, heads[h].seq
			} else if s < limit {
				limit = s
			}
		}
		if !c.replayRun(&heads[h], limit) {
			heads[h] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
	}
	c.heads = heads
}

// replayRun replays h's entries, moving on through its thread's later
// members, while their Seq stays below limit. It reports whether the run
// has entries left. A run whose Seq fails to increase is a bug in whatever
// built the logs, and panics.
func (c *Checker) replayRun(h *head, limit uint64) bool {
	m := c.runs[h.k].pos
	log := c.scc[m].Log
	for {
		seq := h.seq
		c.replayEntry(m, &log[h.i])
		if h.i++; int(h.i) == len(log) {
			if h.k++; h.k == h.end {
				return false
			}
			h.i = 0
			m = c.runs[h.k].pos
			log = c.scc[m].Log
		}
		if h.seq = log[h.i].Seq; h.seq <= seq {
			panic("pcd: thread " + strconv.Itoa(int(c.scc[m].Thread)) + "'s log entries are not in Seq order")
		}
		if h.seq >= limit {
			return true
		}
	}
}

// release ends a Process call: it frees the metered replay temporaries and
// empties the working state, keeping its capacity but dropping every
// transaction pointer so that replayed logs can be collected.
func (c *Checker) release() {
	if c.meter != nil {
		c.meter.Free(c.tempBytes)
	}
	c.tempBytes = 0
	c.scc, c.replaySpan, c.found = nil, obs.Span{}, nil
	c.runs = c.runs[:0]
	c.heads = c.heads[:0]
	for i := range c.fields {
		c.fieldAt[c.fields[i].v] = 0
	}
	c.fields = c.fields[:0]
	c.segs = c.segs[:0]
	c.chains = c.chains[:0]
	clear(c.g.nodes)
	c.g.nodes = c.g.nodes[:0]
	c.g.succs = c.g.succs[:0]
	c.g.edges = c.g.edges[:0]
}

// addPDGEdge inserts a precise dependence edge and checks for a cycle
// through it.
func (c *Checker) addPDGEdge(src, dst int32, seq uint64) {
	if !c.g.add(src, dst, seq) {
		return
	}
	c.stats.PDGEdges++
	c.tempAlloc(64)
	c.charge(c.perEdge)
	c.stats.CycleChecks++
	path := c.search.Find(len(c.g.nodes), dst, src, c.succ)
	if path == nil {
		return
	}
	c.stats.PreciseCycles++
	if c.seen[string(c.cycleKey(path))] {
		return
	}
	c.seen[string(c.key)] = true
	cycle := make([]*txn.Txn, len(path))
	for i, v := range path {
		cycle[i] = c.g.nodes[v]
	}
	// Blame charges no cost units, so its span carries no meter. Its edge
	// lookups map each cycle member back to its node.
	blame := c.reg.StartSpan(c.replaySpan, telemetry.SpanPCDBlame, nil)
	v := txn.NewViolationWith(cycle, seq, func(src, dst *txn.Txn) (uint64, bool) {
		return c.g.order(path[slices.Index(cycle, src)], path[slices.Index(cycle, dst)])
	})
	blame.End()
	c.violations = append(c.violations, v)
	c.found = append(c.found, v)
}

// cycleKey builds a canonical identity for a cycle, its sorted member IDs,
// in reused scratch.
func (c *Checker) cycleKey(path []int32) []byte {
	ids := c.keyIDs[:0]
	for _, v := range path {
		ids = append(ids, c.g.nodes[v].ID)
	}
	slices.Sort(ids)
	key := c.key[:0]
	for _, id := range ids {
		key = strconv.AppendUint(key, id, 10)
		key = append(key, ',')
	}
	c.keyIDs, c.key = ids, key
	return key
}
