package velodrome

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"doublechecker/internal/cost"
	"doublechecker/internal/graph"
	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
)

// This file keeps the map-based Velodrome that Checker replaced when its
// metadata came to be indexed by the manager's field numbers. refChecker
// keys each cell by (object, field, sync) in a map, keeps each field's
// readers in a map by thread, and sorts them when a write meets two or
// more. Its logic is the earlier code's; only names changed. It is the
// reference Checker must match on every access stream: violations, Stats,
// TxnStats and metered cost.

type refFieldKey struct {
	obj   vm.ObjectID
	field vm.FieldID
	sync  bool
}

type refMetadata struct {
	lastWrite *txn.Txn
	lastReads map[vm.ThreadID]*txn.Txn
}

type refChecker struct {
	vm.NopInst
	meter    *cost.Meter
	model    cost.Model
	opts     Options
	mgr      *txn.Manager
	meta     map[refFieldKey]*refMetadata
	skipping []bool
	exec     vm.ExecView
	viols    []txn.Violation
	stats    Stats
	sinceGC  uint64
	readers  []vm.ThreadID
}

func newRefChecker(meter *cost.Meter, opts Options) *refChecker {
	c := &refChecker{meter: meter, model: meter.Model(), opts: opts, meta: make(map[refFieldKey]*refMetadata)}
	if c.opts.GCPeriod == 0 {
		c.opts.GCPeriod = 8192
	}
	return c
}

func (c *refChecker) ProgramStart(e vm.ExecView) {
	c.exec = e
	c.mgr = txn.NewManager(false, e.Now, c.meter)
}

func (c *refChecker) TxBegin(t vm.ThreadID, m vm.MethodID) {
	if !c.opts.Filter.TxSelected(m) {
		c.skipping = vm.Grow(c.skipping, int(t))
		c.skipping[t] = true
		return
	}
	c.mgr.BeginRegular(t, m)
}

func (c *refChecker) TxEnd(t vm.ThreadID, m vm.MethodID) {
	if c.skips(t) {
		c.skipping[t] = false
		return
	}
	c.mgr.EndRegular(t)
}

func (c *refChecker) ThreadExit(t vm.ThreadID) { c.mgr.ThreadExit(t) }

func (c *refChecker) skips(t vm.ThreadID) bool {
	return int(t) < len(c.skipping) && c.skipping[t]
}

func (c *refChecker) Access(a vm.Access) {
	if c.skips(a.Thread) {
		return
	}
	inTx := c.exec != nil && c.exec.InTx(a.Thread)
	if !inTx && !c.opts.Filter.UnarySelected() {
		return
	}
	var key refFieldKey
	switch a.Class {
	case vm.ClassArray:
		if !c.opts.InstrumentArrays {
			return
		}
		key = refFieldKey{obj: a.Obj, field: 0, sync: false}
	case vm.ClassSync:
		key = refFieldKey{obj: a.Obj, field: a.Field, sync: true}
	default:
		key = refFieldKey{obj: a.Obj, field: a.Field, sync: false}
	}

	c.stats.InstrumentedAccesses++
	md := c.meta[key]
	if md == nil {
		md = &refMetadata{lastReads: make(map[vm.ThreadID]*txn.Txn)}
		c.meta[key] = md
	}
	var cur *txn.Txn
	if c.incomingEdge(md, a) {
		cur = c.mgr.EdgeSink(a.Thread)
	} else {
		cur = c.mgr.Current(a.Thread)
	}
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
	c.mgr.Record(a.Thread, a.Obj, a.Field, a.Write, a.Class == vm.ClassSync, a.Seq)

	c.sinceGC++
	if c.sinceGC >= c.opts.GCPeriod {
		c.sinceGC = 0
		c.collect()
	}
}

func (c *refChecker) metadataChanges(md *refMetadata, cur *txn.Txn, a vm.Access) bool {
	if a.Write {
		if md.lastWrite != cur {
			return true
		}
		for t, rd := range md.lastReads {
			if t != a.Thread || rd != cur {
				return true
			}
		}
		return false
	}
	return md.lastReads[a.Thread] != cur
}

func (c *refChecker) incomingEdge(md *refMetadata, a vm.Access) bool {
	if md.lastWrite != nil && md.lastWrite.Thread != a.Thread {
		return true
	}
	if !a.Write {
		return false
	}
	for t := range md.lastReads {
		if t != a.Thread {
			return true
		}
	}
	return false
}

func (c *refChecker) read(md *refMetadata, cur *txn.Txn, seq uint64) {
	c.charge(c.model.VeloMetadata)
	if md.lastWrite != nil && md.lastWrite.Thread != cur.Thread {
		c.addEdge(md.lastWrite, cur, seq)
	}
	md.lastReads[cur.Thread] = cur
}

func (c *refChecker) write(md *refMetadata, cur *txn.Txn, seq uint64) {
	c.charge(c.model.VeloMetadata)
	if md.lastWrite != nil && md.lastWrite.Thread != cur.Thread {
		c.addEdge(md.lastWrite, cur, seq)
	}
	if len(md.lastReads) < 2 {
		for t, rd := range md.lastReads {
			if t != cur.Thread {
				c.addEdge(rd, cur, seq)
			}
		}
	} else {
		c.readers = c.readers[:0]
		for t := range md.lastReads {
			c.readers = append(c.readers, t)
		}
		slices.Sort(c.readers)
		for _, t := range c.readers {
			if t != cur.Thread {
				c.addEdge(md.lastReads[t], cur, seq)
			}
		}
	}
	md.lastWrite = cur
	for t := range md.lastReads {
		delete(md.lastReads, t)
	}
}

func (c *refChecker) addEdge(src, dst *txn.Txn, seq uint64) {
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
	succ := func(t *txn.Txn) []*txn.Txn {
		c.stats.CycleNodesVisited++
		c.charge(c.model.VeloCycleNode)
		return t.Succs()
	}
	if path := graph.FindPath(dst, src, succ); path != nil {
		c.stats.ViolationsDynamic++
		c.viols = append(c.viols, txn.NewViolation(path, seq))
	}
}

func (c *refChecker) collect() {
	var roots []*txn.Txn
	for _, md := range c.meta {
		if md.lastWrite != nil {
			roots = append(roots, md.lastWrite)
		}
		for _, rd := range md.lastReads {
			roots = append(roots, rd)
		}
	}
	c.mgr.Collect(roots)
}

func (c *refChecker) charge(u cost.Units) {
	if c.meter != nil {
		c.meter.Charge(u)
	}
}

// streamExec is the execution view a random access stream runs under: its
// clock is the stream's access clock, and it knows which threads are inside
// a regular transaction.
type streamExec struct {
	now  uint64
	inTx []bool
}

func (e *streamExec) Now() uint64                        { return e.now }
func (e *streamExec) Blocked(vm.ThreadID) bool           { return false }
func (e *streamExec) InTx(t vm.ThreadID) bool            { return e.inTx[t] }
func (e *streamExec) TxMethod(t vm.ThreadID) vm.MethodID { return vm.NoMethod }

// runStream drives insts through one random execution of threads threads:
// regular transactions of four methods, field, array and sync accesses to
// a few objects (all threads prefer the low-numbered ones, so fields see
// several readers), and every thread's exit at the end.
func runStream(rng *rand.Rand, threads int, insts ...vm.Instrumentation) {
	e := &streamExec{inTx: make([]bool, threads)}
	for _, in := range insts {
		in.ProgramStart(e)
	}
	for step := 0; step < 1500; step++ {
		th := vm.ThreadID(rng.Intn(threads))
		m := vm.MethodID(rng.Intn(4) + 1)
		switch r := rng.Intn(20); {
		case r == 0 && !e.inTx[th]:
			e.inTx[th] = true
			for _, in := range insts {
				in.TxBegin(th, m)
			}
		case r == 1 && e.inTx[th]:
			e.inTx[th] = false
			for _, in := range insts {
				in.TxEnd(th, m)
			}
		default:
			e.now++
			a := vm.Access{
				Thread: th,
				Obj:    vm.ObjectID(rng.Intn(1+rng.Intn(8)) + 1),
				Field:  vm.FieldID(rng.Intn(3)),
				Write:  rng.Intn(3) == 0,
				Class:  []vm.AccessClass{vm.ClassField, vm.ClassField, vm.ClassArray, vm.ClassSync}[rng.Intn(4)],
				Seq:    e.now,
			}
			for _, in := range insts {
				in.Access(a)
			}
		}
	}
	for th := 0; th < threads; th++ {
		for _, in := range insts {
			in.ThreadExit(vm.ThreadID(th))
		}
	}
	for _, in := range insts {
		in.ProgramEnd()
	}
}

// violationSigs renders violations as their cycle IDs, blamed IDs, blamed
// methods and detection clock, in detection order.
func violationSigs(vs []txn.Violation) []string {
	ids := func(txs []*txn.Txn) []uint64 {
		out := make([]uint64, len(txs))
		for i, tx := range txs {
			out[i] = tx.ID
		}
		return out
	}
	sigs := make([]string, len(vs))
	for i, v := range vs {
		sigs[i] = fmt.Sprintf("cycle=%v blamed=%v methods=%v seq=%d", ids(v.Cycle), ids(v.Blamed), v.BlamedMethods, v.Seq)
	}
	return sigs
}

// TestMetadataMatchesMapForm feeds Checker and the map-based refChecker the
// same random access streams under random options — sound and unsound,
// arrays on and off, cycle detection on and off, with and without a filter,
// collecting often — and requires identical violations, Stats, TxnStats and
// metered cost.
func TestMetadataMatchesMapForm(t *testing.T) {
	violations, skips, arrays, filtered := 0, uint64(0), 0, 0
	for seed := int64(1); seed <= 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := Options{
			Unsound:               rng.Intn(2) == 0,
			InstrumentArrays:      rng.Intn(3) == 0,
			DisableCycleDetection: rng.Intn(6) == 0,
			GCPeriod:              uint64(16 + rng.Intn(200)),
		}
		if rng.Intn(3) == 0 {
			opts.Filter = &txn.Filter{
				Methods: map[vm.MethodID]bool{vm.MethodID(rng.Intn(4) + 1): true, vm.MethodID(rng.Intn(4) + 1): true},
				Unary:   rng.Intn(2) == 0,
			}
			filtered++
		}
		if opts.InstrumentArrays {
			arrays++
		}
		threads := 2 + rng.Intn(5)
		got := NewChecker(nil, cost.NewMeter(cost.Default()), opts)
		want := newRefChecker(cost.NewMeter(cost.Default()), opts)
		runStream(rng, threads, got, want)

		label := fmt.Sprintf("seed %d (%d threads, %+v)", seed, threads, opts)
		if g, w := violationSigs(got.Violations()), violationSigs(want.viols); !slices.Equal(g, w) {
			t.Fatalf("%s: violations\n%v\nreference\n%v", label, g, w)
		}
		if g, w := got.Stats(), want.stats; g != w {
			t.Fatalf("%s: stats %+v, reference %+v", label, g, w)
		}
		if g, w := got.TxnStats(), want.mgr.Stats(); g != w {
			t.Fatalf("%s: txn stats %+v, reference %+v", label, g, w)
		}
		if g, w := got.meter.Report(), want.meter.Report(); g != w {
			t.Fatalf("%s: meter %+v, reference %+v", label, g, w)
		}
		violations += len(want.viols)
		skips += want.stats.SyncFastSkips
	}
	if violations == 0 || skips == 0 || arrays == 0 || filtered == 0 {
		t.Fatalf("%d violations, %d unsound skips, %d array runs, %d filtered runs: every one must be exercised",
			violations, skips, arrays, filtered)
	}
}

// TestProgramStartEmptiesMetadata: the field numbers are the run's
// manager's, so a Checker run a second time starts from empty metadata and
// reports what a fresh Checker reports on the same stream.
func TestProgramStartEmptiesMetadata(t *testing.T) {
	reused := NewChecker(nil, nil, Options{})
	runStream(rand.New(rand.NewSource(1)), 4, reused)
	first := len(reused.Violations())
	fresh := NewChecker(nil, nil, Options{})
	runStream(rand.New(rand.NewSource(2)), 4, reused)
	runStream(rand.New(rand.NewSource(2)), 4, fresh)
	if g, w := violationSigs(reused.Violations()[first:]), violationSigs(fresh.Violations()); !slices.Equal(g, w) {
		t.Fatalf("second run of a reused checker: violations\n%v\nfresh checker\n%v", g, w)
	}
	if len(fresh.Violations()) == 0 {
		t.Fatal("the stream has no violation; the check is vacuous")
	}
}
