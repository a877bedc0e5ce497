package main

// The traced run: timers around calls into the layers' public entry points.
// Every timer lives in this file; the checker itself is not modified. A
// layer's self time is the time its calls took minus the time of the layer
// calls nested inside them (PCD replays nested in ICD callbacks, callbacks
// nested in the executor's step loop).

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"doublechecker/internal/core"
	"doublechecker/internal/cost"
	"doublechecker/internal/icd"
	"doublechecker/internal/octet"
	"doublechecker/internal/pcd"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/trace"
	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
)

// layers accumulates one traced phase: self time per layer and work counts.
type layers struct {
	ns    map[string]time.Duration
	count map[string]float64
}

func newLayers() *layers {
	return &layers{ns: map[string]time.Duration{}, count: map[string]float64{}}
}

func (l *layers) add(layer string, d time.Duration) { l.ns[layer] += d }
func (l *layers) inc(name string, n float64)        { l.count[name] += n }

// selfSum is the sum of every layer's self time.
func (l *layers) selfSum() time.Duration {
	var s time.Duration
	for _, v := range l.ns {
		s += v
	}
	return s
}

// timedInst wraps a checker's vm.Instrumentation and times each callback.
// The exec window runs from ProgramStart's entry to ProgramEnd's exit;
// whatever in it is not a callback is the event source's own dispatch (the
// VM's step loop, or trace replay). PCD replays reached through an ICD
// callback are timed by pcdHook and subtracted from that callback.
type timedInst struct {
	inner vm.Instrumentation

	start, end time.Time
	access     time.Duration
	txEnd      time.Duration
	other      time.Duration // ProgramStart/End, ThreadStart/Exit, TxBegin
	pcd        time.Duration
	nested     time.Duration // PCD time inside the current callback

	nAccess, nTxEnd, nOther int64
	rng                     uint64 // xorshift state choosing timed accesses
}

// accessSample is the sampling period of Access timing.
const accessSample = 8

// timerCost is what timing an empty interval reads: the clock reads' own
// cost, which each timed callback subtracts so it lands in the dispatch
// remainder instead of being scaled up with sampled accesses.
var timerCost = measureTimerCost()

func measureTimerCost() time.Duration {
	const n = 4001
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

func newTimedInst() *timedInst { return &timedInst{rng: 0x9e3779b97f4a7c15} }

func (t *timedInst) ProgramStart(e vm.ExecView) {
	t.start = time.Now()
	t.nested = 0
	t.inner.ProgramStart(e)
	t.other += time.Since(t.start) - t.nested - timerCost
	t.nOther++
}

func (t *timedInst) ProgramEnd() {
	t0 := time.Now()
	t.nested = 0
	t.inner.ProgramEnd()
	t.end = time.Now()
	t.other += t.end.Sub(t0) - t.nested - timerCost
	t.nOther++
}

func (t *timedInst) ThreadStart(id vm.ThreadID) {
	t0 := time.Now()
	t.nested = 0
	t.inner.ThreadStart(id)
	t.other += time.Since(t0) - t.nested - timerCost
	t.nOther++
}

func (t *timedInst) ThreadExit(id vm.ThreadID) {
	t0 := time.Now()
	t.nested = 0
	t.inner.ThreadExit(id)
	t.other += time.Since(t0) - t.nested - timerCost
	t.nOther++
}

func (t *timedInst) TxBegin(id vm.ThreadID, m vm.MethodID) {
	t0 := time.Now()
	t.nested = 0
	t.inner.TxBegin(id, m)
	t.other += time.Since(t0) - t.nested - timerCost
	t.nOther++
}

func (t *timedInst) TxEnd(id vm.ThreadID, m vm.MethodID) {
	t0 := time.Now()
	t.nested = 0
	t.inner.TxEnd(id, m)
	t.txEnd += time.Since(t0) - t.nested - timerCost
	t.nTxEnd++
}

// Access times one access in accessSample, picked pseudo-randomly, and
// scales its self time up: accesses are the most frequent callback, and
// timing each would double the cost of a cheap one. The estimate's error
// lands in the dispatch remainder, so layer sums stay exact.
func (t *timedInst) Access(a vm.Access) {
	t.nAccess++
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	if t.rng%accessSample != 0 {
		t.inner.Access(a)
		return
	}
	t0 := time.Now()
	t.nested = 0
	t.inner.Access(a)
	t.access += accessSample * (time.Since(t0) - t.nested - timerCost)
}

// pcdHook is icd.Options.OnSCC wrapping p.Process with a timer, the hand-off
// core's serial pipeline makes.
func (t *timedInst) pcdHook(p *pcd.Checker) func([]*txn.Txn) {
	return func(scc []*txn.Txn) {
		t0 := time.Now()
		p.Process(scc)
		d := time.Since(t0) - timerCost
		t.pcd += d
		t.nested += d
	}
}

func (t *timedInst) window() time.Duration { return t.end.Sub(t.start) }

// fold adds the wrapper's times to l: checker callbacks under the checker's
// name, the remainder of the exec window under dispatch.
func (t *timedInst) fold(l *layers, checker, dispatch string) {
	callbacks := t.access + t.txEnd + t.other + t.pcd
	l.add(dispatch, t.window()-callbacks)
	if checker == "velodrome" {
		l.add("velodrome", t.access+t.txEnd+t.other)
		l.inc("velodrome.events", float64(t.nAccess+t.nTxEnd+t.nOther))
	} else {
		l.add("icd.access", t.access)
		l.add("icd.txend", t.txEnd)
		l.add("icd.other", t.other)
		l.inc("icd.accesses", float64(t.nAccess))
		l.inc("icd.txends", float64(t.nTxEnd))
	}
	l.add("pcd.process", t.pcd)
	l.inc(dispatch+".events", float64(t.nAccess+t.nTxEnd+t.nOther))
}

// calibration pairs modelled cost units with measured time per layer.
type calibration struct {
	icdUnits, pcdUnits, totalUnits float64
}

func (c *calibration) add(o calibration) {
	c.icdUnits += o.icdUnits
	c.pcdUnits += o.pcdUnits
	c.totalUnits += o.totalUnits
}

// tracedDC runs DoubleChecker's serial ICD+PCD pipeline over one schedule,
// assembled exactly as core's buildAnalysis assembles it for dc-single (and,
// with a filter, dc-second), with PCD charged to its own meter as under
// core.Config.ParallelPCD. It returns the blamed method names.
func tracedDC(ctx context.Context, p *program, seed int64, filter *txn.Filter, reg *telemetry.Registry,
	l *layers, cal *calibration) ([]string, error) {

	t0 := time.Now()
	meter := cost.NewMeter(cost.Default())
	off := cost.NewMeter(meter.Model())
	pc := pcd.NewChecker(off, pcd.BySeq)
	pc.SetTelemetry(reg)
	ti := newTimedInst()
	ic := icd.NewChecker(p.built.Prog, meter, icd.Options{
		Logging:   true,
		Filter:    filter,
		Telemetry: reg,
		OnSCC:     ti.pcdHook(pc),
	})
	ti.inner = ic
	exec := vm.NewExec(p.built.Prog, vm.Config{
		Sched:  vm.NewSticky(seed, p.built.Stickiness),
		Inst:   ti,
		Atomic: p.atomic,
		Meter:  meter,
	})
	l.add("core.build", time.Since(t0))
	if _, err := exec.RunContext(ctx); err != nil {
		return nil, fmt.Errorf("traced %s seed %d: %w", p.name, seed, err)
	}
	t1 := time.Now()
	viol := pc.Violations()
	is, ts, ps := ic.Stats(), ic.TxnStats(), pc.Stats()
	blamed := map[string]bool{}
	for _, v := range viol {
		for _, m := range v.BlamedMethods {
			blamed[p.built.Prog.MethodName(m)] = true
		}
	}
	names := sortedKeys(blamed)
	l.add("core.collect", time.Since(t1))

	ti.fold(l, "icd", "vm.dispatch")
	l.inc("icd.sccs", float64(is.SCCs))
	l.inc("icd.logging_sccs", float64(is.SCCs))
	l.inc("pcd.precise_cycles", float64(ps.PreciseCycles))
	l.inc("pcd.entries", float64(ps.EntriesReplayed))
	l.inc("txn.log_entries", float64(ts.LogEntries))
	l.inc("txn.log_elided", float64(ts.LogElided))
	cal.add(calibration{
		icdUnits:   float64(is.DetectionUnits + is.MaintenanceUnits),
		pcdUnits:   float64(off.Total()),
		totalUnits: float64(meter.Total() + off.Total()),
	})
	return names, nil
}

// tracedFirstRun runs one multi-run first run (ICD without logging) through
// core.RunContext with the callback timers installed by Config.WrapInst.
func tracedFirstRun(ctx context.Context, p *program, seed int64, reg *telemetry.Registry,
	l *layers, cal *calibration) (*core.Result, error) {

	ti := newTimedInst()
	meter := cost.NewMeter(cost.Default())
	t0 := time.Now()
	res, err := core.RunContext(ctx, p.built.Prog, core.Config{
		Analysis:  core.DCFirst,
		Sched:     vm.NewSticky(seed, p.built.Stickiness),
		Atomic:    p.atomic,
		Telemetry: reg,
		Meter:     meter,
		WrapInst: func(in vm.Instrumentation) vm.Instrumentation {
			ti.inner = in
			return ti
		},
	})
	if err != nil {
		return nil, fmt.Errorf("traced first run %s seed %d: %w", p.name, seed, err)
	}
	l.add("core.run", time.Since(t0)-ti.window())
	ti.fold(l, "icd", "vm.dispatch")
	l.inc("icd.sccs", float64(res.ICD.SCCs))
	cal.add(calibration{
		icdUnits:   float64(res.ICD.DetectionUnits + res.ICD.MaintenanceUnits),
		totalUnits: float64(meter.Total()),
	})
	return res, nil
}

// tracedLibraryCheck is the traced twin of a library check: the same
// schedules as doublechecker.CheckUnitContext in the workload's mode.
func tracedLibraryCheck(ctx context.Context, mode string, in *input, l *layers, cal *calibration) ([]string, error) {
	t0 := time.Now()
	reg := telemetry.NewRegistry()
	l.add("core.build", time.Since(t0))
	if mode == modeSingle {
		return tracedDC(ctx, in.prog, in.seed, nil, reg, l, cal)
	}
	var firsts []*core.Result
	for i := int64(0); i < firstRuns; i++ {
		res, err := tracedFirstRun(ctx, in.prog, in.seed*1000+i, reg, l, cal)
		if err != nil {
			return nil, err
		}
		firsts = append(firsts, res)
	}
	t1 := time.Now()
	filter := core.UnionFilter(firsts)
	l.add("core.collect", time.Since(t1))
	return tracedDC(ctx, in.prog, in.seed, filter, reg, l, cal)
}

// tracedReplay is the server's check path re-run in the benchmark: decode
// the uploaded body, then core.RunTrace with the service's PCD grant and the
// callback timers. It returns the decoded trace and the result.
func tracedReplay(ctx context.Context, body []byte, analysis string, l *layers, cal *calibration) (*trace.Data, *core.Result, error) {
	a, err := core.ParseAnalysis(analysis)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	d, err := trace.Read(bytes.NewReader(body))
	if err != nil {
		return nil, nil, fmt.Errorf("decode: %w", err)
	}
	l.add("trace.decode", time.Since(t0))
	l.inc("trace.bytes", float64(len(body)))

	ti := newTimedInst()
	meter := cost.NewMeter(cost.Default())
	cfg := core.Config{
		Analysis:  a,
		Telemetry: telemetry.NewRegistry(),
		Meter:     meter,
		WrapInst: func(in vm.Instrumentation) vm.Instrumentation {
			ti.inner = in
			return ti
		},
	}
	if a != core.Velodrome {
		cfg.PCDWorkers = pcdGrant
	}
	t1 := time.Now()
	res, err := core.RunTrace(ctx, d, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	l.add("core.run", time.Since(t1)-ti.window())
	if a == core.Velodrome {
		ti.fold(l, "velodrome", "trace.replay")
		l.inc("velodrome.cycle_nodes", float64(res.Velo.CycleNodesVisited))
		l.inc("velodrome.checks", 1)
	} else {
		ti.fold(l, "icd", "trace.replay")
		l.inc("icd.sccs", float64(res.ICD.SCCs))
		l.inc("icd.logging_sccs", float64(res.ICD.SCCs))
		l.inc("pcd.precise_cycles", float64(res.PCD.PreciseCycles))
		l.inc("pcd.entries", float64(res.PCD.EntriesReplayed))
		l.inc("txn.log_entries", float64(res.Txn.LogEntries))
		l.inc("txn.log_elided", float64(res.Txn.LogElided))
	}
	cal.add(calibration{
		icdUnits:   float64(res.ICD.DetectionUnits + res.ICD.MaintenanceUnits),
		pcdUnits:   float64(res.OffCritical.Total),
		totalUnits: float64(res.Cost.Total + res.OffCritical.Total),
	})
	return d, res, nil
}

// octetInst drives a standalone Octet engine from a recorded event stream,
// instrumenting the accesses DoubleChecker instruments (fields and
// synchronization, not array elements).
type octetInst struct {
	vm.NopInst
	eng *octet.Engine
}

func (o *octetInst) ProgramStart(e vm.ExecView) { o.eng = octet.New(octet.NopHooks{}, e.Blocked, nil) }
func (o *octetInst) ThreadStart(t vm.ThreadID)  { o.eng.ThreadStart(t) }
func (o *octetInst) ThreadExit(t vm.ThreadID)   { o.eng.ThreadExit(t) }
func (o *octetInst) Access(a vm.Access) {
	if a.Class == vm.ClassArray {
		return
	}
	if a.Write {
		o.eng.BeforeWrite(a.Thread, a.Obj)
	} else {
		o.eng.BeforeRead(a.Thread, a.Obj)
	}
}

// probeLayers times the trace and Octet layers standalone over each input's
// recorded schedule: trace.Read, trace.Replay into a no-op, and trace.Replay
// into a bare Octet engine (whose extra time over the no-op replay is the
// barrier's).
func probeLayers(ctx context.Context, ins []*input, l *layers) error {
	for _, in := range ins {
		t0 := time.Now()
		d, err := trace.Read(bytes.NewReader(in.body))
		if err != nil {
			return fmt.Errorf("probe decode %s: %w", in.name, err)
		}
		l.add("probe.decode", time.Since(t0))
		l.inc("probe.bytes", float64(len(in.body)))

		t1 := time.Now()
		if err := trace.Replay(ctx, d, vm.NopInst{}); err != nil {
			return fmt.Errorf("probe replay %s: %w", in.name, err)
		}
		nop := time.Since(t1)
		l.add("probe.replay", nop)
		l.inc("probe.events", float64(d.Counts.Total()))

		oi := &octetInst{}
		t2 := time.Now()
		if err := trace.Replay(ctx, d, oi); err != nil {
			return fmt.Errorf("probe octet %s: %w", in.name, err)
		}
		l.add("probe.octet", time.Since(t2)-nop)
		st := oi.eng.Stats()
		n := d.Counts.FieldAccesses + d.Counts.SyncAccesses
		l.inc("octet.accesses", float64(n))
		l.inc("octet.fast", float64(st.FastPath))
	}
	return nil
}

// calibrationRow is one line of the cost-model calibration table.
type calibrationRow struct {
	layer         string
	units, ns     float64
	nsPerUnit     float64
	miscalibrated bool
}

// calibrate pairs each layer's modelled units with its measured self time:
// ICD detection and maintenance units with the transaction-boundary
// callbacks (where detection runs), PCD units with PCD replay, and the
// remaining units (VM base cost, Octet, logging, Velodrome) with VM dispatch
// and the access callbacks. Where PCD ran on the service's pool, untimed,
// its units count with the remainder's. A layer more than 3x off the median
// ns/unit marks a miscalibrated internal/cost constant.
func calibrate(l *layers, cal calibration) []calibrationRow {
	icdNs := float64(l.ns["icd.txend"] + l.ns["icd.other"])
	pcdNs := float64(l.ns["pcd.process"])
	restNs := float64(l.ns["vm.dispatch"] + l.ns["icd.access"] + l.ns["velodrome"])
	pcdUnits := cal.pcdUnits
	if pcdNs == 0 {
		pcdUnits = 0
	}
	rows := []calibrationRow{
		{layer: "icd.detect+maintain", units: cal.icdUnits, ns: icdNs},
		{layer: "pcd", units: pcdUnits, ns: pcdNs},
		{layer: "remainder", units: cal.totalUnits - cal.icdUnits - pcdUnits, ns: restNs},
	}
	var per []float64
	for i := range rows {
		r := &rows[i]
		if r.units > 0 && r.ns > 0 {
			r.nsPerUnit = r.ns / r.units
			per = append(per, r.nsPerUnit)
		}
	}
	med := median(per)
	for i := range rows {
		r := &rows[i]
		if r.nsPerUnit > 0 && (r.nsPerUnit > 3*med || r.nsPerUnit < med/3) {
			r.miscalibrated = true
		}
	}
	return rows
}
