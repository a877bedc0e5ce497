// Package core assembles the checkers into the configurations the paper
// evaluates: the Velodrome baseline (sound and unsound variants),
// DoubleChecker's single-run mode (ICD+PCD over one execution), the first
// run of multi-run mode (ICD only, no logging), the second run of multi-run
// mode (ICD+PCD restricted to the first run's static transaction
// information), Velodrome as a second run, and the PCD-only straw man
// (§5.4). It is the public surface the command-line tools, examples, and
// the evaluation harness drive.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"doublechecker/internal/cost"
	"doublechecker/internal/icd"
	"doublechecker/internal/obs"
	"doublechecker/internal/octet"
	"doublechecker/internal/pcd"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/txn"
	"doublechecker/internal/velodrome"
	"doublechecker/internal/vm"
)

// Analysis selects which checker configuration to attach to the execution.
type Analysis int

const (
	// Baseline runs the program uninstrumented (the "Unmodified Jikes RVM"
	// bar of Figure 7).
	Baseline Analysis = iota
	// Velodrome is the sound and precise baseline checker.
	Velodrome
	// VelodromeUnsound is the no-sync-when-unchanged variant (§5.3).
	VelodromeUnsound
	// DCSingle is DoubleChecker's single-run mode: ICD with logging + PCD.
	DCSingle
	// DCFirst is the first run of multi-run mode: ICD only, no logging.
	DCFirst
	// DCSecond is the second run of multi-run mode: ICD+PCD restricted by
	// the first run's static transaction information.
	DCSecond
	// VeloSecond runs Velodrome restricted by first-run output (§5.3
	// compares this against DCSecond).
	VeloSecond
	// PCDOnly is the §5.4 straw man: logging ICD, but PCD processes every
	// transaction instead of only ICD's SCCs.
	PCDOnly
)

var analysisNames = map[Analysis]string{
	Baseline:         "baseline",
	Velodrome:        "velodrome",
	VelodromeUnsound: "velodrome-unsound",
	DCSingle:         "dc-single",
	DCFirst:          "dc-first",
	DCSecond:         "dc-second",
	VeloSecond:       "velodrome-second",
	PCDOnly:          "pcd-only",
}

func (a Analysis) String() string {
	if s, ok := analysisNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Analysis(%d)", int(a))
}

// ParseAnalysis converts a CLI name to an Analysis.
func ParseAnalysis(s string) (Analysis, error) {
	for a, name := range analysisNames {
		if name == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown analysis %q", s)
}

// Config configures one checked execution.
type Config struct {
	// Analysis selects the checker configuration.
	Analysis Analysis
	// Seed drives the default scheduler; distinct seeds model the paper's
	// run-to-run nondeterminism.
	Seed int64
	// Sched overrides the scheduler (default: vm.NewRandom(Seed)).
	Sched vm.Scheduler
	// Atomic is the atomicity specification predicate.
	Atomic func(vm.MethodID) bool
	// Filter carries the first run's static transaction information into
	// DCSecond / VeloSecond; ignored by other analyses.
	Filter *txn.Filter
	// Meter, if non-nil, accumulates modelled cost; required for
	// performance experiments, optional for correctness runs.
	Meter *cost.Meter
	// InstrumentArrays enables array instrumentation with element
	// conflation and disables cycle detection (§5.4; Velodrome analyses
	// only — the base experiment excludes arrays everywhere).
	InstrumentArrays bool
	// DisableCycleDetection turns off cycle/SCC detection without touching
	// instrumentation — the §5.4 array experiment compares both of its
	// configurations with detection off.
	DisableCycleDetection bool
	// GCPeriod overrides the checkers' transaction-GC period.
	GCPeriod uint64
	// MaxSteps bounds the execution (0: vm default).
	MaxSteps uint64

	// NoElision, NoUnaryMerge and EagerDetect are ablation knobs for the
	// paper's design choices (log duplicate elision, unary-transaction
	// merging, deferred cycle detection); see eval's ablation experiment.
	NoElision    bool
	NoUnaryMerge bool
	EagerDetect  bool
	// ParallelPCD models the paper's §5.3 suggestion of running PCD off
	// the critical path: PCD's cost is charged to a separate meter
	// reported via Result.OffCritical instead of the main meter.
	ParallelPCD bool
	// PCDWorkers is ignored: PCD replays every SCC in line.
	//
	// Deprecated: the concurrent PCD pool it sized was slower than in-line
	// replay on every measured workload and has been removed; ParallelPCD
	// keeps §5.3's off-critical-path accounting as a cost model.
	PCDWorkers int
	// MemoryBudget, when positive and a Meter is attached, marks the run
	// out-of-memory once live analysis bytes exceed it — the 32-bit heap
	// phenomenon of §5.1 (the run continues; Result.Cost.OOM reports it).
	MemoryBudget int64

	// WrapInst, if non-nil, wraps the analysis' instrumentation just before
	// execution. It is the deterministic fault-injection seam (see
	// internal/faultinject) and is also useful for passive observers; it
	// must preserve the event stream it forwards.
	WrapInst func(vm.Instrumentation) vm.Instrumentation

	// Telemetry, if non-nil, receives every pipeline metric of the run: the
	// Octet transition mix, IDG/SCC statistics, PCD replay counters, the
	// Velodrome baseline's work, the phase spans, and the end-of-run VM and
	// cost summaries. Counters and gauges arrive when the run completes; an
	// aborted run adds only spans and histograms. A shared registry
	// accumulates across runs (that is how dcheck's -metrics-addr endpoint
	// reports a whole session); when nil, a private registry is created per
	// run so Result.Telemetry is always populated.
	Telemetry *telemetry.Registry
}

// Result reports one checked execution.
type Result struct {
	Analysis   Analysis
	Violations []txn.Violation
	// BlamedMethods is the union of blamed methods across violations —
	// the "static violations" Table 2 counts.
	BlamedMethods map[vm.MethodID]bool

	VMStats vm.Stats
	Cost    cost.Report

	// Checker-specific statistics (zero-valued when not applicable).
	ICD  icd.Stats
	PCD  pcd.Stats
	Velo velodrome.Stats
	Txn  txn.Stats

	// StaticMethods and StaticUnary are the first run's output (DCFirst;
	// also populated by DCSingle/DCSecond since ICD computes them anyway).
	// The map value counts how many imprecise SCCs the method's
	// transactions appeared in.
	StaticMethods map[vm.MethodID]int
	StaticUnary   bool

	// OffCritical is the modelled cost moved off the program's critical
	// path by ParallelPCD (zero otherwise).
	OffCritical cost.Report
	// OffCriticalPathCost is OffCritical.Total: the headline units of PCD
	// work that did not delay the program, the quantity §5.3's
	// off-critical-path argument is about.
	OffCriticalPathCost cost.Units

	// Telemetry is the run's metric snapshot (never nil after a successful
	// run). When Config.Telemetry was shared across runs the snapshot is
	// cumulative; Snapshot.Deterministic strips the only nondeterministic
	// fields (span wall times) for byte-stable comparison.
	Telemetry *telemetry.Snapshot
}

// BlamedMethodNames resolves blamed methods against prog, sorted.
func (r *Result) BlamedMethodNames(prog *vm.Program) []string {
	names := make([]string, 0, len(r.BlamedMethods))
	for m := range r.BlamedMethods {
		names = append(names, prog.MethodName(m))
	}
	sort.Strings(names)
	return names
}

// Run executes prog once under cfg and returns the result.
func Run(prog *vm.Program, cfg Config) (*Result, error) {
	return RunContext(context.Background(), prog, cfg)
}

// RunContext is Run under a context: cancellation or an expired deadline
// aborts the execution promptly, surfacing the context's error.
func RunContext(ctx context.Context, prog *vm.Program, cfg Config) (*Result, error) {
	sched := cfg.Sched
	if sched == nil {
		sched = vm.NewRandom(cfg.Seed)
	}
	return run(ctx, prog, cfg, true, func(ctx context.Context, inst vm.Instrumentation) (vm.Stats, error) {
		stats, err := vm.NewExec(prog, vm.Config{
			Sched:    sched,
			Inst:     inst,
			Atomic:   cfg.Atomic,
			Meter:    cfg.Meter,
			MaxSteps: cfg.MaxSteps,
		}).RunContext(ctx)
		return *stats, err
	})
}

// run is the one checked-run body behind RunContext and RunTrace: it builds
// the analysis selected by cfg, feeds it the event stream through drive — a
// live VM execution or a recorded trace — under the run's single execute
// span, then harvests the findings. live marks a VM driver, whose stats
// include the executor steps a trace does not record.
func run(ctx context.Context, prog *vm.Program, cfg Config, live bool,
	drive func(context.Context, vm.Instrumentation) (vm.Stats, error)) (*Result, error) {

	if cfg.Meter != nil && cfg.MemoryBudget > 0 {
		cfg.Meter.SetBudget(cfg.MemoryBudget)
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	res := &Result{Analysis: cfg.Analysis, BlamedMethods: make(map[vm.MethodID]bool)}

	runSpan, ctx := obs.StartSpan(ctx, telemetry.SpanCoreRun)
	runSpan.SetStr("analysis", cfg.Analysis.String())
	defer runSpan.End()

	inst, collect, err := buildAnalysis(runSpan, prog, cfg, res)
	if err != nil {
		return nil, err
	}
	if cfg.WrapInst != nil {
		inst = cfg.WrapInst(inst)
	}
	span := cfg.Telemetry.StartSpan(runSpan, telemetry.SpanExecute, cfg.Meter)
	res.VMStats, err = drive(ctx, inst)
	if live {
		span.SetInt("vm.steps", int64(res.VMStats.Steps))
	}
	span.SetInt("vm.tx.ends", int64(res.VMStats.TxEnds))
	span.End()
	if err != nil {
		res.Telemetry = cfg.Telemetry.Snapshot()
		return res, err
	}
	collectSpan, _ := obs.StartSpan(ctx, telemetry.SpanCoreCollect)
	collect()
	collectSpan.End()
	finishResult(res, cfg, live)
	runSpan.SetInt("violations", int64(len(res.Violations)))
	return res, nil
}

// finishResult derives the cross-analysis summary fields after collect:
// the union of blamed methods, the meter's report, and the telemetry
// snapshot.
func finishResult(res *Result, cfg Config, live bool) {
	for _, v := range res.Violations {
		for _, m := range v.BlamedMethods {
			res.BlamedMethods[m] = true
		}
	}
	res.OffCriticalPathCost = res.OffCritical.Total
	if cfg.Meter != nil {
		res.Cost = cfg.Meter.Report()
	}
	publishRunTelemetry(cfg.Telemetry, res, live, cfg.Meter != nil)
	res.Telemetry = cfg.Telemetry.Snapshot()
}

// publishRunTelemetry pushes the end-of-run summary quantities into the
// registry: the VM's ground-truth totals (counters: they accumulate when the
// registry is shared across runs) and latest-run summary gauges (aborted
// transactions, modelled cost, PCD's replayed-transaction fraction). Steps
// are published by live runs only and modelled cost by metered runs only,
// so neither reads a placeholder zero.
func publishRunTelemetry(reg *telemetry.Registry, res *Result, live, metered bool) {
	s := &res.VMStats
	if live {
		reg.Counter(telemetry.VMSteps).Add(s.Steps)
	}
	reg.Counter(telemetry.VMFieldAccesses).Add(s.FieldAccesses)
	reg.Counter(telemetry.VMArrayAccesses).Add(s.ArrayAccesses)
	reg.Counter(telemetry.VMSyncAccesses).Add(s.SyncAccesses)
	reg.Counter(telemetry.VMRegularTx).Add(s.RegularTx)
	reg.Counter(telemetry.VMTxEnds).Add(s.TxEnds)
	reg.Gauge(telemetry.VMAbortedTx).Set(float64(s.AbortedTx()))
	if metered {
		reg.Gauge(telemetry.CostTotal).Set(float64(res.Cost.Total))
		reg.Gauge(telemetry.CostGC).Set(float64(res.Cost.GC))
		reg.Gauge(telemetry.CostPeak).Set(float64(res.Cost.PeakBytes))
	}
	if res.Cost.OOM {
		reg.Gauge(telemetry.CostOOM).Set(1)
	}
	// Fraction of this run's transactions that ICD sent to PCD (distinct;
	// SCCs can re-report members). In (0,1] whenever PCD replayed anything.
	if denom := res.Txn.RegularTxns + res.Txn.UnaryTxns; denom > 0 && res.PCD.DistinctTxns > 0 {
		reg.Gauge(telemetry.PCDTxFraction).Set(float64(res.PCD.DistinctTxns) / float64(denom))
	}
}

// publishOctet publishes the Octet barrier outcomes (Table 1 / Figure 4).
// Like the other publish functions, it registers every counter, zero or not.
func publishOctet(reg *telemetry.Registry, s octet.Stats) {
	reg.Counter(telemetry.OctetFastPath).Add(s.FastPath)
	reg.Counter(telemetry.OctetInitial).Add(s.Initial)
	reg.Counter(telemetry.OctetUpgrading).Add(s.Upgrading)
	reg.Counter(telemetry.OctetFence).Add(s.Fences)
	reg.Counter(telemetry.OctetConflicting).Add(s.Conflicting)
	reg.Counter(telemetry.OctetRespondersExpl).Add(s.Explicit)
	reg.Counter(telemetry.OctetRespondersImpl).Add(s.Implicit)
}

// publishICD publishes the IDG's edges by Figure 4 handler, nodes and SCCs.
func publishICD(reg *telemetry.Registry, s icd.Stats) {
	reg.Counter(telemetry.IDGEdgesConflicting).Add(s.EdgesConflicting)
	reg.Counter(telemetry.IDGEdgesUpgradeRdEx).Add(s.EdgesUpgradeRdEx)
	reg.Counter(telemetry.IDGEdgesUpgradeRdSh).Add(s.EdgesUpgradeRdSh)
	reg.Counter(telemetry.IDGEdgesFence).Add(s.EdgesFence)
	reg.Counter(telemetry.IDGNodesRegular).Add(s.FinishedRegular)
	reg.Counter(telemetry.IDGNodesUnary).Add(s.FinishedUnary)
	reg.Counter(telemetry.ICDSCCs).Add(s.SCCs)
	reg.Counter(telemetry.ICDSCCTxns).Add(s.SCCTxns)
}

// publishPCD publishes PCD's replay volume.
func publishPCD(reg *telemetry.Registry, s pcd.Stats) {
	reg.Counter(telemetry.PCDSCCs).Add(s.SCCsProcessed)
	reg.Counter(telemetry.PCDTxns).Add(s.TxnsProcessed)
	reg.Counter(telemetry.PCDTxnsSent).Add(s.DistinctTxns)
	reg.Counter(telemetry.PCDEntries).Add(s.EntriesReplayed)
	reg.Counter(telemetry.PCDEdges).Add(s.PDGEdges)
	reg.Counter(telemetry.PCDCycles).Add(s.PreciseCycles)
}

// publishVelodrome publishes the Velodrome baseline's work: one metadata
// update per instrumented access, and sync skips under the unsound variant.
func publishVelodrome(reg *telemetry.Registry, s velodrome.Stats, unsound bool) {
	reg.Counter(telemetry.VeloMetadataUpdates).Add(s.InstrumentedAccesses)
	reg.Counter(telemetry.VeloEdges).Add(s.EdgesAdded)
	reg.Counter(telemetry.VeloCycleChecks).Add(s.CycleChecks)
	if unsound {
		reg.Counter(telemetry.VeloSyncFastSkips).Add(s.SyncFastSkips)
	}
}

// buildAnalysis assembles the checker configuration selected by cfg into an
// instrumentation plus a collect closure that harvests its findings into
// res once the event stream ends, and publishes its checkers' Stats to the
// registry. run calls collect only for a completed run, so an aborted run
// publishes no checker counter. It is shared by the live execution path
// (RunContext) and the trace replay path (RunTrace): both drive the same
// instrumentation, one from a VM, one from a file.
//
// The checkers have no context of their own (they sit behind the VM's
// instrumentation callbacks), so the run's span is handed to them as a
// parent handle: their phase spans become children of core.run.
func buildAnalysis(tspan obs.Span, prog *vm.Program, cfg Config, res *Result) (vm.Instrumentation, func(), error) {
	var inst vm.Instrumentation
	var collect func()

	switch cfg.Analysis {
	case Baseline:
		inst = vm.NopInst{}
		collect = func() {}

	case Velodrome, VelodromeUnsound, VeloSecond:
		opts := velodrome.Options{
			Unsound:          cfg.Analysis == VelodromeUnsound,
			InstrumentArrays: cfg.InstrumentArrays,
			GCPeriod:         cfg.GCPeriod,
			Telemetry:        cfg.Telemetry,
			TraceSpan:        tspan,
		}
		if cfg.InstrumentArrays || cfg.DisableCycleDetection {
			opts.DisableCycleDetection = true
		}
		if cfg.Analysis == VeloSecond {
			opts.Filter = cfg.Filter
		}
		v := velodrome.NewChecker(prog, cfg.Meter, opts)
		inst = v
		collect = func() {
			res.Violations = v.Violations()
			res.Velo = v.Stats()
			res.Txn = v.TxnStats()
			publishVelodrome(cfg.Telemetry, res.Velo, opts.Unsound)
		}

	case DCSingle, DCFirst, DCSecond, PCDOnly:
		var p *pcd.Checker
		logging := cfg.Analysis != DCFirst
		opts := icd.Options{Logging: logging, GCPeriod: cfg.GCPeriod, Telemetry: cfg.Telemetry, TraceSpan: tspan}
		if cfg.InstrumentArrays {
			opts.InstrumentArrays = true
			opts.DisableSCC = true
		}
		if cfg.DisableCycleDetection {
			opts.DisableSCC = true
		}
		if cfg.Analysis == DCSecond {
			opts.Filter = cfg.Filter
		}
		if cfg.Analysis == PCDOnly {
			// The straw man replays everything at program end; ICD's SCCs
			// are ignored, and GC must be effectively off so logs survive,
			// which is exactly why the paper's PCD-only runs exhaust
			// memory.
			opts.GCPeriod = 1 << 62
		}
		opts.NoElision = cfg.NoElision
		opts.NoUnaryMerge = cfg.NoUnaryMerge
		opts.EagerDetect = cfg.EagerDetect
		pcdMeter := cfg.Meter
		var offMeter *cost.Meter
		if cfg.ParallelPCD && cfg.Meter != nil {
			// Off-critical-path modelling: PCD replays on its own meter,
			// under the same memory budget as the main meter — a giant
			// SCC's replay spike must hit the modelled heap limit whether or
			// not it delays the program.
			offMeter = cost.NewMeter(cfg.Meter.Model())
			if cfg.MemoryBudget > 0 {
				offMeter.SetBudget(cfg.MemoryBudget)
			}
			pcdMeter = offMeter
		}
		if logging {
			p = pcd.NewChecker(pcdMeter, pcd.BySeq)
			p.SetTelemetry(cfg.Telemetry)
			p.SetTraceSpan(tspan)
			if cfg.Analysis != PCDOnly {
				opts.OnSCC = func(scc []*txn.Txn) { p.Process(scc) }
			}
		}
		ic := icd.NewChecker(prog, cfg.Meter, opts)
		inst = ic
		collect = func() {
			res.ICD = ic.Stats()
			res.Txn = ic.TxnStats()
			if cfg.Analysis == PCDOnly {
				p.Process(ic.Manager().All())
			}
			publishOctet(cfg.Telemetry, ic.OctetStats())
			publishICD(cfg.Telemetry, res.ICD)
			if p != nil {
				res.Violations = p.Violations()
				res.PCD = p.Stats()
				publishPCD(cfg.Telemetry, res.PCD)
			}
			res.StaticMethods, res.StaticUnary = ic.StaticInfo()
			if offMeter != nil {
				res.OffCritical = offMeter.Report()
			}
		}

	default:
		return nil, nil, fmt.Errorf("core: unknown analysis %v", cfg.Analysis)
	}

	return inst, collect, nil
}

// UnionFilter merges the static transaction information of several first
// runs into the filter for a second run (§5.1: "we execute 10 trials of the
// first run, take the union of the transactions reported as part of ICD
// cycles, and use it as input for the second run").
func UnionFilter(firsts []*Result) *txn.Filter {
	return UnionFilterMinSupport(firsts, 1)
}

// UnionFilterMinSupport is UnionFilter with a support threshold: a method
// joins the filter only if its transactions appeared in at least minSupport
// imprecise SCCs summed across the first runs. minSupport 1 is the paper's
// behavior; higher values implement its future-work suggestion of
// communicating potentially imprecise cycles more precisely, trading
// second-run coverage for less instrumentation.
func UnionFilterMinSupport(firsts []*Result, minSupport int) *txn.Filter {
	counts := make(map[vm.MethodID]int)
	unary := false
	for _, r := range firsts {
		for m, n := range r.StaticMethods {
			counts[m] += n
		}
		if r.StaticUnary {
			unary = true
		}
	}
	f := &txn.Filter{Methods: make(map[vm.MethodID]bool), Unary: unary}
	for m, n := range counts {
		if n >= minSupport {
			f.Methods[m] = true
		}
	}
	if len(f.Methods) == 0 {
		f.Unary = false // nothing monitored: skip unary instrumentation too
	}
	return f
}

// FirstRunFailure records one first run the multi-run pipeline tolerated
// losing: the first runs are an ensemble, so losing some of them shrinks the
// second run's filter but does not invalidate the pipeline.
type FirstRunFailure struct {
	// Index is the first run's position in the ensemble.
	Index int
	// Seed is the failing run's schedule seed.
	Seed int64
	// Err is the underlying error (errors.Is sees through it).
	Err error
}

// MultiRunOutcome is MultiRunContext's result.
type MultiRunOutcome struct {
	// Firsts holds the successful first runs, in seed order.
	Firsts []*Result
	// FirstFailures records the first runs that failed and were tolerated.
	FirstFailures []FirstRunFailure
	// Second is the filtered second run's result.
	Second *Result
}

// FirstRunSeed is the schedule seed of first run i in the multi-run trial
// with seed seed.
func FirstRunSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// MultiRunContext runs one trial of the paper's multi-run mode (§3.1):
// firstRuns ICD-only first runs under seeds FirstRunSeed(seed, i), the
// union of their static transaction information, then one second run under
// seed, restricted to that union. cfg builds each run's configuration from
// its analysis and seed; MultiRunContext then sets the run's Analysis, and
// the second run's Filter.
//
// Individual first-run failures are tolerated (the survivors' union feeds
// the second run) and recorded in FirstFailures; it errors only when every
// first run fails, when the second run fails, or on cancellation.
func MultiRunContext(ctx context.Context, prog *vm.Program, firstRuns int, seed int64,
	cfg func(a Analysis, seed int64) Config) (*MultiRunOutcome, error) {

	o := &MultiRunOutcome{}
	var firstErrs []error
	for i := 0; i < firstRuns; i++ {
		fseed := FirstRunSeed(seed, i)
		c := cfg(DCFirst, fseed)
		c.Analysis = DCFirst
		r, err := RunContext(ctx, prog, c)
		if err != nil {
			if ctx.Err() != nil {
				// Cancellation is a whole-pipeline abort, not a lost run.
				return o, err
			}
			o.FirstFailures = append(o.FirstFailures, FirstRunFailure{Index: i, Seed: fseed, Err: err})
			firstErrs = append(firstErrs, fmt.Errorf("first run %d (seed %d): %w", i, fseed, err))
			continue
		}
		o.Firsts = append(o.Firsts, r)
	}
	if len(o.Firsts) == 0 && firstRuns > 0 {
		return o, fmt.Errorf("all %d first runs failed: %w", firstRuns, errors.Join(firstErrs...))
	}
	c := cfg(DCSecond, seed)
	c.Analysis, c.Filter = DCSecond, UnionFilter(o.Firsts)
	var err error
	o.Second, err = RunContext(ctx, prog, c)
	return o, err
}
