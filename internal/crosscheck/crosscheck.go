// Package crosscheck is the systematic schedule-exploration and
// differential-testing harness: it hunts for executions on which this
// repository's checkers disagree with each other or with their own
// determinism contract, and shrinks any counterexample to a minimal
// standalone trace.
//
// Three oracles are checked on every explored execution:
//
//  1. Soundness containment (paper §3): every method blamed by a precise
//     checker appears in ICD's imprecise-cycle over-approximation
//     (core.TraceDiff.ICDMissed empty).
//  2. Precision equivalence (paper §5): DoubleChecker's single-run verdict
//     equals the sound-and-precise Velodrome verdict at blamed-method
//     granularity (core.TraceDiff.OnlyDC / OnlyVelo empty).
//  3. Repeat determinism: two metered replays of the execution under each
//     analysis render the same report, violation signatures, deterministic
//     telemetry snapshot and cost.
//
// Executions come from three exploration modes: a budgeted sweep of
// (workload, seed, scheduler) triples over the workload generators; random
// schedulers augmented with a PCT priority scheduler (vm.NewPCT); and
// exhaustive interleaving enumeration (vm.Enumerator) of the tiny corpus,
// where the oracles are checked on *every* interleaving.
package crosscheck

import (
	"bytes"
	"context"
	"fmt"
	"sort"

	"doublechecker/internal/core"
	"doublechecker/internal/cost"
	"doublechecker/internal/spec"
	"doublechecker/internal/trace"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

// NamedScheduler couples a scheduler constructor with the stable name that
// identifies it in triples, trace headers, and reports.
type NamedScheduler struct {
	Name string
	New  func(seed int64) vm.Scheduler
}

// pctHorizon is the step horizon PCT change points are sampled from; it
// comfortably covers every workload the harness generates.
const pctHorizon = 1 << 14

// DefaultSchedulers returns the harness's scheduler pool: uniform random,
// sticky random (realistic quantum-style preemption), and PCT with three
// priority-change points (adversarial targeted preemption).
func DefaultSchedulers() []NamedScheduler {
	return []NamedScheduler{
		{Name: "random", New: func(seed int64) vm.Scheduler { return vm.NewRandom(seed) }},
		{Name: "sticky(0.1)", New: func(seed int64) vm.Scheduler { return vm.NewSticky(seed, 0.1) }},
		{Name: "pct(3)", New: func(seed int64) vm.Scheduler { return vm.NewPCT(seed, 3, pctHorizon) }},
	}
}

// Source is one program the harness can execute: a workload plus its
// atomicity specification.
type Source struct {
	Name   string
	Prog   *vm.Program
	Atomic func(vm.MethodID) bool
}

// DefaultSources assembles the harness's workload pool: the tiny enumerable
// corpus, randN Random and richN RandomRich generated programs, and the
// named registry workloads (micros and stress generators) built at scale.
func DefaultSources(randN, richN int, micros []string, scale float64) ([]Source, error) {
	var out []Source
	for _, tp := range workloads.Tiny() {
		out = append(out, Source{Name: tp.Name, Prog: tp.Prog, Atomic: tp.Atomic})
	}
	for i := 0; i < randN; i++ {
		prog, atomic := workloads.Random(int64(1000 + i))
		out = append(out, Source{Name: prog.Name, Prog: prog, Atomic: atomic})
	}
	for i := 0; i < richN; i++ {
		prog, atomic := workloads.RandomRich(int64(2000 + i))
		out = append(out, Source{Name: prog.Name, Prog: prog, Atomic: atomic})
	}
	for _, name := range micros {
		b, err := workloads.Build(name, scale)
		if err != nil {
			return nil, err
		}
		sp := spec.Initial(b.Prog)
		if err := sp.ExcludeByName(b.InitialExclusions...); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, Source{Name: name, Prog: b.Prog, Atomic: sp.Atomic})
	}
	return out, nil
}

// Options configures an exploration sweep.
type Options struct {
	// Sources is the workload pool (default: DefaultSources(4, 3, nil, 0)).
	Sources []Source
	// Schedulers is the scheduler pool (default: DefaultSchedulers()).
	Schedulers []NamedScheduler
	// Budget is how many (workload, seed, scheduler) triples to explore
	// (default 60). The plan is deterministic: triple i pairs source
	// i%len(Sources) with scheduler (i/len(Sources))%len(Schedulers) and
	// seed SeedBase + i/(len(Sources)*len(Schedulers)), so any budget yields
	// distinct, reproducible triples.
	Budget int
	// SeedBase is the first schedule seed (default 1).
	SeedBase int64
	// MaxSteps bounds each recorded execution (0: vm default).
	MaxSteps uint64
	// ReproDir, when non-empty, receives a shrunk standalone .dct repro for
	// every oracle failure.
	ReproDir string
}

func (o Options) withDefaults() (Options, error) {
	if len(o.Sources) == 0 {
		srcs, err := DefaultSources(4, 3, nil, 0)
		if err != nil {
			return o, err
		}
		o.Sources = srcs
	}
	if len(o.Schedulers) == 0 {
		o.Schedulers = DefaultSchedulers()
	}
	if o.Budget == 0 {
		o.Budget = 60
	}
	if o.SeedBase == 0 {
		o.SeedBase = 1
	}
	return o, nil
}

// Triple identifies one explored execution.
type Triple struct {
	Source string `json:"source"`
	Sched  string `json:"sched"`
	Seed   int64  `json:"seed"`
}

func (t Triple) String() string {
	return fmt.Sprintf("%s/%s/seed=%d", t.Source, t.Sched, t.Seed)
}

// TripleResult is one explored execution's oracle verdicts.
type TripleResult struct {
	Triple
	// Events is the recorded execution's event count.
	Events uint64 `json:"events"`
	// Violations is DoubleChecker's single-run violation count.
	Violations int `json:"violations"`
	// Agree reports oracles 1 and 2: ICD containment held and
	// DC ≡ Velodrome at blamed-method granularity.
	Agree bool `json:"agree"`
	// Deterministic reports oracle 3: report bytes, violation signatures,
	// deterministic telemetry and cost identical across repeated replays.
	Deterministic bool `json:"deterministic"`
	// OnlyDC, OnlyVelo and ICDMissed carry the disagreement detail when
	// Agree is false (see core.TraceDiff).
	OnlyDC    []string `json:"only_dc,omitempty"`
	OnlyVelo  []string `json:"only_velo,omitempty"`
	ICDMissed []string `json:"icd_missed,omitempty"`
	// DetDiag names what diverged when Deterministic is false.
	DetDiag string `json:"det_diag,omitempty"`
}

// OK reports whether every oracle passed.
func (r TripleResult) OK() bool { return r.Agree && r.Deterministic }

// Record executes src once under the named scheduler and seed, teeing the
// event stream into an in-memory trace, and returns the decoded trace. The
// live run uses the Baseline analysis: recording is the only job; every
// checker then replays the identical interleaving.
func Record(ctx context.Context, src Source, seed int64, sched NamedScheduler, maxSteps uint64) (*trace.Data, error) {
	var atomicIDs []vm.MethodID
	for _, m := range src.Prog.Methods {
		if src.Atomic(m.ID) {
			atomicIDs = append(atomicIDs, m.ID)
		}
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{
		Program: src.Prog,
		Atomic:  atomicIDs,
		Seed:    seed,
		Sched:   sched.Name,
		Source:  fmt.Sprintf("crosscheck:%s", src.Name),
	})
	if err != nil {
		return nil, err
	}
	_, err = core.RecordRun(ctx, src.Prog, w, core.RecordConfig{
		Config: core.Config{
			Analysis: core.Baseline,
			Sched:    sched.New(seed),
			Atomic:   src.Atomic,
			MaxSteps: maxSteps,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("record %s: %w", src.Name, err)
	}
	return trace.Read(bytes.NewReader(buf.Bytes()))
}

// CheckData runs all three oracles over one decoded trace.
func CheckData(ctx context.Context, d *trace.Data) (TripleResult, error) {
	var r TripleResult
	r.Events = d.Counts.Total()

	td, err := core.DiffTrace(ctx, d)
	if err != nil {
		return r, err
	}
	r.Violations = len(td.DCViolations)
	r.Agree = td.Agree()
	r.OnlyDC, r.OnlyVelo, r.ICDMissed = td.OnlyDC, td.OnlyVelo, td.ICDMissed

	ok, diag, err := CheckDeterminism(ctx, d)
	if err != nil {
		return r, err
	}
	r.Deterministic = ok
	r.DetDiag = diag
	return r, nil
}

// determinismAnalyses are the analyses oracle 3 replays: both of
// DoubleChecker's logging configurations, its unlogged first run, and both
// Velodrome variants.
var determinismAnalyses = []core.Analysis{
	core.DCSingle, core.DCFirst, core.PCDOnly, core.Velodrome, core.VelodromeUnsound,
}

// CheckDeterminism is oracle 3 on its own: replay the trace twice under each
// analysis, each replay with a fresh cost.Default() meter, and require
// byte-identical rendered reports, violation signatures and deterministic
// telemetry snapshots, and equal cost reports. Returns a diagnosis naming
// the analysis and the first divergence found.
func CheckDeterminism(ctx context.Context, d *trace.Data) (bool, string, error) {
	type outcome struct {
		report, sigs string
		tel          []byte
		cost         cost.Report
	}
	replay := func(a core.Analysis) (outcome, error) {
		res, err := core.RunTrace(ctx, d, core.Config{Analysis: a, Meter: cost.NewMeter(cost.Default())})
		if err != nil {
			return outcome{}, fmt.Errorf("%v: %w", a, err)
		}
		return outcome{
			report: core.ReplayReport(d.Header.Source, d, res),
			sigs:   fmt.Sprint(core.ViolationSignatures(res, d.Header.Program)),
			tel:    res.Telemetry.Deterministic().JSON(),
			cost:   res.Cost,
		}, nil
	}
	for _, a := range determinismAnalyses {
		first, err := replay(a)
		if err != nil {
			return false, "", err
		}
		second, err := replay(a)
		if err != nil {
			return false, "", err
		}
		switch {
		case second.report != first.report:
			return false, fmt.Sprintf("%v: report bytes diverge between replays", a), nil
		case second.sigs != first.sigs:
			return false, fmt.Sprintf("%v: violation signatures diverge between replays", a), nil
		case !bytes.Equal(second.tel, first.tel):
			return false, fmt.Sprintf("%v: deterministic telemetry diverges between replays", a), nil
		case second.cost != first.cost:
			return false, fmt.Sprintf("%v: cost diverges between replays (%d vs %d units)", a, first.cost.Total, second.cost.Total), nil
		}
	}
	return true, "", nil
}

// CheckTriple records one triple and runs the oracles, returning the decoded
// trace alongside so a failure can be shrunk.
func CheckTriple(ctx context.Context, src Source, seed int64, sched NamedScheduler, opts Options) (TripleResult, *trace.Data, error) {
	d, err := Record(ctx, src, seed, sched, opts.MaxSteps)
	if err != nil {
		return TripleResult{}, nil, err
	}
	r, err := CheckData(ctx, d)
	r.Triple = Triple{Source: src.Name, Sched: sched.Name, Seed: seed}
	return r, d, err
}

// Failure is one oracle failure, with the shrunk repro's path when a repro
// directory was configured.
type Failure struct {
	TripleResult
	ReproPath   string `json:"repro_path,omitempty"`
	ReproEvents int    `json:"repro_events,omitempty"`
}

// Report summarizes one exploration sweep.
type Report struct {
	Triples        int `json:"triples"`
	Agreed         int `json:"agreed"`
	Deterministic  int `json:"deterministic"`
	WithViolations int `json:"with_violations"`
	// Failures lists every triple on which an oracle failed; empty means the
	// sweep found no checker discrepancy.
	Failures []Failure `json:"failures,omitempty"`
}

// Summary renders the report in one line.
func (rep *Report) Summary() string {
	if len(rep.Failures) == 0 {
		return fmt.Sprintf("crosscheck: %d triple(s) explored, %d with violations, all oracles passed",
			rep.Triples, rep.WithViolations)
	}
	return fmt.Sprintf("crosscheck: %d triple(s) explored, %d ORACLE FAILURE(S)",
		rep.Triples, len(rep.Failures))
}

// Explore runs a budgeted sweep of (workload, seed, scheduler) triples and
// checks the three oracles on each. Oracle failures are shrunk and written
// into Options.ReproDir when set.
func Explore(ctx context.Context, opts Options) (*Report, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	perRound := len(opts.Sources) * len(opts.Schedulers)
	for i := 0; i < opts.Budget; i++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		src := opts.Sources[i%len(opts.Sources)]
		sched := opts.Schedulers[(i/len(opts.Sources))%len(opts.Schedulers)]
		seed := opts.SeedBase + int64(i/perRound)
		r, d, err := CheckTriple(ctx, src, seed, sched, opts)
		if err != nil {
			return rep, fmt.Errorf("%s/%s/seed=%d: %w", src.Name, sched.Name, seed, err)
		}
		rep.Triples++
		if r.Agree {
			rep.Agreed++
		}
		if r.Deterministic {
			rep.Deterministic++
		}
		if r.Violations > 0 {
			rep.WithViolations++
		}
		if !r.OK() {
			f := Failure{TripleResult: r}
			if opts.ReproDir != "" {
				path, events, err := shrinkAndWrite(ctx, d, r, opts)
				if err != nil {
					return rep, fmt.Errorf("shrinking %s: %w", r.Triple, err)
				}
				f.ReproPath, f.ReproEvents = path, events
			}
			rep.Failures = append(rep.Failures, f)
		}
	}
	return rep, nil
}

// EnumReport is one tiny program's exhaustive enumeration result.
type EnumReport struct {
	Source string `json:"source"`
	// Interleavings is how many complete interleavings exist (and were all
	// checked) within the step limit.
	Interleavings uint64 `json:"interleavings"`
	// Truncated reports that some run exceeded the step limit, making the
	// walk exhaustive only up to it.
	Truncated bool `json:"truncated"`
	// Agreed and Deterministic count interleavings that passed oracles 1+2
	// and 3; both equal Interleavings when every oracle held everywhere.
	Agreed         uint64 `json:"agreed"`
	Deterministic  uint64 `json:"deterministic"`
	WithViolations uint64 `json:"with_violations"`
}

// Enumerate exhaustively walks every interleaving of src (up to stepLimit
// scheduling decisions per run) and checks the three oracles on each one.
// maxRuns caps the walk as a safety net against schedule-tree explosion; 0
// means no cap.
func Enumerate(ctx context.Context, src Source, stepLimit int, maxRuns uint64) (*EnumReport, error) {
	en := vm.NewEnumerator(stepLimit)
	rep := &EnumReport{Source: src.Name}
	sched := NamedScheduler{Name: "enumerate", New: func(int64) vm.Scheduler { return en }}
	for {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		d, err := Record(ctx, src, 0, sched, 0)
		if err != nil {
			return rep, err
		}
		r, err := CheckData(ctx, d)
		if err != nil {
			return rep, err
		}
		if r.Agree {
			rep.Agreed++
		}
		if r.Deterministic {
			rep.Deterministic++
		}
		if r.Violations > 0 {
			rep.WithViolations++
		}
		if !en.Advance() {
			break
		}
		if maxRuns > 0 && en.Runs() >= maxRuns {
			rep.Truncated = true
			break
		}
	}
	rep.Interleavings = en.Runs()
	rep.Truncated = rep.Truncated || en.Overflowed()
	return rep, nil
}

// sortedMethodIDs renders a blamed-method ID set in stable order; mutation
// invariance checks compare these (names may be renamed, IDs may not).
func sortedMethodIDs(set map[vm.MethodID]bool) []int {
	out := make([]int, 0, len(set))
	for m := range set {
		out = append(out, int(m))
	}
	sort.Ints(out)
	return out
}
