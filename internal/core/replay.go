// Trace replay: run any checker configuration over a recorded event stream
// with no VM, and diff checkers against each other on a guaranteed
// identical interleaving.

package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"doublechecker/internal/telemetry"
	"doublechecker/internal/trace"
	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
)

// RunTrace replays a decoded trace through the checker configuration
// selected by cfg — no VM is constructed; the trace's recorded events drive
// the instrumentation directly. The trace's embedded atomicity
// specification is used when cfg.Atomic is nil; cfg.Seed and cfg.Sched are
// ignored (the interleaving is the recorded one). Replay-incompatible
// analyses are rejected: there is nothing to replay for Baseline, and
// filtered second runs are supported like any other configuration.
//
// Result.VMStats is reconstructed from the trace's event counts: the
// event-derived fields (accesses, transactions, thread lifecycle) are
// exact; executor-internal counters (steps, waits, compute units) are zero
// because a trace does not record them.
func RunTrace(ctx context.Context, d *trace.Data, cfg Config) (*Result, error) {
	if cfg.Analysis == Baseline {
		return nil, fmt.Errorf("core: analysis %v does not consume events; nothing to replay", cfg.Analysis)
	}
	if cfg.Atomic == nil {
		cfg.Atomic = d.Header.AtomicSet()
	}
	return run(ctx, d.Header.Program, cfg, false, func(ctx context.Context, inst vm.Instrumentation) (vm.Stats, error) {
		return statsFromCounts(d.Counts), trace.Replay(ctx, d, inst)
	})
}

// statsFromCounts lifts a trace's event counts into the vm.Stats shape so
// replayed results report the same access/transaction totals as live ones.
func statsFromCounts(c vm.EventCounts) vm.Stats {
	return vm.Stats{
		FieldAccesses: c.FieldAccesses,
		ArrayAccesses: c.ArrayAccesses,
		SyncAccesses:  c.SyncAccesses,
		RegularTx:     c.TxBegins,
		TxEnds:        c.TxEnds,
		ThreadStarts:  c.ThreadStarts,
		ThreadExits:   c.ThreadExits,
	}
}

// ViolationSignature renders one violation as a stable, comparable string:
// cycle size plus the sorted blamed method names. Two checkers that report
// the same signature multiset on the same trace found the same violations.
func ViolationSignature(v txn.Violation, prog *vm.Program) string {
	names := make([]string, 0, len(v.BlamedMethods))
	for _, m := range v.BlamedMethods {
		names = append(names, prog.MethodName(m))
	}
	sort.Strings(names)
	return fmt.Sprintf("cycle=%d blamed=[%s]", len(v.Cycle), strings.Join(names, ","))
}

// ViolationSignatures renders all of a result's violations, sorted.
func ViolationSignatures(res *Result, prog *vm.Program) []string {
	sigs := make([]string, 0, len(res.Violations))
	for _, v := range res.Violations {
		sigs = append(sigs, ViolationSignature(v, prog))
	}
	sort.Strings(sigs)
	return sigs
}

// BlameSignatures renders a result's violations as the deduplicated, sorted
// set of blamed-method groups — the cross-checker comparison unit. Cycle
// length is deliberately excluded: two sound checkers may thread different
// cycles through the same conflicting transactions (PCD reports the SCC's
// cycle, Velodrome the cycle its edge insertion closed), and Table 2 of the
// paper compares checkers on blamed methods, not cycle shapes.
func BlameSignatures(res *Result, prog *vm.Program) []string {
	set := make(map[string]bool)
	for _, v := range res.Violations {
		names := make([]string, 0, len(v.BlamedMethods))
		for _, m := range v.BlamedMethods {
			names = append(names, prog.MethodName(m))
		}
		sort.Strings(names)
		set["blamed=["+strings.Join(names, ",")+"]"] = true
	}
	sigs := make([]string, 0, len(set))
	for s := range set {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	return sigs
}

// TraceDiff is DiffTrace's verdict: the same interleaving checked by
// DoubleChecker's single-run mode, by Velodrome, and by the ICD-only first
// run, with the violation sets compared.
type TraceDiff struct {
	// Source identifies the trace (Header.Source).
	Source string
	// DC, Velo, and First are the three replayed results (single-run
	// DoubleChecker, Velodrome, ICD-only first run).
	DC    *Result
	Velo  *Result
	First *Result
	// DCViolations and VeloViolations are the sorted full violation
	// signatures (cycle size + blamed methods), for display.
	DCViolations   []string
	VeloViolations []string
	// OnlyDC and OnlyVelo are the blame signatures reported by exactly one
	// checker (see BlameSignatures). Both empty means the checkers agree.
	OnlyDC   []string
	OnlyVelo []string
	// ICDMissed lists methods a precise checker blamed that ICD's
	// imprecise first pass did not flag — each entry is a soundness
	// violation of the ICD over-approximation, so this must stay empty.
	ICDMissed []string
	// DCTelemetry, VeloTelemetry, and FirstTelemetry are the per-checker
	// deterministic telemetry snapshots (span wall times stripped): when the
	// checkers disagree, the divergence report carries each one's pipeline
	// metrics so the disagreement can be localized to a stage.
	DCTelemetry    *telemetry.Snapshot
	VeloTelemetry  *telemetry.Snapshot
	FirstTelemetry *telemetry.Snapshot
}

// Agree reports whether DoubleChecker and Velodrome found exactly the same
// violations and ICD's over-approximation covered everything blamed.
func (td *TraceDiff) Agree() bool {
	return len(td.OnlyDC) == 0 && len(td.OnlyVelo) == 0 && len(td.ICDMissed) == 0
}

// Summary renders the verdict in one line.
func (td *TraceDiff) Summary() string {
	if td.Agree() {
		return fmt.Sprintf("agree: %d violation(s)", len(td.DCViolations))
	}
	return fmt.Sprintf("DISAGREE: only-dc=%d only-velodrome=%d icd-missed=%d",
		len(td.OnlyDC), len(td.OnlyVelo), len(td.ICDMissed))
}

// DiffTrace replays one trace through single-run DoubleChecker, Velodrome,
// and the ICD-only first run, and diffs what they found. Because all three
// consume the identical recorded interleaving, any difference is a checker
// discrepancy, not schedule nondeterminism — this is the differential
// harness the trace format exists to make possible.
func DiffTrace(ctx context.Context, d *trace.Data) (*TraceDiff, error) {
	prog := d.Header.Program
	dc, err := RunTrace(ctx, d, Config{Analysis: DCSingle})
	if err != nil {
		return nil, fmt.Errorf("dc-single replay: %w", err)
	}
	velo, err := RunTrace(ctx, d, Config{Analysis: Velodrome})
	if err != nil {
		return nil, fmt.Errorf("velodrome replay: %w", err)
	}
	first, err := RunTrace(ctx, d, Config{Analysis: DCFirst})
	if err != nil {
		return nil, fmt.Errorf("dc-first replay: %w", err)
	}
	td := &TraceDiff{
		Source:         d.Header.Source,
		DC:             dc,
		Velo:           velo,
		First:          first,
		DCViolations:   ViolationSignatures(dc, prog),
		VeloViolations: ViolationSignatures(velo, prog),
		DCTelemetry:    dc.Telemetry.Deterministic(),
		VeloTelemetry:  velo.Telemetry.Deterministic(),
		FirstTelemetry: first.Telemetry.Deterministic(),
	}
	td.OnlyDC, td.OnlyVelo = diffMultisets(BlameSignatures(dc, prog), BlameSignatures(velo, prog))

	// Soundness containment: every method blamed by a precise checker must
	// appear in ICD's static over-approximation.
	blamed := make(map[vm.MethodID]bool)
	for m := range dc.BlamedMethods {
		blamed[m] = true
	}
	for m := range velo.BlamedMethods {
		blamed[m] = true
	}
	for m := range blamed {
		if _, ok := first.StaticMethods[m]; !ok {
			td.ICDMissed = append(td.ICDMissed, prog.MethodName(m))
		}
	}
	sort.Strings(td.ICDMissed)
	return td, nil
}

// diffMultisets returns the elements of a not matched in b and vice versa;
// both inputs must be sorted.
func diffMultisets(a, b []string) (onlyA, onlyB []string) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			onlyA = append(onlyA, a[i])
			i++
		default:
			onlyB = append(onlyB, b[j])
			j++
		}
	}
	onlyA = append(onlyA, a[i:]...)
	onlyB = append(onlyB, b[j:]...)
	return onlyA, onlyB
}

// RecordConfig configures RecordRun: one live checked execution teed into a
// trace writer.
type RecordConfig struct {
	// Config is the checker configuration for the live run (Baseline
	// records without checking).
	Config
	// Source is stored in the trace header (free-form provenance note).
	Source string
}

// RecordRun executes prog once under rc, recording the full event stream
// into w alongside whatever analysis rc selects. It verifies recorder
// completeness — every event the executor emitted was written — and closes
// the trace writer (not the underlying file). The returned Result is the
// live run's.
func RecordRun(ctx context.Context, prog *vm.Program, w *trace.Writer, rc RecordConfig) (*Result, error) {
	var rec *trace.Recorder
	prev := rc.WrapInst
	rc.WrapInst = func(inner vm.Instrumentation) vm.Instrumentation {
		if prev != nil {
			inner = prev(inner)
		}
		rec = trace.NewRecorder(w, inner)
		return rec
	}
	res, err := RunContext(ctx, prog, rc.Config)
	if err != nil {
		return res, err
	}
	if got, want := rec.Counts(), res.VMStats.Events(); got != want {
		return res, fmt.Errorf("core: recorder incomplete: recorded {%v}, executor emitted {%v}", got, want)
	}
	if err := w.Close(); err != nil {
		return res, fmt.Errorf("core: finalize trace: %w", err)
	}
	return res, nil
}
