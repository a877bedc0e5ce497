package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"doublechecker/internal/crosscheck"
	"doublechecker/internal/workloads"
)

// crosscheckEnumStepLimit bounds one enumerated run; the tiny corpus
// finishes far below it, so the walk is exhaustive.
const crosscheckEnumStepLimit = 64

// crosscheckEnumMaxRuns is the schedule-tree safety net for enumeration.
const crosscheckEnumMaxRuns = 4096

// CrosscheckData is the dump written by `dcbench -experiment crosscheck`
// (BENCH_crosscheck.json). Every field is a count or a verdict derived from
// seeded executions — no wall clocks — so the whole file is byte-reproducible
// across runs and machines at a fixed budget and seed base.
type CrosscheckData struct {
	// Budget is the sweep's (workload, scheduler, seed) triple count.
	Budget int `json:"budget"`
	// SeedBase is the sweep's first seed.
	SeedBase int64 `json:"seed_base"`
	// Enumerations is the tiny corpus walked exhaustively: every
	// interleaving of every program, each checked against all three oracles.
	Enumerations []crosscheck.EnumReport `json:"enumerations"`
	// Sweep is the budgeted random/sticky/PCT exploration over the default
	// source mix.
	Sweep *crosscheck.Report `json:"sweep"`
}

// Crosscheck runs the schedule-exploration cross-checking experiment: the
// paper's soundness (§3: ICD over-approximates PCD) and precision (§5:
// DoubleChecker ≡ Velodrome at blamed-method granularity) theorems plus
// repeat determinism, checked on every explored execution.
func (r *Runner) Crosscheck() (*CrosscheckData, error) {
	ctx := context.Background()
	data := &CrosscheckData{Budget: r.opts.CrosscheckBudget, SeedBase: 1}
	for _, tp := range workloads.Tiny() {
		rep, err := crosscheck.Enumerate(ctx,
			crosscheck.Source{Name: tp.Name, Prog: tp.Prog, Atomic: tp.Atomic},
			crosscheckEnumStepLimit, crosscheckEnumMaxRuns)
		if err != nil {
			return nil, fmt.Errorf("enumerate %s: %w", tp.Name, err)
		}
		data.Enumerations = append(data.Enumerations, *rep)
	}
	sweep, err := crosscheck.Explore(ctx, crosscheck.Options{
		Budget:   data.Budget,
		SeedBase: data.SeedBase,
	})
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	data.Sweep = sweep
	return data, nil
}

// OK reports that every oracle held on every enumerated interleaving and
// every swept triple.
func (d *CrosscheckData) OK() bool {
	for _, e := range d.Enumerations {
		if e.Agreed != e.Interleavings || e.Deterministic != e.Interleavings {
			return false
		}
	}
	return d.Sweep != nil && len(d.Sweep.Failures) == 0 &&
		d.Sweep.Agreed == d.Sweep.Triples && d.Sweep.Deterministic == d.Sweep.Triples
}

// JSON renders the dump as indented JSON; byte-reproducible at a fixed
// budget and seed base.
func (d *CrosscheckData) JSON() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		panic("eval: crosscheck encode: " + err.Error())
	}
	return buf.Bytes()
}

// RenderCrosscheck prints the human-readable table.
func (d *CrosscheckData) RenderCrosscheck() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-checking (budget %d, seed base %d)\n", d.Budget, d.SeedBase)
	fmt.Fprintf(&b, "%-14s %14s %10s %8s %8s %10s\n",
		"program", "interleavings", "truncated", "agree", "det", "violating")
	for _, e := range d.Enumerations {
		fmt.Fprintf(&b, "%-14s %14d %10v %8d %8d %10d\n",
			e.Source, e.Interleavings, e.Truncated, e.Agreed, e.Deterministic, e.WithViolations)
	}
	if d.Sweep != nil {
		fmt.Fprintf(&b, "%s\n", d.Sweep.Summary())
		for _, f := range d.Sweep.Failures {
			fmt.Fprintf(&b, "  FAILURE %s: agree=%v det=%v %s\n",
				f.Triple, f.Agree, f.Deterministic, f.DetDiag)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}
