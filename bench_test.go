// Package doublechecker's root benchmark harness: one testing.B benchmark
// per table and figure of the paper (see DESIGN.md's experiment index), plus
// component micro-benchmarks for the substrates. Each experiment benchmark
// runs the same driver code as `dcbench`, at reduced trial counts so
// `go test -bench=. -benchmem` completes in minutes; run dcbench directly
// for the full-size regeneration.
package doublechecker

import (
	"testing"

	"doublechecker/internal/core"
	"doublechecker/internal/cost"
	"doublechecker/internal/eval"
	"doublechecker/internal/octet"
	"doublechecker/internal/spec"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

// benchOpts keeps experiment benchmarks quick but representative.
func benchOpts(benchmarks ...string) eval.Options {
	return eval.Options{
		Scale:        0.3,
		PerfTrials:   3,
		StatTrials:   2,
		RefineStable: 3,
		FirstRuns:    5,
		Benchmarks:   benchmarks,
	}
}

// BenchmarkTable1OctetTransitions measures the Octet barrier costs that
// Table 1 classifies: the read-only fast path against the slow paths.
func BenchmarkTable1OctetTransitions(b *testing.B) {
	b.Run("fast-path", func(b *testing.B) {
		e := octet.New(nil, nil, nil)
		e.ThreadStart(0)
		e.BeforeWrite(0, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.BeforeWrite(0, 1) // same state: fast path
		}
	})
	b.Run("conflicting", func(b *testing.B) {
		e := octet.New(nil, nil, nil)
		e.ThreadStart(0)
		e.ThreadStart(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.BeforeWrite(vm.ThreadID(i%2), 1) // ping-pong: conflict each time
		}
	})
	b.Run("rdsh-reads", func(b *testing.B) {
		e := octet.New(nil, nil, nil)
		for t := vm.ThreadID(0); t < 4; t++ {
			e.ThreadStart(t)
		}
		e.BeforeRead(0, 1)
		e.BeforeRead(1, 1) // -> RdSh
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.BeforeRead(vm.ThreadID(i%4), 1) // fence once per thread, then fast
		}
	})
}

// BenchmarkTable2Violations regenerates Table 2 (iterative refinement under
// three checkers) on a representative subset.
func BenchmarkTable2Violations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.NewRunner(benchOpts("hsqldb6", "tsp", "philo"))
		if _, err := r.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7 regenerates Figure 7's normalized-execution-time bars on
// a representative subset.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.NewRunner(benchOpts("hsqldb6", "tsp", "moldyn"))
		if _, err := r.Figure7(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7PerConfig measures each checker configuration once per
// iteration on one benchmark, reporting the modelled slowdown as a custom
// metric — the per-bar view of Figure 7.
func BenchmarkFigure7PerConfig(b *testing.B) {
	built, err := workloads.Build("hsqldb6", 0.3)
	if err != nil {
		b.Fatal(err)
	}
	sp := spec.Initial(built.Prog)
	if err := sp.ExcludeByName(built.InitialExclusions...); err != nil {
		b.Fatal(err)
	}
	for _, a := range []core.Analysis{
		core.Baseline, core.Velodrome, core.VelodromeUnsound,
		core.DCSingle, core.DCFirst,
	} {
		b.Run(a.String(), func(b *testing.B) {
			var norm float64
			for i := 0; i < b.N; i++ {
				base := cost.NewMeter(cost.Default())
				if _, err := core.Run(built.Prog, core.Config{
					Analysis: core.Baseline, Sched: vm.NewSticky(int64(i), built.Stickiness),
					Atomic: sp.Atomic, Meter: base,
				}); err != nil {
					b.Fatal(err)
				}
				meter := cost.NewMeter(cost.Default())
				if _, err := core.Run(built.Prog, core.Config{
					Analysis: a, Sched: vm.NewSticky(int64(i), built.Stickiness),
					Atomic: sp.Atomic, Meter: meter,
				}); err != nil {
					b.Fatal(err)
				}
				norm = meter.Report().Normalized(base.Total())
			}
			b.ReportMetric(norm, "slowdown-x")
		})
	}
}

// BenchmarkTable3Characteristics regenerates Table 3's run-time statistics.
func BenchmarkTable3Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.NewRunner(benchOpts("tsp", "jython9"))
		if _, err := r.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSec54Refinement regenerates the refinement-stage overhead
// experiment.
func BenchmarkSec54Refinement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.NewRunner(benchOpts("hsqldb6"))
		if _, err := r.RefinementStages(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSec54Arrays regenerates the array-instrumentation experiment.
func BenchmarkSec54Arrays(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.NewRunner(benchOpts("sor", "moldyn"))
		if _, err := r.Arrays(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSec54PCDOnly regenerates the PCD-only straw-man experiment.
func BenchmarkSec54PCDOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.NewRunner(benchOpts("hsqldb6", "montecarlo"))
		if _, err := r.PCDOnly(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations runs the design-choice ablation study (E11).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.NewRunner(benchOpts("tsp"))
		if _, err := r.Ablations(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterPrecision runs the first-to-second-run communication
// precision sweep (E12, the paper's future-work suggestion).
func BenchmarkFilterPrecision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.NewRunner(benchOpts("eclipse6"))
		if _, err := r.FilterPrecision(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Component micro-benchmarks.

// BenchmarkVMInterpreter measures raw uninstrumented interpretation
// throughput (operations per iteration reported as allocations stay flat).
func BenchmarkVMInterpreter(b *testing.B) {
	built, err := workloads.Build("moldyn", 0.3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.NewExec(built.Prog, vm.Config{
			Sched: vm.NewSticky(int64(i), built.Stickiness),
		}).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckers compares host-CPU cost of each checker over the same
// workload (distinct from the modelled cost the paper's figures use).
func BenchmarkCheckers(b *testing.B) {
	built, err := workloads.Build("hsqldb6", 0.3)
	if err != nil {
		b.Fatal(err)
	}
	sp := spec.Initial(built.Prog)
	if err := sp.ExcludeByName(built.InitialExclusions...); err != nil {
		b.Fatal(err)
	}
	configs := []struct {
		name string
		mut  func(*core.Config)
	}{
		{"velodrome", func(c *core.Config) { c.Analysis = core.Velodrome }},
		{"dc-single", func(c *core.Config) { c.Analysis = core.DCSingle }},
		{"dc-first", func(c *core.Config) { c.Analysis = core.DCFirst }},
	}
	for _, cfgDesc := range configs {
		b.Run(cfgDesc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.Config{
					Sched:  vm.NewSticky(int64(i), built.Stickiness),
					Atomic: sp.Atomic,
				}
				cfgDesc.mut(&cfg)
				if _, err := core.Run(built.Prog, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkloadBuild measures generator cost across the suite.
func BenchmarkWorkloadBuild(b *testing.B) {
	names := workloads.All()
	for i := 0; i < b.N; i++ {
		if _, err := workloads.Build(names[i%len(names)], 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiRunPipeline measures the full first-runs + second-run flow.
func BenchmarkMultiRunPipeline(b *testing.B) {
	built, err := workloads.Build("tsp", 0.3)
	if err != nil {
		b.Fatal(err)
	}
	sp := spec.Initial(built.Prog)
	if err := sp.ExcludeByName(built.InitialExclusions...); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.MultiRun(built.Prog, sp.Atomic, 5, int64(i*100), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// sanity: the experiment benchmarks should also run as tests (cheaply) so
// `go test ./...` exercises them once.
func TestBenchHarnessSmoke(t *testing.T) {
	r := eval.NewRunner(benchOpts("philo", "tsp"))
	d, err := r.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 2 {
		t.Fatalf("rows: %d", len(d.Rows))
	}
	for _, row := range d.Rows {
		if row.Name == "philo" && row.Single != 0 {
			t.Error("philo must be clean")
		}
	}
}
