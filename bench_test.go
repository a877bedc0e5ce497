// Package doublechecker's root benchmark harness: component
// micro-benchmarks for the substrates, plus a smoke test that runs one
// evaluation driver at reduced size. The paper's tables and figures are
// regenerated by `dcbench`; wall-clock measurement of whole checks is
// perfbench's job.
package doublechecker

import (
	"context"
	"testing"

	"doublechecker/internal/core"
	"doublechecker/internal/eval"
	"doublechecker/internal/octet"
	"doublechecker/internal/spec"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

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
		if _, err := core.MultiRunContext(context.Background(), built.Prog, 5, int64(i),
			func(_ core.Analysis, seed int64) core.Config {
				return core.Config{Seed: seed, Atomic: sp.Atomic}
			}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchHarnessSmoke runs the Table 2 driver at reduced size so
// `go test ./...` exercises the evaluation harness once.
func TestBenchHarnessSmoke(t *testing.T) {
	r := eval.NewRunner(eval.Options{
		Scale:        0.3,
		PerfTrials:   3,
		StatTrials:   2,
		RefineStable: 3,
		FirstRuns:    5,
		Benchmarks:   []string{"philo", "tsp"},
	})
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
