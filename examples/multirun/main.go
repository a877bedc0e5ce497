// Multirun: demonstrates DoubleChecker's multi-run mode end to end on the
// tsp workload — one trial of core.MultiRunContext: ten cheap first runs
// (ICD only, no logging) produce the static transaction information, and
// one second run (ICD+PCD, filtered) confirms the violations precisely —
// and compares the modelled cost of each configuration on one schedule.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"doublechecker/internal/core"
	"doublechecker/internal/cost"
	"doublechecker/internal/spec"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

func main() {
	built, err := workloads.Build("tsp", 0.5)
	if err != nil {
		log.Fatal(err)
	}
	prog := built.Prog
	sp := spec.Initial(prog)
	if err := sp.ExcludeByName(built.InitialExclusions...); err != nil {
		log.Fatal(err)
	}

	fmt.Println("== multi-run mode: first runs (ICD only, no logging) ==")
	// Trial seed 0: first runs under seeds core.FirstRunSeed(0, i) = 0..9,
	// the second run under seed 0.
	o, err := core.MultiRunContext(context.Background(), prog, 10, 0,
		func(_ core.Analysis, seed int64) core.Config {
			return core.Config{Sched: vm.NewSticky(seed, built.Stickiness), Atomic: sp.Atomic}
		})
	if err != nil {
		log.Fatal(err)
	}
	filter := core.UnionFilter(o.Firsts)
	fmt.Printf("union of %d first runs: %d method(s) implicated, unary accesses implicated: %v\n",
		len(o.Firsts), len(filter.Methods), filter.Unary)
	var monitored []string
	for m := range filter.Methods {
		monitored = append(monitored, prog.MethodName(m))
	}
	sort.Strings(monitored)
	for _, name := range monitored {
		fmt.Printf("  monitored in second run: %s\n", name)
	}

	fmt.Println("\n== second run (ICD+PCD on the filtered subset) ==")
	fmt.Printf("second run: %d violations, blamed %v\n",
		len(o.Second.Violations), o.Second.BlamedMethodNames(prog))

	fmt.Println("\n== modelled cost of each configuration (same schedule) ==")
	for _, a := range []core.Analysis{
		core.Velodrome, core.DCSingle, core.DCFirst, core.DCSecond,
	} {
		base := cost.NewMeter(cost.Default())
		if _, err := core.Run(prog, core.Config{
			Analysis: core.Baseline, Sched: vm.NewSticky(7, built.Stickiness),
			Atomic: sp.Atomic, Meter: base,
		}); err != nil {
			log.Fatal(err)
		}
		meter := cost.NewMeter(cost.Default())
		cfg := core.Config{
			Analysis: a, Sched: vm.NewSticky(7, built.Stickiness),
			Atomic: sp.Atomic, Meter: meter,
		}
		if a == core.DCSecond {
			cfg.Filter = filter
		}
		if _, err := core.Run(prog, cfg); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22v %.2fx normalized execution time\n", a, meter.Report().Normalized(base.Total()))
	}
	fmt.Println("\nThe first run is the cheapest (no logging), and every DoubleChecker")
	fmt.Println("configuration beats Velodrome. The second run costs what single-run")
	fmt.Println("mode does here: the first runs implicated unary accesses and every")
	fmt.Println("atomic method whose accesses ICD tracks on tsp, so the filter left")
	fmt.Println("every access instrumented.")
}
