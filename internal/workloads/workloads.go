// Package workloads provides the synthetic benchmark suite that stands in
// for the paper's subject programs (§5.1): the multithreaded DaCapo
// benchmarks Jikes RVM 3.1.3 can run (eclipse6, hsqldb6, lusearch6, xalan6,
// avrora9, jython9, luindex9, lusearch9, pmd9, sunflow9, xalan9), the
// microbenchmarks elevator, hedc, philo, sor and tsp, and the Java Grande
// programs moldyn, montecarlo and raytracer.
//
// Each generator reproduces the *shape* that drives the paper's results —
// the ratios from Table 3 (regular transactions vs instrumented accesses vs
// non-transactional accesses, cross-thread edge density, SCC-proneness),
// the violation profile of Table 2 (which benchmarks have atomicity bugs at
// all, roughly how many), and the concurrency idioms that determine Octet
// behavior (thread-local bursts for fast paths, read-shared tables for
// RdSh, lock ping-pong for the xalan6 pathology, wait/notify for elevator).
// Dynamic counts are scaled down by roughly three orders of magnitude so
// the whole evaluation runs in seconds.
package workloads

import (
	"fmt"
	"math/rand"
	"sort"

	"doublechecker/internal/vm"
)

// Built is one instantiated benchmark.
type Built struct {
	Prog *vm.Program
	// InitialExclusions supplements spec.Initial: method names the paper's
	// methodology excludes up front (driver threads, methods hand-removed
	// after out-of-memory problems, §5.1).
	InitialExclusions []string
	// RacyMethods names the methods with injected atomicity violations —
	// ground truth for the soundness evaluation.
	RacyMethods []string
	// ComputeBound reports whether the benchmark joins Figure 7 (the paper
	// drops elevator, hedc and philo there: not compute bound).
	ComputeBound bool
	// Stickiness is the scheduler switch probability this workload is
	// designed for (lower = longer runs between preemptions).
	Stickiness float64
}

// Workload is a named benchmark generator. Build must be deterministic for
// a given scale.
type Workload struct {
	Name  string
	Desc  string
	Build func(scale float64) *Built
}

// registry holds the suite in paper order. stressRegistry holds the
// SCC-stress additions separately: they are not part of the paper's suite,
// so All() — which drives every table and figure — must not grow when they
// are added.
var registry, stressRegistry []Workload

func register(name, desc string, build func(scale float64) *Built) {
	registry = append(registry, Workload{Name: name, Desc: desc, Build: build})
}

func registerStress(name, desc string, build func(scale float64) *Built) {
	stressRegistry = append(stressRegistry, Workload{Name: name, Desc: desc, Build: build})
}

// All returns the benchmark names in the paper's order.
func All() []string {
	names := make([]string, len(registry))
	for i, w := range registry {
		names[i] = w.Name
	}
	return names
}

// Stress returns the names of the SCC-stress workloads: synthetic graphs
// with many large strongly connected components, built to stress PCD
// replay rather than reproduce any paper benchmark.
func Stress() []string {
	names := make([]string, len(stressRegistry))
	for i, w := range stressRegistry {
		names[i] = w.Name
	}
	return names
}

// Get returns the named workload, searching the paper suite and the stress
// set.
func Get(name string) (Workload, error) {
	for _, reg := range [][]Workload{registry, stressRegistry} {
		for _, w := range reg {
			if w.Name == name {
				return w, nil
			}
		}
	}
	var known []string
	for _, reg := range [][]Workload{registry, stressRegistry} {
		for _, w := range reg {
			known = append(known, w.Name)
		}
	}
	sort.Strings(known)
	return Workload{}, fmt.Errorf("workloads: unknown benchmark %q (have %v)", name, known)
}

// Build instantiates the named workload at the given scale (1.0 = default;
// smaller = faster).
func Build(name string, scale float64) (*Built, error) {
	w, err := Get(name)
	if err != nil {
		return nil, err
	}
	return w.Build(scale), nil
}

// gen wraps a builder with scaling and structural randomness (fixed seed:
// the program structure is deterministic; only the schedule varies between
// trials).
type gen struct {
	b     *vm.Builder
	rng   *rand.Rand
	scale float64
}

func newGen(name string, seed int64, scale float64) *gen {
	if scale <= 0 {
		scale = 1
	}
	return &gen{b: vm.NewBuilder(name), rng: rand.New(rand.NewSource(seed)), scale: scale}
}

// n scales a dynamic count, with a floor of 1.
func (g *gen) n(base int) int {
	v := int(float64(base) * g.scale)
	if v < 1 {
		v = 1
	}
	return v
}

// localBurst appends a run of thread-local accesses (Octet fast paths) to
// mb: reads and writes over obj's fields.
func (g *gen) localBurst(mb *vm.MethodBuilder, obj vm.ObjectID, fields, reps int) {
	for r := 0; r < reps; r++ {
		for f := 0; f < fields; f++ {
			if (r+f)%3 == 0 {
				mb.Write(obj, vm.FieldID(f))
			} else {
				mb.Read(obj, vm.FieldID(f))
			}
		}
	}
}

// built finalizes the program.
func (g *gen) built(extra []string, racy []string, computeBound bool, stickiness float64) *Built {
	return &Built{
		Prog:              g.b.MustBuild(),
		InitialExclusions: extra,
		RacyMethods:       racy,
		ComputeBound:      computeBound,
		Stickiness:        stickiness,
	}
}
