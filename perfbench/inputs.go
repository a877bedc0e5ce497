package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"doublechecker/internal/core"
	"doublechecker/internal/lang"
	"doublechecker/internal/spec"
	"doublechecker/internal/trace"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

// Check modes of the library workloads.
const (
	modeSingle = "single-run"
	modeMulti  = "multi-run"
	modeServe  = "serve"
)

// firstRuns is the multi-run pipeline's first-run count (the library
// default and the paper's §5.1 setting).
const firstRuns = 10

// pcdGrant is the PCD pool grant a dcserve request gets at the default
// configuration (DefaultPCDPerRequest, with the default budget covering both
// clients).
const pcdGrant = 4

// workload describes one benchmark workload: which programs it checks, at
// what scale, how, and from how many clients.
type workload struct {
	name     string
	mode     string
	programs []string
	// scale is each program's workload scale, chosen so one check takes
	// tens of milliseconds.
	scale map[string]float64
	// seeds is how many distinct schedules of each program one run checks.
	seeds   int
	clients int
	why     string
}

var allWorkloads = []*workload{
	{
		name:     "scc-single",
		mode:     modeSingle,
		programs: []string{"xalan6", "sccmesh"},
		scale:    map[string]float64{"xalan6": 2, "sccmesh": 3},
		seeds:    64,
		clients:  1,
		why:      "library single-run checks of lock ping-pong and SCC floods: PCD replay and blame dominate",
	},
	{
		name:     "sparse-multi",
		mode:     modeMulti,
		programs: []string{"hsqldb6", "eclipse6", "avrora9"},
		scale:    map[string]float64{"hsqldb6": 2, "eclipse6": 1.6, "avrora9": 2},
		seeds:    24,
		clients:  1,
		why:      "library multi-run checks of sparse programs: VM dispatch, Octet and unlogged ICD dominate, PCD sees little",
	},
	{
		name:     "serve-mix",
		mode:     modeServe,
		programs: []string{"xalan6", "hsqldb6", "eclipse6", "avrora9"},
		scale:    map[string]float64{"xalan6": 1.5, "hsqldb6": 2, "eclipse6": 2, "avrora9": 2},
		seeds:    16,
		clients:  2,
		why:      "dcserve over loopback HTTP: trace decode, result store, admission, PCD pool and Velodrome",
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// program is one built workload program and its atomicity specification.
type program struct {
	name   string
	built  *workloads.Built
	unit   *lang.Unit
	atomic func(vm.MethodID) bool
	ids    []vm.MethodID
}

func buildProgram(name string, scale float64) (*program, error) {
	built, err := workloads.Build(name, scale)
	if err != nil {
		return nil, err
	}
	sp := spec.Initial(built.Prog)
	if err := sp.ExcludeByName(built.InitialExclusions...); err != nil {
		return nil, err
	}
	p := &program{name: name, built: built, atomic: sp.Atomic, ids: sp.AtomicMethods()}
	var names []string
	for _, m := range p.ids {
		names = append(names, built.Prog.MethodName(m))
	}
	p.unit = &lang.Unit{Prog: built.Prog, AtomicMethods: names}
	return p, nil
}

// input is one program schedule: the seed, its recorded trace, and the
// reference verdict Velodrome gives on it.
type input struct {
	name string // program-seed, the upload's display name
	prog *program
	seed int64
	body []byte   // .dct recording of the schedule
	ref  []string // Velodrome's blamed methods on the schedule, sorted
}

// request is one slot of a workload's fixed check sequence.
type request struct {
	in *input
	// analysis is the analysis a serve-mix upload asks for. A repeated
	// (input, analysis) pair within a pass is a re-upload the store answers.
	analysis string
}

// plan is a workload's set-up: its distinct inputs and the check sequence
// the clients cycle through.
type plan struct {
	w        *workload
	inputs   []*input
	requests []request
}

// setup builds the workload's programs, records one schedule per input
// seed, and computes each schedule's reference verdict. The same seed
// always yields the same plan. scaleMul and seeds let the smoke test shrink
// the workload.
func setup(ctx context.Context, w *workload, seed int64, scaleMul float64, seeds int) (*plan, error) {
	progs := make([]*program, len(w.programs))
	for i, name := range w.programs {
		p, err := buildProgram(name, w.scale[name]*scaleMul)
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}
	rng := rand.New(rand.NewSource(seed))
	pl := &plan{w: w}
	// Inputs interleave the programs so any prefix of the sequence mixes
	// them evenly.
	for s := 0; s < seeds; s++ {
		for _, p := range progs {
			in := &input{prog: p, seed: 1 + rng.Int63n(1<<30)}
			in.name = fmt.Sprintf("%s-%d", p.name, in.seed)
			if err := record(ctx, in); err != nil {
				return nil, err
			}
			pl.inputs = append(pl.inputs, in)
		}
	}
	if w.mode != modeServe {
		for _, in := range pl.inputs {
			pl.requests = append(pl.requests, request{in: in})
		}
		return pl, nil
	}
	// serve-mix: a quarter of each program's uploads ask for Velodrome; a
	// quarter of all requests re-upload an earlier request of the pass, at
	// least eight slots back so the original has normally finished.
	n := len(pl.inputs)
	velo := map[int]bool{}
	for i := range progs {
		for _, s := range rng.Perm(seeds)[:seeds/4] {
			velo[s*len(progs)+i] = true
		}
	}
	const gap = 8
	repeatAfter := map[int]bool{}
	if n > gap {
		cands := rng.Perm(n - gap)
		for _, j := range cands[:min(n/3, n-gap)] {
			repeatAfter[j+gap] = true
		}
	}
	var firsts []request
	for i, in := range pl.inputs {
		r := request{in: in, analysis: "dc-single"}
		if velo[i] {
			r.analysis = "velodrome"
		}
		pl.requests = append(pl.requests, r)
		firsts = append(firsts, r)
		if repeatAfter[i] {
			pl.requests = append(pl.requests, firsts[rng.Intn(i-gap+1)])
		}
	}
	return pl, nil
}

// record runs one schedule live under Velodrome while recording its event
// stream, as doublechecker.RecordSource does: the trace becomes the
// serve-mix upload and the probe input, Velodrome's blamed methods the
// reference verdict.
func record(ctx context.Context, in *input) error {
	p := in.prog
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, trace.Header{
		Program: p.built.Prog,
		Atomic:  p.ids,
		Seed:    in.seed,
		Sched:   fmt.Sprintf("sticky(%g)", p.built.Stickiness),
		Source:  p.name,
	})
	if err != nil {
		return fmt.Errorf("record %s: %w", in.name, err)
	}
	res, err := core.RecordRun(ctx, p.built.Prog, tw, core.RecordConfig{
		Config: core.Config{
			Analysis: core.Velodrome,
			Sched:    vm.NewSticky(in.seed, p.built.Stickiness),
			Atomic:   p.atomic,
		},
		Source: p.name,
	})
	if err != nil {
		return fmt.Errorf("record %s: %w", in.name, err)
	}
	in.body = buf.Bytes()
	in.ref = res.BlamedMethodNames(p.built.Prog)
	return nil
}

// timedSetup runs setup reps times and returns the last plan with the
// median set-up time in seconds.
func timedSetup(ctx context.Context, w *workload, seed int64, scaleMul float64, seeds, reps int) (*plan, float64, error) {
	var pl *plan
	var secs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		p, err := setup(ctx, w, seed, scaleMul, seeds)
		if err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		pl = p
	}
	return pl, median(secs), nil
}
