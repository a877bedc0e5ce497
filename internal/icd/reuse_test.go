package icd

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"doublechecker/internal/cost"
	"doublechecker/internal/pcd"
	"doublechecker/internal/trace"
	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

// stash stands in for the arena pool where a test needs to know what it
// gets back: it hands out the arena put last and counts the hand-outs. With
// keep false it holds nothing, so every run builds its storage afresh.
type stash struct {
	keep  bool
	held  []any
	reuse int
}

func (s *stash) Get() any {
	n := len(s.held)
	if n == 0 {
		return nil
	}
	s.reuse++
	x := s.held[n-1]
	s.held = s.held[:n-1]
	return x
}

func (s *stash) Put(x any) {
	if s.keep {
		s.held = append(s.held, x)
	}
}

// useArenas routes the checker's arena hand-over through s for the rest of
// the test.
func useArenas(t *testing.T, s *stash) {
	old := arenas
	arenas = s
	t.Cleanup(func() { arenas = old })
}

// runInput is one execution to check: a golden trace replay or a VM run of a
// generated program under a fixed schedule.
type runInput struct {
	name  string
	prog  *vm.Program
	drive func(vm.Instrumentation, *cost.Meter) error
}

// runReport is everything one ICD run reports outward: its own and the
// manager's counters, the static information a first run hands the second,
// the cost meter's report and, for a logging run, PCD's violations.
type runReport struct {
	ICD        Stats
	Txn        txn.Stats
	Methods    map[vm.MethodID]int
	Unary      bool
	Cost       cost.Report
	Violations []string
}

// checkRun runs in under a checker configured as core assembles a multi-run
// first run (first: no logging, no SCC handoff) or a single run (logging,
// every SCC replayed by PCD on the same meter). It returns the violations
// apart from the report, for the caller to render once later runs have had
// the chance to reuse anything the run handed over.
func checkRun(in runInput, first bool, gc uint64) (runReport, []txn.Violation, error) {
	meter := cost.NewMeter(cost.Default())
	opts := Options{Logging: !first, GCPeriod: gc}
	var p *pcd.Checker
	if !first {
		p = pcd.NewChecker(meter, pcd.BySeq)
		opts.OnSCC = func(scc []*txn.Txn) { p.Process(scc) }
	}
	c := NewChecker(in.prog, meter, opts)
	if err := in.drive(c, meter); err != nil {
		return runReport{}, nil, err
	}
	r := runReport{ICD: c.Stats(), Txn: c.TxnStats(), Cost: meter.Report()}
	r.Methods, r.Unary = c.StaticInfo()
	var vs []txn.Violation
	if p != nil {
		vs = p.Violations()
	}
	return r, vs, nil
}

// render prints violations with their cycles' and blamed transactions'
// identities, which a recycled transaction would not keep.
func render(vs []txn.Violation) []string {
	var out []string
	for _, v := range vs {
		out = append(out, fmt.Sprint(v.Cycle, v.Blamed, v.BlamedMethods, v.Seq))
	}
	return out
}

// reuseInputs is the corpus the reuse tests check: every golden trace and
// generated programs under two schedules each.
func reuseInputs(t *testing.T) []runInput {
	t.Helper()
	paths, err := filepath.Glob("../../testdata/traces/*.dct")
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus not found: %v (%d files)", err, len(paths))
	}
	var ins []runInput
	for _, path := range paths {
		d, err := trace.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, runInput{
			name: strings.TrimSuffix(filepath.Base(path), ".dct"),
			prog: d.Header.Program,
			drive: func(inst vm.Instrumentation, _ *cost.Meter) error {
				return trace.Replay(context.Background(), d, inst)
			},
		})
	}
	for seed := int64(0); seed < 8; seed++ {
		for _, gen := range []func(int64) (*vm.Program, func(vm.MethodID) bool){workloads.Random, workloads.RandomRich} {
			prog, atomic := gen(seed)
			for _, sched := range []int64{1, 2} {
				ins = append(ins, runInput{
					name: fmt.Sprintf("%s/sched=%d", prog.Name, sched),
					prog: prog,
					drive: func(inst vm.Instrumentation, meter *cost.Meter) error {
						_, err := vm.NewExec(prog, vm.Config{Sched: vm.NewRandom(sched), Inst: inst, Atomic: atomic, Meter: meter}).Run()
						return err
					},
				})
			}
		}
	}
	return ins
}

// TestArenaReuseInvisible checks that a run on storage an earlier run handed
// over reports exactly what a run on fresh storage reports. Each input runs
// as a first run and then as a single run, back to back, every run taking
// the arena the previous one returned — across configurations, programs and
// GC periods — and each report must equal the same run's on fresh storage.
// Violations are rendered only after the last run, so a single run's
// transactions, which its violations keep, must not have been recycled.
func TestArenaReuseInvisible(t *testing.T) {
	ins := reuseInputs(t)
	type key struct {
		in    int
		first bool
		gc    uint64
	}
	pass := func(s *stash) map[key]runReport {
		useArenas(t, s)
		out := make(map[key]runReport)
		held := make(map[key][]txn.Violation)
		for _, gc := range []uint64{0, 16} {
			for i, in := range ins {
				for _, first := range []bool{true, false} {
					k := key{i, first, gc}
					r, vs, err := checkRun(in, first, gc)
					if err != nil {
						t.Fatalf("%s (first=%v, gc=%d): %v", in.name, first, gc, err)
					}
					out[k], held[k] = r, vs
				}
			}
		}
		for k, vs := range held {
			r := out[k]
			r.Violations = render(vs)
			out[k] = r
		}
		return out
	}
	fresh := pass(&stash{})
	reused := &stash{keep: true}
	got := pass(reused)
	if want := len(fresh) - 1; reused.reuse != want {
		t.Fatalf("%d of %d runs took a handed-over arena, want %d", reused.reuse, len(fresh), want)
	}
	sccs, violations := 0, 0
	for k, want := range fresh {
		if !reflect.DeepEqual(got[k], want) {
			t.Errorf("%s (first=%v, gc=%d): reused storage reports\n%+v\nfresh storage\n%+v", ins[k.in].name, k.first, k.gc, got[k], want)
		}
		sccs += int(want.ICD.SCCs)
		violations += len(want.Violations)
	}
	if sccs == 0 || violations == 0 {
		t.Errorf("corpus produced %d SCCs and %d violations; the comparison is vacuous", sccs, violations)
	}
}

// TestArenaPoolConcurrent shares the real arena pool among 8 goroutines, each
// checking every input as a first run and as a single run, in its own order,
// and compares every report with a serial run's. CI runs it under -race with
// -count=10.
func TestArenaPoolConcurrent(t *testing.T) {
	var ins []runInput
	for _, in := range reuseInputs(t) {
		switch in.name {
		case "hsqldb6", "lusearch6", "sccring", "xalan6", "rand2/sched=1", "rich7/sched=2":
			ins = append(ins, in)
		}
	}
	want := make([][2]runReport, len(ins))
	for i, in := range ins {
		for j, first := range []bool{true, false} {
			r, vs, err := checkRun(in, first, 16)
			if err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			r.Violations = render(vs)
			want[i][j] = r
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 2*len(ins); n++ {
				k := (n + w) % (2 * len(ins))
				i, j := k/2, k%2
				got, vs, err := checkRun(ins[i], j == 0, 16)
				if err != nil {
					t.Errorf("worker %d: %s: %v", w, ins[i].name, err)
					return
				}
				got.Violations = render(vs)
				if !reflect.DeepEqual(got, want[i][j]) {
					t.Errorf("worker %d: %s (first=%v): concurrent run reports\n%+v\nserial run\n%+v", w, ins[i].name, j == 0, got, want[i][j])
				}
			}
		}(w)
	}
	wg.Wait()
}
