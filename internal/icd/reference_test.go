package icd

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"doublechecker/internal/cost"
	"doublechecker/internal/graph"
	"doublechecker/internal/trace"
	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

// refConfig is one detection configuration under test.
type refConfig struct {
	name    string
	logging bool // logging with an OnSCC collector; else no logging, OnSCC nil
	gc      uint64
}

// refConfigs covers both detection paths. Logging with an OnSCC collector
// reads the component's member slice; no logging with OnSCC nil folds the
// maintained per-component aggregates and recycles swept transactions. Each
// path runs at the default GC period and at a tiny one, so component
// releases and recycled nodes are exercised as well.
var refConfigs = []refConfig{
	{name: "members", logging: true},
	{name: "members-gc16", logging: true, gc: 16},
	{name: "aggregate"},
	{name: "aggregate-gc16", gc: 16},
}

// refChecker wraps a Checker so that every transaction finish is checked
// against the Tarjan reference: graph.SCCFrom over finished, live
// transactions, which is exactly the component ICD must report (§3.2.3).
type refChecker struct {
	*Checker
	t       *testing.T
	label   string
	logging bool
	handed  [][]*txn.Txn // OnSCC deliveries, member path only

	finishes, cycles int
	failed           bool
}

func newRefChecker(t *testing.T, label string, prog *vm.Program, cfg refConfig) *refChecker {
	r := &refChecker{t: t, label: label + "/" + cfg.name, logging: cfg.logging}
	opts := Options{Logging: cfg.logging, GCPeriod: cfg.gc}
	if cfg.logging {
		opts.OnSCC = func(scc []*txn.Txn) { r.handed = append(r.handed, slices.Clone(scc)) }
	}
	r.Checker = NewChecker(prog, cost.NewMeter(cost.Default()), opts)
	return r
}

// ProgramStart installs the checker's fresh transaction manager, then
// re-registers its finish hook around txnFinished.
func (r *refChecker) ProgramStart(e vm.ExecView) {
	r.Checker.ProgramStart(e)
	r.mgr.OnFinish(r.finish)
}

func (r *refChecker) finish(tx *txn.Txn) {
	c := r.Checker
	if r.failed {
		c.txnFinished(tx)
		return
	}
	want := graph.SCCFrom(tx, (*txn.Txn).Succs, func(t *txn.Txn) bool { return t.Finished && !t.Dead() })
	before, wantMethods, handed := c.stats, maps.Clone(c.sccMethods), len(r.handed)
	c.txnFinished(tx)
	r.finishes++

	var wantSCCs, wantTxns uint64
	unary, methods := 0, make(map[vm.MethodID]int)
	if want != nil {
		r.cycles++
		wantSCCs, wantTxns = 1, uint64(len(want))
		for _, m := range want {
			if m.Unary {
				unary++
			} else if m.Method != vm.NoMethod {
				methods[m.Method]++
			}
		}
	}
	wantUnary := before.UnaryInSCC || unary > 0
	for m, n := range methods {
		wantMethods[m] += n
	}
	after := c.stats
	switch {
	case after.SCCs-before.SCCs != wantSCCs:
		r.fail(tx, "reported %d SCC(s), reference %d: %v", after.SCCs-before.SCCs, wantSCCs, want)
	case after.SCCTxns-before.SCCTxns != wantTxns:
		r.fail(tx, "reported an SCC of %d transaction(s), reference %d: %v", after.SCCTxns-before.SCCTxns, wantTxns, want)
	case after.UnaryInSCC != wantUnary:
		r.fail(tx, "UnaryInSCC %v, reference %v: %v", after.UnaryInSCC, wantUnary, want)
	case !maps.Equal(c.sccMethods, wantMethods):
		r.fail(tx, "per-method SCC counts %v, reference %v", c.sccMethods, wantMethods)
	}
	if r.failed {
		return
	}
	if !r.logging {
		// UnaryInSCC is sticky, so also check the component's maintained
		// aggregate itself: a fold that drops members shows up here even
		// after the flag is set.
		if len(want) > 1 {
			rep, _, _, _ := c.inc.Component(tx)
			if agg := c.aggs[rep]; agg == nil || agg.unary != unary || !maps.Equal(agg.methods, methods) {
				r.fail(tx, "component aggregate %+v, reference %d unary member(s) and methods %v", agg, unary, methods)
			}
		}
		return
	}
	var got []*txn.Txn
	switch n := len(r.handed) - handed; n {
	case 0:
	case 1:
		got = r.handed[handed]
	default:
		r.fail(tx, "OnSCC called %d times", n)
		return
	}
	if !sameMembers(got, want) {
		r.fail(tx, "OnSCC members %v, reference %v", got, want)
	}
}

func (r *refChecker) fail(tx *txn.Txn, format string, args ...any) {
	r.failed = true
	r.t.Errorf("%s: finish #%d (%v): %s", r.label, r.finishes, tx, fmt.Sprintf(format, args...))
}

// sameMembers reports whether a and b hold the same transactions.
func sameMembers(a, b []*txn.Txn) bool {
	byID := func(x, y *txn.Txn) int { return cmp.Compare(x.ID, y.ID) }
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, byID)
	slices.SortFunc(b, byID)
	return slices.Equal(a, b)
}

// refRun drives one execution (a VM run or a trace replay) through a
// checked ICD instance and returns how many finishes lay on a reference
// cycle.
func refRun(t *testing.T, label string, prog *vm.Program, cfg refConfig, drive func(vm.Instrumentation) error) int {
	t.Helper()
	r := newRefChecker(t, label, prog, cfg)
	if err := drive(r); err != nil {
		t.Fatalf("%s: %v", r.label, err)
	}
	if r.finishes == 0 {
		t.Fatalf("%s: no transaction finished", r.label)
	}
	return r.cycles
}

// TestDetectionMatchesReference checks ICD's detection against the Tarjan
// reference at every transaction finish, on both detection paths: the golden
// traces, every interleaving of the tiny corpus, and generated programs. A
// failure names the run, the configuration and the finishing transaction.
func TestDetectionMatchesReference(t *testing.T) {
	t.Run("golden", func(t *testing.T) {
		paths, err := filepath.Glob("../../testdata/traces/*.dct")
		if err != nil || len(paths) == 0 {
			t.Fatalf("golden corpus not found: %v (%d files)", err, len(paths))
		}
		cycles := 0
		for _, path := range paths {
			name := strings.TrimSuffix(filepath.Base(path), ".dct")
			t.Run(name, func(t *testing.T) {
				d, err := trace.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				for _, cfg := range refConfigs {
					cycles += refRun(t, name, d.Header.Program, cfg, func(inst vm.Instrumentation) error {
						return trace.Replay(context.Background(), d, inst)
					})
				}
			})
		}
		if cycles == 0 {
			t.Error("no golden trace put a finish on a reference cycle; the check is vacuous")
		}
	})

	t.Run("tiny", func(t *testing.T) {
		for _, tp := range workloads.Tiny() {
			t.Run(tp.Name, func(t *testing.T) {
				cycles := 0
				for _, cfg := range refConfigs {
					en := vm.NewEnumerator(64)
					for {
						label := fmt.Sprintf("%s#%d", tp.Name, en.Runs())
						cycles += refRun(t, label, tp.Prog, cfg, func(inst vm.Instrumentation) error {
							_, err := vm.NewExec(tp.Prog, vm.Config{Sched: en, Inst: inst, Atomic: tp.Atomic}).Run()
							return err
						})
						if !en.Advance() {
							break
						}
					}
					if en.Overflowed() {
						t.Fatalf("%s: enumeration truncated", cfg.name)
					}
				}
				if tp.MayViolate && cycles == 0 {
					t.Error("no interleaving put a finish on a reference cycle")
				}
			})
		}
	})

	t.Run("random", func(t *testing.T) {
		cycles := 0
		for seed := int64(0); seed < 16; seed++ {
			for _, gen := range []func(int64) (*vm.Program, func(vm.MethodID) bool){workloads.Random, workloads.RandomRich} {
				prog, atomic := gen(seed)
				for _, sched := range []int64{1, 2} {
					label := fmt.Sprintf("%s/sched=%d", prog.Name, sched)
					for _, cfg := range refConfigs {
						cycles += refRun(t, label, prog, cfg, func(inst vm.Instrumentation) error {
							_, err := vm.NewExec(prog, vm.Config{Sched: vm.NewRandom(sched), Inst: inst, Atomic: atomic}).Run()
							return err
						})
					}
				}
			}
		}
		if cycles == 0 {
			t.Error("no generated program put a finish on a reference cycle; the check is vacuous")
		}
	})
}
