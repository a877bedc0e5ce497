package crosscheck

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"doublechecker/internal/trace"
	"doublechecker/internal/workloads"
)

// TestExploreSweep runs the budgeted triple sweep and requires every oracle
// to pass. CI raises the budget to >= 500 via CROSSCHECK_TRIPLES; the
// default keeps `go test ./...` quick.
func TestExploreSweep(t *testing.T) {
	budget := 66
	if s := os.Getenv("CROSSCHECK_TRIPLES"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("CROSSCHECK_TRIPLES=%q: %v", s, err)
		}
		budget = v
	}
	rep, err := Explore(context.Background(), Options{Budget: budget})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if rep.Triples != budget {
		t.Fatalf("explored %d triples, want %d", rep.Triples, budget)
	}
	for _, f := range rep.Failures {
		t.Errorf("oracle failure on %s: agree=%v det=%v only-dc=%v only-velo=%v icd-missed=%v %s",
			f.Triple, f.Agree, f.Deterministic, f.OnlyDC, f.OnlyVelo, f.ICDMissed, f.DetDiag)
	}
	if rep.Agreed != rep.Triples || rep.Deterministic != rep.Triples {
		t.Fatalf("agreed %d / deterministic %d of %d", rep.Agreed, rep.Deterministic, rep.Triples)
	}
	// The sweep must actually exercise violating executions — an all-quiet
	// corpus would make the oracles vacuous.
	if rep.WithViolations == 0 {
		t.Fatal("no explored triple produced a violation; the sweep is vacuous")
	}
	t.Logf("%s (%d with violations)", rep.Summary(), rep.WithViolations)
}

// TestExplorePlanDeterministic: the same options must enumerate the same
// triples and verdicts (this is what makes BENCH_crosscheck byte-stable).
func TestExplorePlanDeterministic(t *testing.T) {
	opts := Options{Budget: 12}
	a, err := Explore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatalf("two identical sweeps diverged:\n%+v\n%+v", a, b)
	}
}

// TestEnumerateTinyCorpus exhaustively walks every interleaving of every
// tiny program and checks all three oracles on each one. For these programs
// the soundness and precision theorems are verified over the *entire*
// schedule space, not a sample.
func TestEnumerateTinyCorpus(t *testing.T) {
	ctx := context.Background()
	wantInterleavings := map[string]uint64{
		// tinyrace is the 2-thread/4-op program: 4!/(2!2!) = 6 interleavings.
		"tinyrace": 6,
		"tinypair": 6,
		// tinylock: lock contention prunes the schedule tree — once a thread
		// holds the lock the other is runnable only to attempt-and-block
		// (one step), then leaves the runnable set until the release. Per
		// leader: the follower blocks after the leader's acquire, read, or
		// write, or never contends = 4 shapes; 2 leaders = 8 interleavings.
		"tinylock": 8,
		// tinydisjoint: 3 threads x 2 ops = 6!/(2!2!2!) = 90.
		"tinydisjoint": 90,
	}
	for _, tp := range workloads.Tiny() {
		tp := tp
		t.Run(tp.Name, func(t *testing.T) {
			rep, err := Enumerate(ctx, Source{Name: tp.Name, Prog: tp.Prog, Atomic: tp.Atomic},
				64, 0)
			if err != nil {
				t.Fatalf("enumerate: %v", err)
			}
			if rep.Truncated {
				t.Fatal("enumeration truncated on a tiny program")
			}
			if want, ok := wantInterleavings[tp.Name]; ok && rep.Interleavings != want {
				t.Fatalf("enumerated %d interleavings, want %d", rep.Interleavings, want)
			}
			if rep.Agreed != rep.Interleavings || rep.Deterministic != rep.Interleavings {
				t.Fatalf("oracles failed: %d agreed, %d deterministic of %d interleavings",
					rep.Agreed, rep.Deterministic, rep.Interleavings)
			}
			if tp.MayViolate && rep.WithViolations == 0 {
				t.Fatalf("%s can violate atomicity but no interleaving did", tp.Name)
			}
			if !tp.MayViolate && rep.WithViolations != 0 {
				t.Fatalf("%s is violation-free but %d interleavings violated", tp.Name, rep.WithViolations)
			}
			t.Logf("%s: %d interleavings, %d with violations, all oracles passed",
				tp.Name, rep.Interleavings, rep.WithViolations)
		})
	}
}

// TestCheckTripleAcrossSchedulers smoke-checks each scheduler constructor
// end to end on one rich workload.
func TestCheckTripleAcrossSchedulers(t *testing.T) {
	ctx := context.Background()
	prog, atomic := workloads.RandomRich(7)
	src := Source{Name: prog.Name, Prog: prog, Atomic: atomic}
	opts, err := Options{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range DefaultSchedulers() {
		r, d, err := CheckTriple(ctx, src, 42, sched, opts)
		if err != nil {
			t.Fatalf("%s: %v", sched.Name, err)
		}
		if d == nil || r.Events == 0 {
			t.Fatalf("%s: empty trace", sched.Name)
		}
		if !r.OK() {
			t.Fatalf("%s: oracle failure: %+v", sched.Name, r)
		}
		if d.Header.Sched != sched.Name {
			t.Fatalf("trace header records scheduler %q, want %q", d.Header.Sched, sched.Name)
		}
	}
}

// TestGoldenCorpusOracles runs all three oracles on every committed golden
// trace: the frozen interleavings must satisfy soundness, precision, and
// repeat determinism just like freshly explored ones.
func TestGoldenCorpusOracles(t *testing.T) {
	ctx := context.Background()
	paths, err := filepath.Glob("../../testdata/traces/*.dct")
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus not found: %v (%d files)", err, len(paths))
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			d, err := trace.ReadFile(path)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			r, err := CheckData(ctx, d)
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			if !r.OK() {
				t.Fatalf("oracle failure: agree=%v det=%v only-dc=%v only-velo=%v icd-missed=%v %s",
					r.Agree, r.Deterministic, r.OnlyDC, r.OnlyVelo, r.ICDMissed, r.DetDiag)
			}
		})
	}
}
