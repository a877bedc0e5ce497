package doublechecker_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"doublechecker/internal/core"
	"doublechecker/internal/trace"
)

// TestParallelPCDDeterminism is the worker-count invariance gate: replaying
// every golden trace with core.Config.PCDWorkers set must be observationally
// identical to the plain replay — the frozen expected.txt findings AND a
// byte-identical deterministic telemetry snapshot — for every worker count,
// on every iteration. PCDWorkers is deprecated and ignored, since PCD
// replays every SCC in line, so a worker count must leave no trace in the
// results.
func TestParallelPCDDeterminism(t *testing.T) {
	expected := loadGoldenExpectations(t)
	paths, err := filepath.Glob(filepath.Join("testdata", "traces", "*.dct"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus missing: %v", err)
	}
	iters := 5
	if testing.Short() {
		iters = 2
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".dct")
		exp := expected[name]
		t.Run(name, func(t *testing.T) {
			d, err := trace.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// The replay without a worker count is the reference; every
			// replay with one must reproduce its snapshot byte for byte.
			ref, err := core.RunTrace(context.Background(), d, core.Config{Analysis: core.DCSingle})
			if err != nil {
				t.Fatal(err)
			}
			want := ref.Telemetry.Deterministic().JSON()
			for _, workers := range []int{1, 2, 4, 8} {
				for iter := 0; iter < iters; iter++ {
					res, err := core.RunTrace(context.Background(), d, core.Config{
						Analysis:   core.DCSingle,
						PCDWorkers: workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Violations) != exp.dynamic {
						t.Fatalf("workers=%d iter=%d: %d violations, expected.txt has %d",
							workers, iter, len(res.Violations), exp.dynamic)
					}
					got := res.BlamedMethodNames(d.Header.Program)
					if fmt.Sprint(got) != fmt.Sprint(exp.blamed) && !(len(got) == 0 && len(exp.blamed) == 0) {
						t.Fatalf("workers=%d iter=%d: blamed %v, expected.txt has %v",
							workers, iter, got, exp.blamed)
					}
					if snap := res.Telemetry.Deterministic().JSON(); !bytes.Equal(snap, want) {
						t.Fatalf("workers=%d iter=%d: deterministic snapshot diverged from the plain replay\nplain: %s\nworkers: %s",
							workers, iter, want, snap)
					}
				}
			}
		})
	}
}
