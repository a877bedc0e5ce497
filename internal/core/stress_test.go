package core

import (
	"testing"

	"doublechecker/internal/workloads"
)

// TestStressReplayAndEquivalence runs the central cross-checker property
// over hundreds of random programs: Velodrome and DoubleChecker single-run
// agree on whether an interleaving has a violation.
func TestStressReplayAndEquivalence(t *testing.T) {
	for seed := int64(100); seed < 600; seed++ {
		prog, atomic := workloads.Random(seed)
		velo, err := Run(prog, Config{Analysis: Velodrome, Seed: 1, Atomic: atomic})
		if err != nil {
			t.Fatal(err)
		}
		dc, err := Run(prog, Config{Analysis: DCSingle, Seed: 1, Atomic: atomic})
		if err != nil {
			t.Fatal(err)
		}
		if (len(dc.Violations) > 0) != (len(velo.Violations) > 0) {
			t.Errorf("seed %d: velo %d vs DC %d", seed, len(velo.Violations), len(dc.Violations))
		}
	}
}

// TestStressRichPrograms runs the same property over the rich generator,
// which exercises wait/notify, fork/join, nested ordered locks and arrays —
// every dependence-edge source the checkers handle.
func TestStressRichPrograms(t *testing.T) {
	for seed := int64(0); seed < 350; seed++ {
		prog, atomic := workloads.RandomRich(seed)
		for _, sched := range []int64{1, 2} {
			velo, err := Run(prog, Config{Analysis: Velodrome, Seed: sched, Atomic: atomic})
			if err != nil {
				t.Fatalf("seed %d/%d velo: %v", seed, sched, err)
			}
			dc, err := Run(prog, Config{Analysis: DCSingle, Seed: sched, Atomic: atomic})
			if err != nil {
				t.Fatalf("seed %d/%d dc: %v", seed, sched, err)
			}
			if (len(velo.Violations) > 0) != (len(dc.Violations) > 0) {
				t.Errorf("seed %d sched %d: velo %d vs dc %d violations",
					seed, sched, len(velo.Violations), len(dc.Violations))
			}
		}
	}
}
