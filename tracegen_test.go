package doublechecker_test

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"doublechecker/internal/core"
	"doublechecker/internal/spec"
	"doublechecker/internal/trace"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

// stressTraceSeed is the schedule seed every stress trace is recorded under;
// the interleaving (and so the frozen findings) follows from it and the
// workload's designed stickiness.
const stressTraceSeed = 1

// TestRegenStressTraces re-records the SCC-stress golden traces. It is a
// generator, not a test: set REGEN_TRACES=1 to run it. For each workload in
// workloads.Stress() it executes one live DCSingle run at the fixed seed,
// captures the event stream into testdata/traces/<name>.dct, and rewrites
// that workload's line in expected.txt with the live run's findings (other
// lines are preserved; the file stays sorted by name).
func TestRegenStressTraces(t *testing.T) {
	if os.Getenv("REGEN_TRACES") == "" {
		t.Skip("generator; set REGEN_TRACES=1 to re-record the stress traces")
	}
	dir := filepath.Join("testdata", "traces")
	lines := readExpectedLines(t, filepath.Join(dir, "expected.txt"))
	for _, name := range workloads.Stress() {
		b, err := workloads.Build(name, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		s := spec.Initial(b.Prog)
		if err := s.ExcludeByName(b.InitialExclusions...); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".dct")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w, err := trace.NewWriter(f, trace.Header{
			Program: b.Prog,
			Atomic:  s.AtomicMethods(),
			Seed:    stressTraceSeed,
			Sched:   fmt.Sprintf("sticky(%g)", b.Stickiness),
			Source:  name,
		})
		if err != nil {
			f.Close()
			t.Fatal(err)
		}
		res, err := core.RecordRun(context.Background(), b.Prog, w, core.RecordConfig{
			Config: core.Config{
				Analysis: core.DCSingle,
				Sched:    vm.NewSticky(stressTraceSeed, b.Stickiness),
				Atomic:   s.Atomic,
			},
		})
		if err != nil {
			f.Close()
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		blamed := res.BlamedMethodNames(b.Prog)
		lines[name] = fmt.Sprintf("%s dynamic=%d blamed=[%s]", name, len(res.Violations), strings.Join(blamed, " "))
		t.Logf("recorded %s: %s", path, lines[name])
	}
	writeExpectedLines(t, filepath.Join(dir, "expected.txt"), lines)
}

// readExpectedLines loads expected.txt keyed by workload name.
func readExpectedLines(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out[strings.SplitN(line, " ", 2)[0]] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// writeExpectedLines rewrites expected.txt sorted by workload name.
func writeExpectedLines(t *testing.T, path string, lines map[string]string) {
	t.Helper()
	names := make([]string, 0, len(lines))
	for n := range lines {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(lines[n])
		b.WriteString("\n")
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
