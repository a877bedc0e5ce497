package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recordRacyTrace records racyDCP under a seed that exposes the violation
// and returns the trace path.
func recordRacyTrace(t *testing.T, dir string) string {
	t.Helper()
	prog := filepath.Join(dir, "prog.dcp")
	if err := os.WriteFile(prog, []byte(racyDCP), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "prog.dct")
	var out, errb bytes.Buffer
	code := DCTrace([]string{"record", "-analysis", "dc-single", "-seed", "2", "-o", tracePath, prog}, &out, &errb)
	if code != 0 {
		t.Fatalf("record exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "recorded ") {
		t.Fatalf("record output:\n%s", out.String())
	}
	return tracePath
}

func TestDCTraceRecordInfoReplayDiff(t *testing.T) {
	dir := t.TempDir()
	tracePath := recordRacyTrace(t, dir)

	var out, errb bytes.Buffer
	if code := DCTrace([]string{"info", tracePath}, &out, &errb); code != 0 {
		t.Fatalf("info exit %d: %s", code, errb.String())
	}
	for _, want := range []string{"program counter", "atomic method(s) [bump]", "complete", "seed 2"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("info output missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if code := DCTrace([]string{"replay", tracePath}, &out, &errb); code != 0 {
		t.Fatalf("replay exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "blamed [bump]") {
		t.Errorf("replay output:\n%s", out.String())
	}

	out.Reset()
	if code := DCTrace([]string{"replay", "-analysis", "velodrome", tracePath}, &out, &errb); code != 0 {
		t.Fatalf("velodrome replay exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "blamed [bump]") {
		t.Errorf("velodrome replay output:\n%s", out.String())
	}

	out.Reset()
	if code := DCTrace([]string{"diff", tracePath}, &out, &errb); code != 0 {
		t.Fatalf("diff exit %d: %s\n%s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "agree:") || strings.Contains(out.String(), "DISAGREE") {
		t.Errorf("diff output:\n%s", out.String())
	}
}

// TestDCTraceDirectoryFanOut: replay and diff expand a directory of traces
// and shard it across the worker pool.
func TestDCTraceDirectoryFanOut(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "prog.dcp")
	if err := os.WriteFile(prog, []byte(racyDCP), 0o644); err != nil {
		t.Fatal(err)
	}
	traceDir := filepath.Join(dir, "traces")
	if err := os.Mkdir(traceDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []string{"1", "2", "3", "4"} {
		var out, errb bytes.Buffer
		code := DCTrace([]string{"record", "-seed", seed,
			"-o", filepath.Join(traceDir, "s"+seed+".dct"), prog}, &out, &errb)
		if code != 0 {
			t.Fatalf("record seed %s: exit %d: %s", seed, code, errb.String())
		}
	}
	var out, errb bytes.Buffer
	if code := DCTrace([]string{"replay", "-workers", "3", traceDir}, &out, &errb); code != 0 {
		t.Fatalf("fan-out replay exit %d: %s", code, errb.String())
	}
	if got := strings.Count(out.String(), "violation(s)"); got != 4 {
		t.Errorf("want 4 per-trace reports, got %d:\n%s", got, out.String())
	}
	// Reports come back in input order even with concurrent workers.
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for i, want := range []string{"s1.dct", "s2.dct", "s3.dct", "s4.dct"} {
		if !strings.Contains(lines[i], want) {
			t.Errorf("line %d = %q, want it to mention %s", i, lines[i], want)
		}
	}
	out.Reset()
	if code := DCTrace([]string{"diff", "-workers", "2", traceDir}, &out, &errb); code != 0 {
		t.Fatalf("fan-out diff exit %d: %s\n%s", code, errb.String(), out.String())
	}
}

// TestDCTraceFanOutSkipsUndecodableTraces: a truncated or corrupt .dct in
// a batch is reported and skipped — the healthy traces' verdicts stand and
// the batch exits with the distinct skipped code (3), not a fan-out abort.
func TestDCTraceFanOutSkipsUndecodableTraces(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "prog.dcp")
	if err := os.WriteFile(prog, []byte(racyDCP), 0o644); err != nil {
		t.Fatal(err)
	}
	traceDir := filepath.Join(dir, "traces")
	if err := os.Mkdir(traceDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []string{"1", "2"} {
		var out, errb bytes.Buffer
		code := DCTrace([]string{"record", "-seed", seed,
			"-o", filepath.Join(traceDir, "s"+seed+".dct"), prog}, &out, &errb)
		if code != 0 {
			t.Fatalf("record seed %s: exit %d: %s", seed, code, errb.String())
		}
	}
	raw, err := os.ReadFile(filepath.Join(traceDir, "s1.dct"))
	if err != nil {
		t.Fatal(err)
	}
	// A mid-file truncation and a flipped byte: both must be skipped.
	if err := os.WriteFile(filepath.Join(traceDir, "cut.dct"), raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(raw)
	flipped[len(flipped)/2] ^= 0xff
	if err := os.WriteFile(filepath.Join(traceDir, "flip.dct"), flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	if code := DCTrace([]string{"replay", "-workers", "2", traceDir}, &out, &errb); code != 3 {
		t.Fatalf("batch replay exit %d, want 3\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if got := strings.Count(out.String(), "violation(s)"); got != 2 {
		t.Errorf("want the 2 healthy per-trace reports, got %d:\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "skipped 2 undecodable trace(s) of 4") {
		t.Errorf("missing skip summary:\n%s", out.String())
	}
	for _, want := range []string{"skipping", "cut.dct", "flip.dct"} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, errb.String())
		}
	}

	// diff takes the same path through the fan-out.
	out.Reset()
	errb.Reset()
	if code := DCTrace([]string{"diff", traceDir}, &out, &errb); code != 3 {
		t.Fatalf("batch diff exit %d, want 3\nstderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "agree:") {
		t.Errorf("healthy diff verdicts missing:\n%s", out.String())
	}
}

func TestDCTraceInfoRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	tracePath := recordRacyTrace(t, dir)
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	bad := filepath.Join(dir, "bad.dct")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := DCTrace([]string{"info", bad}, &out, &errb); code != 1 {
		t.Fatalf("corrupt info exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "corrupt") {
		t.Errorf("stderr: %s", errb.String())
	}
}

func TestDCTraceUsageErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"bogus-command"},
		{"record"},
		{"replay"},
		{"diff"},
		{"info"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := DCTrace(args, &out, &errb); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
	// Numbers outside their domain exit 2 naming the flag, without running.
	golden := filepath.Join("..", "..", "testdata", "traces", "elevator.dct")
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-workers", []string{"replay", "-workers", "-3", golden}},
		{"-trace-timeout", []string{"replay", "-trace-timeout", "-1s", golden}},
		{"-workers", []string{"diff", "-workers", "-3", golden}},
		{"-trace-timeout", []string{"diff", "-trace-timeout", "-1s", golden}},
		{"-budget", []string{"fuzz", "-tiny=false", "-repro-dir", "", "-budget", "-1"}},
		{"-budget", []string{"fuzz", "-tiny=false", "-repro-dir", "", "-budget", "0"}},
	} {
		var out, errb bytes.Buffer
		if code := DCTrace(tc.args, &out, &errb); code != 2 {
			t.Errorf("args %v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(errb.String(), tc.flag+" ") {
			t.Errorf("args %v: stderr does not name %s: %q", tc.args, tc.flag, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("args %v: ran anyway:\n%s", tc.args, out.String())
		}
	}
	var out, errb bytes.Buffer
	if code := DCTrace([]string{"help"}, &out, &errb); code != 0 {
		t.Errorf("help exit %d", code)
	}
}

func TestDCheckRecordAndReplayFlags(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "prog.dcp")
	if err := os.WriteFile(prog, []byte(racyDCP), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "run.dct")

	var out, errb bytes.Buffer
	code := DCheck([]string{"-record", tracePath, "-seed", "2", prog}, &out, &errb)
	if code != 0 {
		t.Fatalf("-record exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "blamed methods: [bump]") {
		t.Errorf("-record live output:\n%s", out.String())
	}

	out.Reset()
	code = DCheck([]string{"-replay", "-analysis", "velodrome", tracePath}, &out, &errb)
	if code != 0 {
		t.Fatalf("-replay exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "blamed methods: [bump]") {
		t.Errorf("-replay output:\n%s", out.String())
	}

	// Flag misuse is rejected up front.
	if code := DCheck([]string{"-record", tracePath, "-trials", "3", prog}, &out, &errb); code != 2 {
		t.Errorf("-record -trials 3: exit %d, want 2", code)
	}
	if code := DCheck([]string{"-replay", "-v", tracePath}, &out, &errb); code != 2 {
		t.Errorf("-replay -v: exit %d, want 2", code)
	}
}

func TestDCGenAll(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "suite")
	var out, errb bytes.Buffer
	if code := DCGen([]string{"-all", "-out", dir, "-scale", "0.05"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.dcp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 19 {
		t.Fatalf("wrote %d programs, want 19", len(matches))
	}
	if !strings.Contains(out.String(), "19 benchmarks") {
		t.Errorf("output:\n%s", out.String())
	}
	// Every emitted program parses and records end to end.
	sample := filepath.Join(dir, "hsqldb6.dcp")
	tracePath := filepath.Join(dir, "hsqldb6.dct")
	out.Reset()
	if code := DCTrace([]string{"record", "-o", tracePath, sample}, &out, &errb); code != 0 {
		t.Fatalf("record emitted program: exit %d: %s", code, errb.String())
	}

	// -all without -out is a usage error.
	if code := DCGen([]string{"-all"}, &out, &errb); code != 2 {
		t.Errorf("-all without -out: exit %d, want 2", code)
	}
}
