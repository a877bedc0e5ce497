package cli

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// writeProgram drops a .dcp file into a temp dir and returns its path.
func writeProgram(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.dcp")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const racyDCP = `
program counter
object c
atomic method bump { read c.n compute 6 write c.n }
method main0 { loop 20 { call bump } }
method main1 { loop 20 { call bump } }
thread main0
thread main1
`

func TestDCheckFindsViolation(t *testing.T) {
	path := writeProgram(t, racyDCP)
	var out, errb bytes.Buffer
	code := DCheck([]string{"-trials", "8", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "blamed methods: [bump]") {
		t.Errorf("output:\n%s", s)
	}
}

func TestDCheckVerboseTimeline(t *testing.T) {
	path := writeProgram(t, racyDCP)
	var out, errb bytes.Buffer
	if code := DCheck([]string{"-trials", "8", "-v", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "timeline (earliest first)") {
		t.Errorf("missing timeline:\n%s", out.String())
	}
}

func TestDCheckDot(t *testing.T) {
	path := writeProgram(t, racyDCP)
	var out, errb bytes.Buffer
	if code := DCheck([]string{"-trials", "8", "-dot", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "digraph violation") {
		t.Errorf("missing dot output:\n%s", out.String())
	}
}

func TestDCheckLint(t *testing.T) {
	path := writeProgram(t, `
program p
lock l
object o
method m { acquire l read o.x }
thread m
`)
	var out, errb bytes.Buffer
	code := DCheck([]string{"-lint", path}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 on lint warnings", code)
	}
	if !strings.Contains(errb.String(), "exits holding") {
		t.Errorf("stderr:\n%s", errb.String())
	}

	clean := writeProgram(t, racyDCP)
	out.Reset()
	errb.Reset()
	if code := DCheck([]string{"-lint", clean}, &out, &errb); code != 0 {
		t.Fatalf("clean lint exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "lint: clean") {
		t.Errorf("stdout:\n%s", out.String())
	}
}

func TestDCheckRefine(t *testing.T) {
	path := writeProgram(t, `
program mix
object c
lock l
atomic method safe { acquire l read c.a write c.a release l }
atomic method racy { read c.b compute 8 write c.b }
method main0 { loop 15 { call safe call racy } }
method main1 { loop 15 { call safe call racy } }
thread main0
thread main1
`)
	var out, errb bytes.Buffer
	if code := DCheck([]string{"-refine", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "removed from specification: racy") {
		t.Errorf("output:\n%s", s)
	}
	if !strings.Contains(s, "final specification: 1 atomic methods") {
		t.Errorf("output:\n%s", s)
	}
}

func TestDCheckCost(t *testing.T) {
	path := writeProgram(t, racyDCP)
	var out, errb bytes.Buffer
	if code := DCheck([]string{"-cost", "-analysis", "velodrome", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "normalized execution time") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestDCheckErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := DCheck([]string{}, &out, &errb); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := DCheck([]string{"/nonexistent.dcp"}, &out, &errb); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	bad := writeProgram(t, "program p\nmethod m { read q.f }\nthread m")
	if code := DCheck([]string{bad}, &out, &errb); code != 1 {
		t.Errorf("bad program: exit %d, want 1", code)
	}
	good := writeProgram(t, racyDCP)
	if code := DCheck([]string{"-analysis", "nope", good}, &out, &errb); code != 1 {
		t.Errorf("bad analysis: exit %d, want 1", code)
	}
	if code := DCheck([]string{"-badflag"}, &out, &errb); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}

func TestDCGenListAndDump(t *testing.T) {
	var out, errb bytes.Buffer
	if code := DCGen([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("list exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "eclipse6") || !strings.Contains(out.String(), "raytracer") {
		t.Errorf("list output:\n%s", out.String())
	}

	out.Reset()
	if code := DCGen([]string{"-scale", "0.1", "philo"}, &out, &errb); code != 0 {
		t.Fatalf("dump exit %d: %s", code, errb.String())
	}
	dumped := out.String()
	if !strings.Contains(dumped, "program philo") || !strings.Contains(dumped, "atomic method eat0") {
		t.Errorf("dump output:\n%s", dumped)
	}
	// Round trip: the dumped program must check cleanly through dcheck.
	path := writeProgram(t, dumped)
	out.Reset()
	if code := DCheck([]string{"-trials", "3", path}, &out, &errb); code != 0 {
		t.Fatalf("round-trip check exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "no atomicity violations detected") {
		t.Errorf("philo should be clean:\n%s", out.String())
	}
}

func TestDCGenErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := DCGen([]string{}, &out, &errb); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := DCGen([]string{"nope"}, &out, &errb); code != 1 {
		t.Errorf("unknown benchmark: exit %d, want 1", code)
	}
}

func TestDCBenchSingleExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	code := DCBench([]string{
		"-experiment", "table3", "-scale", "0.2", "-trials", "2",
		"-stable", "2", "-first-runs", "2", "-benchmarks", "philo,tsp",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Table 3") || !strings.Contains(out.String(), "tsp") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestDCBenchCSV(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	code := DCBench([]string{
		"-experiment", "fig7", "-scale", "0.2", "-trials", "2",
		"-stable", "2", "-first-runs", "2", "-benchmarks", "tsp",
		"-csv", dir,
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig7.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "tsp,Velodrome") {
		t.Errorf("csv:\n%s", data)
	}
}

// TestDCBenchRejectsBadNumbers: numeric flags outside their domain exit 2
// before any experiment runs, instead of printing all-zero tables.
func TestDCBenchRejectsBadNumbers(t *testing.T) {
	cases := []struct{ flag, value string }{
		{"-scale", "0"},
		{"-scale", "-1"},
		{"-scale", "NaN"},
		{"-trials", "0"},
		{"-trials", "-2"},
		{"-stable", "0"},
		{"-stable", "-1"},
		{"-first-runs", "0"},
		{"-budget-kb", "-1"},
		{"-crosscheck-budget", "-1"},
	}
	for _, tc := range cases {
		var out, errb bytes.Buffer
		code := DCBench([]string{"-experiment", "fig7", "-benchmarks", "tsp", tc.flag, tc.value}, &out, &errb)
		if code != 2 {
			t.Errorf("%s %s: exit %d, want 2", tc.flag, tc.value, code)
		}
		if !strings.Contains(errb.String(), tc.flag+" ") {
			t.Errorf("%s %s: stderr does not name the flag: %q", tc.flag, tc.value, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("%s %s: ran anyway:\n%s", tc.flag, tc.value, out.String())
		}
	}
}

// TestDCBenchUnknownExperiment: an unknown or retired experiment name exits 2
// before any side effect, and the message lists the valid names.
func TestDCBenchUnknownExperiment(t *testing.T) {
	// Fatal, not Error: a build that accepted a retired name would run it
	// and write its dump into the working directory.
	for _, name := range []string{"nope", "servecache", "obsoverhead"} {
		csvDir := filepath.Join(t.TempDir(), "csv")
		var out, errb bytes.Buffer
		if code := DCBench([]string{"-experiment", name, "-csv", csvDir}, &out, &errb); code != 2 {
			t.Fatalf("%s: exit %d, want 2", name, code)
		}
		if msg := errb.String(); !strings.Contains(msg, "unknown experiment") || !strings.Contains(msg, "fig7") {
			t.Fatalf("%s: stderr does not list the experiments:\n%s", name, msg)
		}
		if _, err := os.Stat(csvDir); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s: -csv directory was touched before the rejection (stat: %v)", name, err)
		}
	}
}

// TestDocsNameLiveExperimentsAndDumps: every `dcbench -experiment NAME` in
// the user-facing docs names an experiment dcbench runs, and every
// BENCH_*.json they cite is committed at the repo root. ROADMAP.md and
// CHANGES.md record history, so they are not scanned.
func TestDocsNameLiveExperimentsAndDumps(t *testing.T) {
	root := filepath.Join("..", "..")
	known := map[string]bool{"all": true}
	for _, e := range experiments {
		known[e.name] = true
	}
	// The flag and its value may sit on two lines of a wrapped paragraph.
	expRe := regexp.MustCompile(`dcbench\s+-experiment\s+([\w-]+)`)
	dumpRe := regexp.MustCompile(`BENCH_\w+\.json`)
	var exps, dumps int
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		line := func(off int) int { return bytes.Count(text[:off], []byte("\n")) + 1 }
		for _, m := range expRe.FindAllSubmatchIndex(text, -1) {
			exps++
			if name := string(text[m[2]:m[3]]); !known[name] {
				t.Errorf("%s:%d: dcbench has no experiment %q", doc, line(m[0]), name)
			}
		}
		for _, m := range dumpRe.FindAllIndex(text, -1) {
			dumps++
			name := string(text[m[0]:m[1]])
			if _, err := os.Stat(filepath.Join(root, name)); err != nil {
				t.Errorf("%s:%d: cites %s, which is not at the repo root", doc, line(m[0]), name)
			}
		}
	}
	if exps == 0 || dumps == 0 {
		t.Errorf("scanned %d experiment names and %d dump names; the patterns no longer match the docs", exps, dumps)
	}
}
