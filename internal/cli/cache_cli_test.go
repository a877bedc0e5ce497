package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doublechecker/internal/store"
)

// dcheckReplayOut runs dcheck -replay with extra flags and returns stdout.
func dcheckReplayOut(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := DCheck(args, &out, &errb); code != 0 {
		t.Fatalf("dcheck %v: exit %d: %s", args, code, errb.String())
	}
	return out.String()
}

// TestDCheckReplayCacheDir: -cache-dir makes replay write-through on a cold
// run and hit on a warm one, with byte-identical output either way; a
// corrupted entry is quarantined and recomputed, never served.
func TestDCheckReplayCacheDir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join("..", "..", "testdata", "traces", "elevator.dct")

	want := dcheckReplayOut(t, "-replay", path)
	cold := dcheckReplayOut(t, "-replay", "-cache-dir", dir, path)
	if cold != want {
		t.Errorf("cold cached output differs from uncached replay:\n%s\nvs:\n%s", cold, want)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.dcr"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cache dir after cold run: %v (%d files)", err, len(files))
	}

	warm := dcheckReplayOut(t, "-replay", "-cache-dir", dir, path)
	if warm != want {
		t.Errorf("warm cached output differs:\n%s", warm)
	}

	// Corrupt the entry: the next run must quarantine it, recompute the
	// same bytes, and rewrite a clean entry.
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(files[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	recomputed := dcheckReplayOut(t, "-replay", "-cache-dir", dir, path)
	if recomputed != want {
		t.Errorf("post-corruption output differs:\n%s", recomputed)
	}
	qfiles, _ := filepath.Glob(filepath.Join(dir, store.QuarantineDir, "*"))
	if len(qfiles) != 1 {
		t.Errorf("quarantine dir holds %d files, want 1", len(qfiles))
	}
	files, _ = filepath.Glob(filepath.Join(dir, "*.dcr"))
	if len(files) != 1 {
		t.Errorf("cache dir after recompute holds %d entries, want 1", len(files))
	}
}

// TestDCheckCacheDirRequiresReplay: -cache-dir outside replay mode is a
// usage error, not a silent no-op.
func TestDCheckCacheDirRequiresReplay(t *testing.T) {
	var out, errb bytes.Buffer
	if code := DCheck([]string{"-cache-dir", t.TempDir(), "x.dcp"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "-cache-dir requires -replay") {
		t.Errorf("stderr:\n%s", errb.String())
	}
}

// TestDCheckReplayStatsJSONBypassesCache: -stats-json reports metrics of a
// real run, so a warm cache must not short-circuit it.
func TestDCheckReplayStatsJSONBypassesCache(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join("..", "..", "testdata", "traces", "elevator.dct")

	cold := dcheckReplayOut(t, "-replay", "-stats-json", "-cache-dir", dir, path)
	warm := dcheckReplayOut(t, "-replay", "-stats-json", "-cache-dir", dir, path)
	if cold != warm {
		t.Errorf("stats runs differ:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	if !strings.Contains(warm, `"vm.`) && !strings.Contains(warm, `"pcd.`) {
		t.Errorf("no stats JSON in output:\n%s", warm)
	}
}

// TestDCTraceReplayCacheDir: the trace tool's replay fan-out shares one
// cache directory; warm runs produce identical lines.
func TestDCTraceReplayCacheDir(t *testing.T) {
	dir := t.TempDir()
	cacheDir := t.TempDir()
	tracePath := recordRacyTrace(t, dir)

	var out, errb bytes.Buffer
	if code := DCTrace([]string{"replay", tracePath}, &out, &errb); code != 0 {
		t.Fatalf("uncached replay exit %d: %s", code, errb.String())
	}
	want := out.String()

	out.Reset()
	if code := DCTrace([]string{"replay", "-cache-dir", cacheDir, tracePath}, &out, &errb); code != 0 {
		t.Fatalf("cold replay exit %d: %s", code, errb.String())
	}
	if out.String() != want {
		t.Errorf("cold cached replay differs:\n%s\nvs:\n%s", out.String(), want)
	}
	files, err := filepath.Glob(filepath.Join(cacheDir, "*.dcr"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cache dir after cold replay: %v (%d files)", err, len(files))
	}

	out.Reset()
	if code := DCTrace([]string{"replay", "-cache-dir", cacheDir, tracePath}, &out, &errb); code != 0 {
		t.Fatalf("warm replay exit %d: %s", code, errb.String())
	}
	if out.String() != want {
		t.Errorf("warm cached replay differs:\n%s", out.String())
	}

	// The analysis is part of the key: a different analysis is its own
	// entry, not a wrong hit.
	out.Reset()
	if code := DCTrace([]string{"replay", "-analysis", "velodrome", "-cache-dir", cacheDir, tracePath}, &out, &errb); code != 0 {
		t.Fatalf("velodrome replay exit %d: %s", code, errb.String())
	}
	files, _ = filepath.Glob(filepath.Join(cacheDir, "*.dcr"))
	if len(files) != 2 {
		t.Errorf("cache dir holds %d entries after second analysis, want 2", len(files))
	}
}

// TestDCTraceReplaySkipsUnreadableTrace: a batch entry that opens but cannot
// be read (a directory named like a trace) is skipped as undecodable, exit
// 3, whether or not the replay has a store: both run the same path.
func TestDCTraceReplaySkipsUnreadableTrace(t *testing.T) {
	dir := t.TempDir()
	recordRacyTrace(t, dir)
	if err := os.Mkdir(filepath.Join(dir, "unreadable.dct"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"replay", dir},
		{"replay", "-cache-dir", t.TempDir(), dir},
	} {
		var out, errb bytes.Buffer
		if code := DCTrace(args, &out, &errb); code != 3 {
			t.Errorf("%v: exit %d, want 3\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), "skipped 1 undecodable trace(s) of 2") {
			t.Errorf("%v: missing skip summary:\n%s", args, out.String())
		}
	}
}
