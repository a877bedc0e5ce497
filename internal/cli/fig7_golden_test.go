package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// fig7Timing matches the line dcbench prints after the table: the only part
// of its output that depends on the host.
var fig7Timing = regexp.MustCompile(`(?m)^\[fig7 completed in .*\]\n`)

// TestFig7Golden holds the Figure 7 table `dcbench -experiment fig7` prints
// at its defaults to testdata/fig7.txt, byte for byte, with the timing line
// and the trailing blank lines dropped. The table is cost units from the
// model, so any change to what a checker meters per access, per edge or per
// replayed entry moves it. Set REGEN_FIG7=1 to rewrite the file.
func TestFig7Golden(t *testing.T) {
	var out, errb bytes.Buffer
	if code := DCBench([]string{"-experiment", "fig7"}, &out, &errb); code != 0 {
		t.Fatalf("dcbench exit %d: %s", code, errb.String())
	}
	got := append(bytes.TrimRight(fig7Timing.ReplaceAll(out.Bytes(), nil), "\n"), '\n')
	path := filepath.Join("..", "..", "testdata", "fig7.txt")
	if os.Getenv("REGEN_FIG7") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (set REGEN_FIG7=1 to write it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the Figure 7 table differs from %s:\n%s", path, got)
	}
}
