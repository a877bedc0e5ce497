package crosscheck

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"doublechecker/internal/core"
	"doublechecker/internal/trace"
)

// FuzzICDOverApprox fuzzes the paper's §3 soundness theorem at the trace
// level: for any decodable trace, every method DoubleChecker's precise pass
// blames must appear in the cycles ICD's imprecise pass reports — ICD is an
// over-approximation, never an under-approximation. Seeds are the raw bytes
// of the golden corpus; the fuzzer mutates frames, headers, and event
// payloads from there. Undecodable inputs are the reader's problem (covered
// by trace.FuzzRead) and are skipped here.
func FuzzICDOverApprox(f *testing.F) {
	paths, err := filepath.Glob("../../testdata/traces/*.dct")
	if err != nil || len(paths) == 0 {
		f.Fatalf("golden corpus not found: %v (%d files)", err, len(paths))
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if len(raw) > 1<<18 {
			continue // keep the seed corpus small; big traces add little
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<20 {
			t.Skip("oversized input")
		}
		d, err := trace.Read(bytes.NewReader(raw))
		if err != nil {
			t.Skip()
		}
		// Mutated headers can declare arbitrarily large programs; the
		// checkers allocate proportionally (per-object metadata, per-thread
		// clocks), so bound the decoded shape rather than the input bytes.
		prog := d.Header.Program
		if prog.NumObjects > 1<<12 || len(prog.Threads) > 64 ||
			len(prog.Methods) > 1<<10 || len(d.Events) > 1<<16 {
			t.Skip("oversized decoded program")
		}
		ctx := context.Background()
		dc, err := core.RunTrace(ctx, d, core.Config{Analysis: core.DCSingle})
		if err != nil {
			t.Skip()
		}
		first, err := core.RunTrace(ctx, d, core.Config{Analysis: core.DCFirst})
		if err != nil {
			t.Skip()
		}
		for m := range dc.BlamedMethods {
			if _, ok := first.StaticMethods[m]; !ok {
				t.Fatalf("soundness breach: precise pass blamed method %d (%s) but ICD's cycle set does not contain it",
					m, d.Header.Program.MethodName(m))
			}
		}
	})
}
