package trace_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"testing/iotest"

	"doublechecker/internal/core"
	"doublechecker/internal/faultinject"
	"doublechecker/internal/trace"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

// record runs prog live under analysis, teeing the event stream into a
// trace, and returns the live result plus the encoded trace bytes.
func record(t *testing.T, prog *vm.Program, atomic func(vm.MethodID) bool, analysis core.Analysis, seed int64) (*core.Result, []byte) {
	t.Helper()
	var atomicIDs []vm.MethodID
	for _, m := range prog.Methods {
		if atomic(m.ID) {
			atomicIDs = append(atomicIDs, m.ID)
		}
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{
		Program: prog,
		Atomic:  atomicIDs,
		Seed:    seed,
		Sched:   fmt.Sprintf("random(%d)", seed),
		Source:  "trace_test",
	})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	res, err := core.RecordRun(context.Background(), prog, w, core.RecordConfig{
		Config: core.Config{Analysis: analysis, Seed: seed, Atomic: atomic},
	})
	if err != nil {
		t.Fatalf("RecordRun: %v", err)
	}
	return res, buf.Bytes()
}

// TestRoundTripRandomPrograms is the central equivalence property: over a
// spread of random programs, a live checked run and a replay of its trace
// produce identical findings and identical checker statistics, for both
// DoubleChecker single-run mode and Velodrome.
func TestRoundTripRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			prog, atomic := workloads.Random(seed)
			checkRoundTrip(t, prog, atomic, seed)
		})
	}
}

func TestRoundTripRandomRichPrograms(t *testing.T) {
	for seed := int64(100); seed < 108; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			prog, atomic := workloads.RandomRich(seed)
			checkRoundTrip(t, prog, atomic, seed)
		})
	}
}

func checkRoundTrip(t *testing.T, prog *vm.Program, atomic func(vm.MethodID) bool, seed int64) {
	t.Helper()
	for _, analysis := range []core.Analysis{core.DCSingle, core.Velodrome} {
		live, raw := record(t, prog, atomic, analysis, seed)
		data, err := trace.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%v: Read: %v", analysis, err)
		}
		if !data.Complete {
			t.Fatalf("%v: trace not marked complete", analysis)
		}
		if got, want := data.Counts, live.VMStats.Events(); got != want {
			t.Fatalf("%v: trace counts {%v} != executor events {%v}", analysis, got, want)
		}
		replayed, err := core.RunTrace(context.Background(), data, core.Config{Analysis: analysis})
		if err != nil {
			t.Fatalf("%v: RunTrace: %v", analysis, err)
		}
		liveSigs := core.ViolationSignatures(live, prog)
		replaySigs := core.ViolationSignatures(replayed, data.Header.Program)
		if fmt.Sprint(liveSigs) != fmt.Sprint(replaySigs) {
			t.Errorf("%v: violations diverge:\nlive:   %v\nreplay: %v", analysis, liveSigs, replaySigs)
		}
		if live.ICD != replayed.ICD {
			t.Errorf("%v: ICD stats diverge:\nlive:   %+v\nreplay: %+v", analysis, live.ICD, replayed.ICD)
		}
		if live.Velo != replayed.Velo {
			t.Errorf("%v: Velodrome stats diverge:\nlive:   %+v\nreplay: %+v", analysis, live.Velo, replayed.Velo)
		}
		if live.Txn != replayed.Txn {
			t.Errorf("%v: txn stats diverge:\nlive:   %+v\nreplay: %+v", analysis, live.Txn, replayed.Txn)
		}
		if fmt.Sprint(live.StaticMethods) != fmt.Sprint(replayed.StaticMethods) {
			t.Errorf("%v: static methods diverge: %v vs %v", analysis, live.StaticMethods, replayed.StaticMethods)
		}
	}
}

// TestReencodeByteIdentical: decoding a trace and re-emitting its events
// through a fresh writer reproduces the file byte for byte — the encoder is
// canonical.
func TestReencodeByteIdentical(t *testing.T) {
	prog, atomic := workloads.RandomRich(7)
	_, raw := record(t, prog, atomic, core.DCSingle, 7)
	data, err := trace.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w, err := trace.NewWriter(&out, trace.Header{
		Program: data.Header.Program,
		Atomic:  data.Header.Atomic,
		Seed:    data.Header.Seed,
		Sched:   data.Header.Sched,
		Source:  data.Header.Source,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range data.Events {
		switch ev.Kind {
		case trace.EvThreadStart:
			w.ThreadStart(ev.Thread)
		case trace.EvThreadExit:
			w.ThreadExit(ev.Thread)
		case trace.EvTxBegin:
			w.TxBegin(ev.Thread, ev.Method)
		case trace.EvTxEnd:
			w.TxEnd(ev.Thread, ev.Method)
		case trace.EvAccess:
			w.Access(ev.Access())
		case trace.EvBlockedSet:
			w.BlockedSet(data.BlockedSet(ev))
		case trace.EvProgramEnd:
			w.ProgramEnd()
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, out.Bytes()) {
		t.Fatalf("re-encoded trace differs: %d vs %d bytes", len(raw), len(out.Bytes()))
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	prog, atomic := workloads.Random(3)
	_, raw := record(t, prog, atomic, core.DCFirst, 3)
	hdr, err := trace.ReadHeader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != trace.Version {
		t.Errorf("version = %d", hdr.Version)
	}
	if hdr.Seed != 3 || hdr.Source != "trace_test" {
		t.Errorf("metadata: seed=%d source=%q", hdr.Seed, hdr.Source)
	}
	if err := hdr.Program.Validate(); err != nil {
		t.Errorf("embedded program invalid: %v", err)
	}
	if len(hdr.Program.Methods) != len(prog.Methods) {
		t.Errorf("methods: %d vs %d", len(hdr.Program.Methods), len(prog.Methods))
	}
	set := hdr.AtomicSet()
	for _, m := range prog.Methods {
		if set(m.ID) != atomic(m.ID) {
			t.Errorf("atomic set diverges at %s", m.Name)
		}
	}
	if got := hdr.AtomicNames(); len(got) != len(hdr.Atomic) {
		t.Errorf("AtomicNames: %v", got)
	}
}

func TestDiffTraceAgreesOnRandomPrograms(t *testing.T) {
	for seed := int64(20); seed < 26; seed++ {
		prog, atomic := workloads.Random(seed)
		_, raw := record(t, prog, atomic, core.Baseline, seed)
		data, err := trace.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		td, err := core.DiffTrace(context.Background(), data)
		if err != nil {
			t.Fatal(err)
		}
		if !td.Agree() {
			t.Errorf("seed %d: %s\nonly-dc: %v\nonly-velo: %v\nicd-missed: %v",
				seed, td.Summary(), td.OnlyDC, td.OnlyVelo, td.ICDMissed)
		}
	}
}

func TestTruncatedTrace(t *testing.T) {
	prog, atomic := workloads.Random(5)
	_, raw := record(t, prog, atomic, core.DCFirst, 5)
	// Cut at a spread of points; every cut must fail loudly with a typed
	// error — never succeed, never panic.
	for _, frac := range []int{1, 2, 3, 5, 10, 50, 90} {
		cut := len(raw) * frac / 100
		_, err := trace.Read(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("cut at %d/%d bytes: decode succeeded", cut, len(raw))
		}
		if !errors.Is(err, trace.ErrTruncated) && !errors.Is(err, trace.ErrCorrupt) &&
			!errors.Is(err, trace.ErrBadMagic) {
			t.Errorf("cut at %d: untyped error %v", cut, err)
		}
	}
	// Dropping only the trailer is also truncation.
	_, err := trace.Read(bytes.NewReader(raw[:len(raw)-5]))
	if err == nil {
		t.Fatal("missing trailer accepted")
	}
}

// TestReaderIOFaults: a reader whose underlying stream fails mid-decode
// (connection reset, transport error) reports ErrIO with the cause in the
// wrap chain — distinguishable from a truncated or corrupt file — while a
// stream that merely ends early stays classified as truncation.
func TestReaderIOFaults(t *testing.T) {
	prog, atomic := workloads.Random(7)
	_, raw := record(t, prog, atomic, core.DCFirst, 7)

	// Mid-stream reset: ErrIO wrapping the injected reset. OneByteReader
	// makes every byte its own Read call, so the fault's position in the
	// file is exact regardless of internal buffer sizes.
	plan := &faultinject.IOPlan{ResetReadAt: 10}
	_, err := trace.Read(plan.Reader(iotest.OneByteReader(bytes.NewReader(raw))))
	if !errors.Is(err, trace.ErrIO) {
		t.Fatalf("reset mid-decode: got %v, want ErrIO", err)
	}
	if !errors.Is(err, faultinject.ErrReset) {
		t.Fatalf("underlying reset lost from wrap chain: %v", err)
	}
	if errors.Is(err, trace.ErrTruncated) || errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("transport fault misclassified as bad file: %v", err)
	}

	// Short read (stream ends early): plain truncation, not ErrIO.
	plan = &faultinject.IOPlan{ShortReadAt: 40}
	_, err = trace.Read(plan.Reader(iotest.OneByteReader(bytes.NewReader(raw))))
	if err == nil || errors.Is(err, trace.ErrIO) {
		t.Fatalf("short stream: got %v, want a non-ErrIO decode failure", err)
	}
}

func TestCorruptChunk(t *testing.T) {
	prog, atomic := workloads.Random(6)
	_, raw := record(t, prog, atomic, core.DCFirst, 6)
	// Flip one byte somewhere inside the event stream (past magic+version
	// and the header frame bytes; the CRC must catch it).
	for _, off := range []int{len(raw) / 3, len(raw) / 2, 2 * len(raw) / 3} {
		bad := bytes.Clone(raw)
		bad[off] ^= 0xff
		_, err := trace.Read(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("flip at %d: decode succeeded", off)
		}
	}
}

func TestVersionMismatch(t *testing.T) {
	prog, atomic := workloads.Random(8)
	_, raw := record(t, prog, atomic, core.DCFirst, 8)
	bad := bytes.Clone(raw)
	bad[4] = 99 // the version uvarint follows the 4-byte magic
	_, err := trace.Read(bytes.NewReader(bad))
	if !errors.Is(err, trace.ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
	_, err = trace.ReadHeader(bytes.NewReader(bad))
	if !errors.Is(err, trace.ErrVersion) {
		t.Fatalf("ReadHeader: want ErrVersion, got %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	_, err := trace.Read(bytes.NewReader([]byte("not a trace file")))
	if !errors.Is(err, trace.ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
	_, err = trace.Read(bytes.NewReader([]byte("DC")))
	if !errors.Is(err, trace.ErrBadMagic) {
		t.Fatalf("short file: want ErrBadMagic, got %v", err)
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []trace.EventKind{
		trace.EvThreadStart, trace.EvThreadExit, trace.EvTxBegin, trace.EvTxEnd,
		trace.EvProgramEnd, trace.EvBlockedSet, trace.EvAccess, trace.EventKind(99),
	}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", uint8(k))
		}
	}
}

func TestReplayCancellation(t *testing.T) {
	prog, atomic := workloads.RandomRich(9)
	_, raw := record(t, prog, atomic, core.Baseline, 9)
	data, err := trace.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := trace.Replay(ctx, data, vm.NopInst{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRecordBaselineTee: recording with the Baseline analysis produces a
// replayable trace even though nothing was checked live — record now, check
// later is the whole point.
func TestRecordBaselineTee(t *testing.T) {
	prog, atomic := workloads.Random(11)
	_, raw := record(t, prog, atomic, core.Baseline, 11)
	data, err := trace.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunTrace(context.Background(), data, core.Config{Analysis: core.DCSingle})
	if err != nil {
		t.Fatal(err)
	}
	if res.VMStats.TotalAccesses() == 0 {
		t.Error("replayed stats empty")
	}
}

func TestRunTraceRejectsBaseline(t *testing.T) {
	prog, atomic := workloads.Random(12)
	_, raw := record(t, prog, atomic, core.Baseline, 12)
	data, err := trace.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunTrace(context.Background(), data, core.Config{Analysis: core.Baseline}); err == nil {
		t.Fatal("Baseline replay should be rejected")
	}
}
