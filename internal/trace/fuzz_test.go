package trace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"doublechecker/internal/vm"
)

// FuzzRead fuzzes the reader on raw bytes. Any input either fails with a
// typed decode error or decodes into a trace that survives a round trip:
// re-encoded through a Writer and read back, it yields the same events,
// blocked sets, counts and completeness. Every decoded trace also replays.
// Seeds are the golden corpus and a trace whose field operand would alias
// another field if the reader truncated it.
func FuzzRead(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "traces", "*.dct"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("golden corpus not found: %v (%d files)", err, len(paths))
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add(accessTrace(f, []uint64{1<<32 + 3}, []uint64{1}))
	f.Add(objectsTrace(f, -5, 100_000_000))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<20 {
			t.Skip("oversized input")
		}
		d, err := Read(bytes.NewReader(raw))
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		back, err := Read(bytes.NewReader(reencode(t, d)))
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if err := sameTrace(d, back); err != nil {
			t.Fatalf("round trip changed the trace: %v", err)
		}
		if err := Replay(context.Background(), d, vm.NopInst{}); err != nil {
			t.Fatalf("replay: %v", err)
		}
	})
}

// reencode writes d's header and events through a fresh Writer.
func reencode(t *testing.T, d *Data) []byte {
	t.Helper()
	var out bytes.Buffer
	w, err := NewWriter(&out, Header{
		Program: d.Header.Program,
		Atomic:  slices.Clone(d.Header.Atomic),
		Seed:    d.Header.Seed,
		Sched:   d.Header.Sched,
		Source:  d.Header.Source,
	})
	if err != nil {
		t.Fatalf("decoded header does not re-encode: %v", err)
	}
	for _, ev := range d.Events {
		switch ev.Kind {
		case EvThreadStart:
			w.ThreadStart(ev.Thread)
		case EvThreadExit:
			w.ThreadExit(ev.Thread)
		case EvTxBegin:
			w.TxBegin(ev.Thread, ev.Method)
		case EvTxEnd:
			w.TxEnd(ev.Thread, ev.Method)
		case EvAccess:
			w.Access(ev.Access())
		case EvBlockedSet:
			w.BlockedSet(d.BlockedSet(ev))
		case EvProgramEnd:
			w.ProgramEnd()
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// sameTrace compares two decoded traces event by event, blocked sets by
// content, plus their counts and completeness.
func sameTrace(a, b *Data) error {
	if len(a.Events) != len(b.Events) {
		return fmt.Errorf("%d events, then %d", len(a.Events), len(b.Events))
	}
	for i, x := range a.Events {
		y := b.Events[i]
		if x.Kind == EvBlockedSet && y.Kind == EvBlockedSet {
			if sa, sb := a.BlockedSet(x), b.BlockedSet(y); !slices.Equal(sa, sb) {
				return fmt.Errorf("event %d: blocked set %v, then %v", i, sa, sb)
			}
			continue
		}
		if x != y {
			return fmt.Errorf("event %d: %+v, then %+v", i, x, y)
		}
	}
	if a.Counts != b.Counts {
		return fmt.Errorf("counts {%v}, then {%v}", a.Counts, b.Counts)
	}
	if a.Complete != b.Complete {
		return fmt.Errorf("complete %v, then %v", a.Complete, b.Complete)
	}
	return nil
}
