package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"doublechecker/internal/telemetry"
	"doublechecker/internal/trace"
)

// testKey builds a distinct valid key; i varies every field so two keys
// never collide by accident.
func testKey(i int) Key {
	return Key{
		TraceVersion:  1,
		ProgramDigest: 0x1111 + uint64(i),
		SpecDigest:    0x2222 + uint64(i),
		Seed:          int64(i) - 3,
		Sched:         fmt.Sprintf("sticky(0.%d)", i),
		Source:        fmt.Sprintf("src-%d", i),
		BodyDigest:    0x3333 + uint64(i),
		Analysis:      "dc-single",
	}
}

func testEntry(i int) *Entry {
	return &Entry{
		Program:    fmt.Sprintf("prog-%d", i),
		Events:     uint64(100 + i),
		Violations: i % 3,
		Blamed:     []string{"deposit", "withdraw"}[:i%3],
	}
}

func TestKeyEncodeRoundTrip(t *testing.T) {
	for i := 0; i < 10; i++ {
		k := testKey(i)
		got, err := DecodeKey(k.Encode())
		if err != nil {
			t.Fatalf("key %d: decode: %v", i, err)
		}
		if !bytes.Equal(got.Encode(), k.Encode()) {
			t.Fatalf("key %d: round trip mismatch: %+v != %+v", i, got, k)
		}
	}
	// Empty strings and extreme numerics round-trip too.
	k := Key{Seed: -1 << 62, ProgramDigest: ^uint64(0)}
	if got, err := DecodeKey(k.Encode()); err != nil || got != k {
		t.Fatalf("extreme key round trip: %+v, %v", got, err)
	}
}

func TestKeyDecodeRejects(t *testing.T) {
	enc := testKey(1).Encode()
	// Truncation at every prefix length must fail, never mis-decode.
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeKey(enc[:n]); err == nil {
			t.Fatalf("decode of %d-byte prefix succeeded", n)
		}
	}
	if _, err := DecodeKey(append(bytes.Clone(enc), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: got %v, want ErrCorrupt", err)
	}
	// A future format version is ErrVersion, not ErrCorrupt: a stale cache,
	// not a broken one.
	bumped := append([]byte{FormatVersion + 1}, enc[1:]...)
	if _, err := DecodeKey(bumped); !errors.Is(err, ErrVersion) {
		t.Fatalf("version bump: got %v, want ErrVersion", err)
	}
}

func TestKeyIDDistinct(t *testing.T) {
	base := testKey(1)
	ids := map[string]string{base.ID(): "base"}
	perturb := map[string]Key{
		"trace version":  {TraceVersion: 2, ProgramDigest: base.ProgramDigest, SpecDigest: base.SpecDigest, Seed: base.Seed, Sched: base.Sched, Source: base.Source, BodyDigest: base.BodyDigest, Analysis: base.Analysis},
		"program digest": func() Key { k := base; k.ProgramDigest++; return k }(),
		"spec digest":    func() Key { k := base; k.SpecDigest++; return k }(),
		"seed":           func() Key { k := base; k.Seed++; return k }(),
		"sched":          func() Key { k := base; k.Sched += "x"; return k }(),
		"source":         func() Key { k := base; k.Source += "x"; return k }(),
		"body digest":    func() Key { k := base; k.BodyDigest++; return k }(),
		"analysis":       func() Key { k := base; k.Analysis = "velodrome"; return k }(),
	}
	for field, k := range perturb {
		id := k.ID()
		if prev, dup := ids[id]; dup {
			t.Errorf("perturbing %s collides with %s", field, prev)
		}
		ids[id] = field
	}
}

func TestEntryEncodeRoundTrip(t *testing.T) {
	for i := 0; i < 5; i++ {
		e := testEntry(i)
		e.Key = testKey(i)
		got, err := decodeEntry(e.encode())
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if got.Program != e.Program || got.Events != e.Events ||
			got.Violations != e.Violations || len(got.Blamed) != len(e.Blamed) {
			t.Fatalf("entry %d: round trip mismatch: %+v != %+v", i, got, e)
		}
		if !bytes.Equal(got.Key.Encode(), e.Key.Encode()) {
			t.Fatalf("entry %d: embedded key mismatch", i)
		}
	}
}

func TestMemTierLRUEviction(t *testing.T) {
	reg := telemetry.NewRegistry()
	// Budget for roughly two entries: the third insert evicts the coldest.
	one := testEntry(1)
	one.Key = testKey(1)
	s, err := Open(Config{MemBudget: 2*one.size() + 10, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		s.Put(testKey(i), testEntry(i))
	}
	// Touch key 1 so key 2 is the LRU victim.
	if _, ok := s.Get(testKey(1)); !ok {
		t.Fatal("key 1 missing before eviction")
	}
	s.Put(testKey(3), testEntry(3))
	if _, ok := s.Get(testKey(2)); ok {
		t.Error("cold key 2 survived past the byte budget")
	}
	if _, ok := s.Get(testKey(1)); !ok {
		t.Error("recently-used key 1 was evicted")
	}
	if _, ok := s.Get(testKey(3)); !ok {
		t.Error("just-inserted key 3 missing")
	}
	if got := reg.Counter(telemetry.StoreMemEvictions).Value(); got != 1 {
		t.Errorf("mem evictions = %d, want 1", got)
	}
	if got := reg.Gauge(telemetry.StoreMemBytes).Value(); got <= 0 {
		t.Errorf("mem bytes gauge = %v, want > 0", got)
	}
}

func TestDiskTierPersistsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	if err := s1.Put(k, testEntry(1)); err != nil {
		t.Fatal(err)
	}

	// A second store over the same directory — a process restart — serves
	// the entry from disk.
	reg := telemetry.NewRegistry()
	s2, err := Open(Config{Dir: dir, MemBudget: DefaultMemBudget, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s2.Get(k)
	if !ok {
		t.Fatal("disk entry missing after reopen")
	}
	if e.Program != "prog-1" || e.Events != 101 {
		t.Fatalf("disk entry corrupted: %+v", e)
	}
	if got := reg.Counter(telemetry.StoreHits).Value(); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	// The hit was promoted: a second Get is a memory hit even if the file
	// vanishes.
	os.Remove(filepath.Join(dir, k.ID()+".dcr"))
	if _, ok := s2.Get(k); !ok {
		t.Error("promoted entry not served from memory tier")
	}
}

func TestCorruptDiskEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	// No memory tier: every Get goes to disk.
	s, err := Open(Config{Dir: dir, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	if err := s.Put(k, testEntry(1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, k.ID()+".dcr")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(k); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if got := reg.Counter(telemetry.StoreQuarantined).Value(); got != 1 {
		t.Errorf("quarantined = %d, want 1", got)
	}
	// The artifact moved aside, evidence intact; the original slot is gone.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt file still in place: %v", err)
	}
	qpath := filepath.Join(dir, QuarantineDir, k.ID()+".dcr")
	if q, err := os.ReadFile(qpath); err != nil || !bytes.Equal(q, raw) {
		t.Errorf("quarantined bytes not preserved: %v", err)
	}
	// Once quarantined, the key is a plain miss, not a repeat quarantine.
	if _, ok := s.Get(k); ok {
		t.Error("quarantined key served as a hit")
	}
	if got := reg.Counter(telemetry.StoreQuarantined).Value(); got != 1 {
		t.Errorf("quarantined after re-Get = %d, want 1", got)
	}
}

func TestMisfiledEntryIsMiss(t *testing.T) {
	// An entry filed under another key's name (hash collision, tampering)
	// must decode-fail closed even though its bytes are pristine.
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	s, err := Open(Config{Dir: dir, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(1), testEntry(1)); err != nil {
		t.Fatal(err)
	}
	// Plant key 1's (valid!) file under key 2's name.
	raw, err := os.ReadFile(filepath.Join(dir, testKey(1).ID()+".dcr"))
	if err != nil {
		t.Fatal(err)
	}
	k2 := testKey(2)
	if err := os.WriteFile(filepath.Join(dir, k2.ID()+".dcr"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Dir: dir, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(k2); ok {
		t.Fatal("misfiled entry served as a wrong hit")
	}
	if got := reg.Counter(telemetry.StoreQuarantined).Value(); got != 1 {
		t.Errorf("quarantined = %d, want 1", got)
	}
	if _, ok := s2.Get(testKey(1)); !ok {
		t.Error("the correctly-filed original was lost")
	}
}

func TestDiskBudgetEvictsOldest(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	one := testEntry(1)
	one.Key = testKey(1)
	entryBytes := int64(len(one.encode()))
	s, err := Open(Config{Dir: dir, DiskBudget: 2*entryBytes + entryBytes/2, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := s.Put(testKey(i), testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get(testKey(1)); ok {
		t.Error("oldest disk entry survived past the budget")
	}
	for i := 2; i <= 3; i++ {
		if _, ok := s.Get(testKey(i)); !ok {
			t.Errorf("entry %d evicted out of order", i)
		}
	}
	if got := reg.Counter(telemetry.StoreDiskEvictions).Value(); got == 0 {
		t.Error("no disk evictions counted")
	}
}

func TestSingleflightLeaderAndWaiters(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := Open(Config{MemBudget: DefaultMemBudget, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)

	_, flight, leader := s.Lookup(k)
	if !leader || flight == nil {
		t.Fatal("first Lookup did not create a flight")
	}
	// Concurrent lookups join the same flight instead of leading.
	const waiters = 4
	var wg sync.WaitGroup
	results := make([]*Entry, waiters)
	for i := 0; i < waiters; i++ {
		_, f2, lead2 := s.Lookup(k)
		if lead2 || f2 != flight {
			t.Fatalf("waiter %d: leader=%v flight-match=%v", i, lead2, f2 == flight)
		}
		wg.Add(1)
		go func(i int, f *Flight) {
			defer wg.Done()
			<-f.Done()
			results[i], _ = f.Result()
		}(i, f2)
	}

	want := testEntry(1)
	s.Put(k, want)
	s.Finish(k, flight, want, nil)
	wg.Wait()
	for i, e := range results {
		if e == nil || e.Program != want.Program {
			t.Errorf("waiter %d got %+v", i, e)
		}
	}
	// The flight is gone: the next Lookup is a plain hit.
	if e, f, lead := s.Lookup(k); e == nil || f != nil || lead {
		t.Errorf("post-finish Lookup: entry=%v flight=%v leader=%v", e, f, lead)
	}
	if got := reg.Counter(telemetry.StoreCoalesced).Value(); got != waiters {
		t.Errorf("coalesced = %d, want %d", got, waiters)
	}
	if got := reg.Counter(telemetry.StoreMisses).Value(); got != 1 {
		t.Errorf("misses = %d, want 1 (leader only)", got)
	}
}

func TestSingleflightFailurePropagates(t *testing.T) {
	s, err := Open(Config{MemBudget: DefaultMemBudget})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	_, flight, leader := s.Lookup(k)
	if !leader {
		t.Fatal("no leader")
	}
	wantErr := errors.New("checker exploded")
	s.Finish(k, flight, nil, wantErr)
	<-flight.Done()
	if e, err := flight.Result(); e != nil || !errors.Is(err, wantErr) {
		t.Fatalf("Result() = %v, %v", e, err)
	}
	// A failed flight caches nothing: the next Lookup leads again.
	if _, _, lead := s.Lookup(k); !lead {
		t.Error("failed flight left residue; second Lookup did not lead")
	}
}

func TestPutGetWithBothTiersDisabled(t *testing.T) {
	// A store with no tiers is legal (dcheck one-shot mode disables memory
	// and may have no dir): Put is a no-op, Get a guaranteed miss.
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	if err := s.Put(k, testEntry(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Error("tierless store produced a hit")
	}
}

// TestNilStoreHoldsNothing pins the nil-store contract that lets callers
// run one check path with or without a configured store: Get misses, Put
// keeps nothing, every Lookup leads with no flight (so nothing coalesces),
// Finish without a flight does nothing, and Key leaves the body unhashed.
func TestNilStoreHoldsNothing(t *testing.T) {
	var s *Store
	k := testKey(1)
	if err := s.Put(k, testEntry(1)); err != nil {
		t.Fatalf("nil Put: %v", err)
	}
	if e, ok := s.Get(k); ok || e != nil {
		t.Errorf("nil Get after Put = %v, %v; want a miss", e, ok)
	}
	for i := 0; i < 2; i++ {
		e, f, lead := s.Lookup(k)
		if e != nil || f != nil || !lead {
			t.Fatalf("nil Lookup %d = (%v, %v, %v); want a leader with no flight", i, e, f, lead)
		}
		s.Finish(k, f, testEntry(1), nil)
	}

	hdr := &trace.Header{Version: 1, ProgramDigest: 7, SpecDigest: 8, Seed: 9, Sched: "sticky(0.1)", Source: "x.dcp"}
	body := []byte("trace bytes")
	if got, want := s.Key(hdr, body, "velodrome"), TraceKey(hdr, 0, "velodrome"); got != want {
		t.Errorf("nil Key = %+v, want %+v", got, want)
	}
	st, err := Open(Config{MemBudget: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.Key(hdr, body, "velodrome"), TraceKey(hdr, BodyDigest(body), "velodrome"); got != want {
		t.Errorf("Key = %+v, want %+v", got, want)
	}
	// A real store's leader may also finish with no flight in hand.
	st.Finish(k, nil, nil, errors.New("no flight"))
	if _, _, lead := st.Lookup(k); !lead {
		t.Error("Finish without a flight disturbed the store")
	}
}
