// Package store is a two-tier content-addressed cache of check results.
//
// The determinism contract (PRs 4–5) says a check report is a byte-identical
// function of the trace bytes and the analysis; this package turns that
// guarantee into throughput by remembering results under a content address
// (key.go) in an in-memory LRU with a byte budget and, optionally, an
// on-disk tier written atomically (tmp + rename) and CRC-verified on read.
//
// Failure policy: every artifact that does not decode cleanly — truncated,
// bit-flipped, wrong version, misfiled under another key's name — is a
// MISS. It is quarantined aside (never deleted in place, so the evidence
// survives for inspection) and counted, and the caller re-runs the check.
// The cache can therefore cost a recomputation but can never change an
// answer.
//
// Singleflight (singleflight.go) rides on the same index so concurrent
// identical requests share one checker run.
//
// A nil *Store is a valid store that holds nothing: Get misses, Put keeps
// nothing, Lookup makes every caller a leader with no flight, and Key skips
// hashing the body. Callers run one check path whether or not a store was
// configured.
package store

import (
	"bytes"
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"doublechecker/internal/obs"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/trace"
)

// DefaultMemBudget is the memory tier's default byte budget (dcserve's
// -cache-mem default). Entries are tiny — a key, a verdict, some method
// names — so this holds hundreds of thousands of results.
const DefaultMemBudget int64 = 64 << 20

// entryExt is the on-disk entry file suffix.
const entryExt = ".dcr"

// QuarantineDir is the subdirectory of Config.Dir that corrupt entries are
// moved into.
const QuarantineDir = "quarantine"

// Config configures a Store.
type Config struct {
	// Dir is the disk tier's directory; empty disables the disk tier.
	Dir string
	// MemBudget is the memory tier's byte budget; <= 0 disables the memory
	// tier (every Get consults the disk tier).
	MemBudget int64
	// DiskBudget caps the disk tier's total entry bytes; <= 0 means
	// unbounded. When exceeded, oldest entries are evicted first.
	DiskBudget int64
	// Telemetry receives store.* metrics; nil is valid and records nothing.
	Telemetry *telemetry.Registry
	// Recorder, if non-nil, receives a flight-recorder event whenever an
	// entry is quarantined, and the recorder's snapshot at that instant is
	// written beside the quarantined artifact (<name>.flight.json) — the
	// post-mortem record of what the process was doing when corruption
	// surfaced.
	Recorder *obs.FlightRecorder
}

// Store is the two-tier cache. All methods are safe for concurrent use,
// and all of them accept a nil *Store, which holds nothing.
type Store struct {
	dir        string
	memBudget  int64
	diskBudget int64

	hits        *telemetry.Counter
	misses      *telemetry.Counter
	coalesced   *telemetry.Counter
	memEvict    *telemetry.Counter
	diskEvict   *telemetry.Counter
	quarantined *telemetry.Counter
	memBytes    *telemetry.Gauge
	diskBytes   *telemetry.Gauge
	recorder    *obs.FlightRecorder

	mu       sync.Mutex
	mem      map[string]*list.Element // id → LRU element
	lru      *list.List               // front = most recent
	memSize  int64
	disk     map[string]*diskMeta // id → file metadata
	diskSize int64
	nextAge  int64
	flights  map[string]*Flight
}

// memEntry is one LRU slot.
type memEntry struct {
	id   string
	e    *Entry
	size int64
}

// diskMeta tracks one disk-tier file without holding its contents.
type diskMeta struct {
	size int64
	age  int64 // eviction order: lower = older
}

// Open creates or opens a store. With a Dir, the directory is created if
// needed and existing entries are indexed (oldest-first by modification
// time) without being read — contents are only decoded, and verified, on
// Get.
func Open(cfg Config) (*Store, error) {
	s := &Store{
		dir:         cfg.Dir,
		memBudget:   cfg.MemBudget,
		diskBudget:  cfg.DiskBudget,
		hits:        cfg.Telemetry.Counter(telemetry.StoreHits),
		misses:      cfg.Telemetry.Counter(telemetry.StoreMisses),
		coalesced:   cfg.Telemetry.Counter(telemetry.StoreCoalesced),
		memEvict:    cfg.Telemetry.Counter(telemetry.StoreMemEvictions),
		diskEvict:   cfg.Telemetry.Counter(telemetry.StoreDiskEvictions),
		quarantined: cfg.Telemetry.Counter(telemetry.StoreQuarantined),
		memBytes:    cfg.Telemetry.Gauge(telemetry.StoreMemBytes),
		diskBytes:   cfg.Telemetry.Gauge(telemetry.StoreDiskBytes),
		recorder:    cfg.Recorder,
		mem:         make(map[string]*list.Element),
		lru:         list.New(),
		disk:        make(map[string]*diskMeta),
		flights:     make(map[string]*Flight),
	}
	if s.dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", s.dir, err)
	}
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", s.dir, err)
	}
	type scanned struct {
		id    string
		size  int64
		mtime int64
	}
	var found []scanned
	for _, de := range names {
		if de.IsDir() || filepath.Ext(de.Name()) != entryExt {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with a concurrent eviction; skip
		}
		id := de.Name()[:len(de.Name())-len(entryExt)]
		found = append(found, scanned{id: id, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].mtime != found[j].mtime {
			return found[i].mtime < found[j].mtime
		}
		return found[i].id < found[j].id
	})
	for _, f := range found {
		s.disk[f.id] = &diskMeta{size: f.size, age: s.nextAge}
		s.nextAge++
		s.diskSize += f.size
	}
	s.diskBytes.Set(float64(s.diskSize))
	return s, nil
}

// Key returns the content address of checking body, whose header is hdr,
// under the named analysis (see TraceKey). A nil store compares no keys,
// so it leaves BodyDigest zero rather than hash the body.
func (s *Store) Key(hdr *trace.Header, body []byte, analysis string) Key {
	var digest uint64
	if s != nil {
		digest = BodyDigest(body)
	}
	return TraceKey(hdr, digest, analysis)
}

// Get returns the cached entry for k, or (nil, false) on a miss. Disk-tier
// hits are promoted into the memory tier. Any artifact that fails to decode
// or answers a different key is quarantined and reported as a miss.
func (s *Store) Get(k Key) (*Entry, bool) {
	if s == nil {
		return nil, false
	}
	e, ok := s.lookup(k)
	if !ok {
		s.misses.Inc()
	}
	return e, ok
}

// lookup is Get without miss accounting (singleflight charges misses to the
// leader only). Hits are counted here.
func (s *Store) lookup(k Key) (*Entry, bool) {
	id := k.ID()
	s.mu.Lock()
	if el, ok := s.mem[id]; ok {
		s.lru.MoveToFront(el)
		e := el.Value.(*memEntry).e
		s.mu.Unlock()
		s.hits.Inc()
		return e, true
	}
	onDisk := false
	if s.dir != "" {
		_, onDisk = s.disk[id]
	}
	s.mu.Unlock()
	if !onDisk {
		return nil, false
	}

	// Disk read happens outside the lock; a file evicted in the window
	// shows up as not-exist, which is an ordinary miss, not corruption.
	path := s.entryPath(id)
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false
		}
		s.quarantine(id, path)
		return nil, false
	}
	e, err := decodeEntry(raw)
	if err != nil {
		s.quarantine(id, path)
		return nil, false
	}
	// The file must answer the question being asked: its embedded key has
	// to match k byte for byte, or someone misfiled (or planted) it.
	if !bytes.Equal(e.Key.Encode(), k.Encode()) {
		s.quarantine(id, path)
		return nil, false
	}

	s.mu.Lock()
	s.insertMemLocked(id, e)
	s.mu.Unlock()
	s.hits.Inc()
	return e, true
}

// Put stores e under k in both tiers. The entry's Key field is overwritten
// with k so the on-disk record always embeds the address it is filed under.
func (s *Store) Put(k Key, e *Entry) error {
	if s == nil {
		return nil
	}
	e.Key = k
	id := k.ID()

	var werr error
	if s.dir != "" {
		werr = s.writeDisk(id, e)
	}

	s.mu.Lock()
	s.insertMemLocked(id, e)
	s.mu.Unlock()
	return werr
}

// insertMemLocked installs e in the memory tier and evicts from the cold
// end until the byte budget holds. An entry larger than the whole budget is
// simply not cached. Caller holds s.mu.
func (s *Store) insertMemLocked(id string, e *Entry) {
	if s.memBudget <= 0 {
		return
	}
	sz := e.size()
	if sz > s.memBudget {
		return
	}
	if el, ok := s.mem[id]; ok {
		s.lru.MoveToFront(el)
		el.Value.(*memEntry).e = e
		return
	}
	el := s.lru.PushFront(&memEntry{id: id, e: e, size: sz})
	s.mem[id] = el
	s.memSize += sz
	for s.memSize > s.memBudget {
		back := s.lru.Back()
		if back == nil || back == el {
			break
		}
		me := back.Value.(*memEntry)
		s.lru.Remove(back)
		delete(s.mem, me.id)
		s.memSize -= me.size
		s.memEvict.Inc()
	}
	s.memBytes.Set(float64(s.memSize))
}

// writeDisk persists e atomically: encode to a temp file in the store
// directory, fsync-free rename into place (the cache tolerates losing the
// last write on power failure — it re-runs the check), then index it and
// evict oldest-first past the disk budget.
func (s *Store) writeDisk(id string, e *Entry) error {
	enc := e.encode()
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("store: put %s: %w", id, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(enc); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: put %s: %w", id, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: put %s: %w", id, err)
	}
	if err := os.Rename(tmpName, s.entryPath(id)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: put %s: %w", id, err)
	}

	size := int64(len(enc))
	var evict []string
	s.mu.Lock()
	if old, ok := s.disk[id]; ok {
		s.diskSize -= old.size
	}
	s.disk[id] = &diskMeta{size: size, age: s.nextAge}
	s.nextAge++
	s.diskSize += size
	if s.diskBudget > 0 {
		for s.diskSize > s.diskBudget {
			victim, ok := s.oldestLocked(id)
			if !ok {
				break
			}
			s.diskSize -= s.disk[victim].size
			delete(s.disk, victim)
			evict = append(evict, victim)
		}
	}
	s.diskBytes.Set(float64(s.diskSize))
	s.mu.Unlock()

	for _, victim := range evict {
		os.Remove(s.entryPath(victim))
		s.diskEvict.Inc()
	}
	return nil
}

// oldestLocked returns the id of the oldest disk entry other than keep.
// Caller holds s.mu. Linear scan: eviction only runs past the budget, and
// the disk index is small relative to what it saves.
func (s *Store) oldestLocked(keep string) (string, bool) {
	var (
		victim string
		minAge int64
		found  bool
	)
	for id, m := range s.disk {
		if id == keep {
			continue
		}
		if !found || m.age < minAge || (m.age == minAge && id < victim) {
			victim, minAge, found = id, m.age, true
		}
	}
	return victim, found
}

// quarantine moves a corrupt artifact aside into QuarantineDir (falling
// back to removal if the move fails), drops it from both indexes, and
// counts it. The original bytes survive for inspection; the caller sees a
// miss.
func (s *Store) quarantine(id, path string) {
	qdir := filepath.Join(s.dir, QuarantineDir)
	moved := false
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if err := os.Rename(path, filepath.Join(qdir, filepath.Base(path))); err == nil {
			moved = true
		}
	}
	if !moved {
		os.Remove(path)
	}
	// The quarantine IS the incident: record it, then drop the recorder's
	// snapshot beside the quarantined bytes so a post-mortem sees what the
	// process was doing when the corruption surfaced.
	s.recorder.Add(obs.Event{Kind: obs.EventQuarantine, Name: id, Msg: "store: corrupt entry quarantined: " + filepath.Base(path)})
	if s.recorder != nil && moved {
		os.WriteFile(filepath.Join(qdir, filepath.Base(path)+".flight.json"), s.recorder.JSON(), 0o644)
	}

	s.mu.Lock()
	if m, ok := s.disk[id]; ok {
		s.diskSize -= m.size
		delete(s.disk, id)
		s.diskBytes.Set(float64(s.diskSize))
	}
	if el, ok := s.mem[id]; ok {
		me := el.Value.(*memEntry)
		s.lru.Remove(el)
		delete(s.mem, id)
		s.memSize -= me.size
		s.memBytes.Set(float64(s.memSize))
	}
	s.mu.Unlock()
	s.quarantined.Inc()
}

func (s *Store) entryPath(id string) string {
	return filepath.Join(s.dir, id+entryExt)
}
