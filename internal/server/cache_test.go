package server_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"doublechecker/internal/core"
	"doublechecker/internal/server"
	"doublechecker/internal/store"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/trace"
)

// newCachedServer builds a server wired to a fresh result store. The store
// and the server share one registry so store.* counters are observable next
// to server.* ones, exactly as dcserve wires them.
func newCachedServer(t *testing.T, cfg server.Config, scfg store.Config) (*server.Server, *httptest.Server, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	scfg.Telemetry = reg
	cache, err := store.Open(scfg)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	cfg.Telemetry = reg
	cfg.Cache = cache
	s, ts := newTestServer(t, cfg)
	return s, ts, reg
}

// TestCacheContractGoldenCorpus is the result store's soundness contract on
// the wire: for every golden trace, the cold (miss) response is
// byte-identical to `dcheck -replay`, and the warm (hit) response is
// byte-identical to the cold one — the cache may save a recomputation but
// can never change an answer.
func TestCacheContractGoldenCorpus(t *testing.T) {
	traces, err := filepath.Glob(filepath.Join(goldenDir, "*.dct"))
	if err != nil || len(traces) == 0 {
		t.Fatalf("golden corpus: %v (%d traces)", err, len(traces))
	}
	_, ts, reg := newCachedServer(t, server.Config{},
		store.Config{MemBudget: store.DefaultMemBudget})
	for _, path := range traces {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := dcheckReplay(t, path)
		resp, cold := postTrace(t, ts, "name="+path, raw)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s cold: status %d: %s", path, resp.StatusCode, cold)
		}
		if got := resp.Header.Get(server.CacheHeader); got != "miss" {
			t.Errorf("%s cold: %s = %q, want miss", path, server.CacheHeader, got)
		}
		if cold != want {
			t.Errorf("%s cold: served report differs from dcheck -replay\nserved:\n%s\ndcheck:\n%s", path, cold, want)
		}
		resp, warm := postTrace(t, ts, "name="+path, raw)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s warm: status %d: %s", path, resp.StatusCode, warm)
		}
		if got := resp.Header.Get(server.CacheHeader); got != "hit" {
			t.Errorf("%s warm: %s = %q, want hit", path, server.CacheHeader, got)
		}
		if warm != cold {
			t.Errorf("%s: hit bytes differ from miss bytes\nhit:\n%s\nmiss:\n%s", path, warm, cold)
		}
	}
	if hits := reg.Counter(telemetry.StoreHits).Value(); hits != uint64(len(traces)) {
		t.Errorf("store hits = %d, want %d", hits, len(traces))
	}
	if misses := reg.Counter(telemetry.StoreMisses).Value(); misses != uint64(len(traces)) {
		t.Errorf("store misses = %d, want %d", misses, len(traces))
	}
}

// TestCacheDiskTierSurvivesRestart: a result computed by one server
// instance is a hit for the next one sharing the cache directory —
// including for a request under a different display name, which must be
// re-rendered, not replayed verbatim.
func TestCacheDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(goldenDir, "elevator.dct")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	_, ts1, _ := newCachedServer(t, server.Config{}, store.Config{Dir: dir})
	resp, _ := postTrace(t, ts1, "name="+path, raw)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(server.CacheHeader) != "miss" {
		t.Fatalf("first upload: status %d cache %q", resp.StatusCode, resp.Header.Get(server.CacheHeader))
	}

	_, ts2, reg2 := newCachedServer(t, server.Config{}, store.Config{Dir: dir})
	resp, body := postTrace(t, ts2, "name="+path, raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restart upload: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(server.CacheHeader); got != "hit" {
		t.Errorf("restart upload: %s = %q, want hit", server.CacheHeader, got)
	}
	if body != dcheckReplay(t, path) {
		t.Errorf("restarted hit differs from dcheck -replay:\n%s", body)
	}

	// A different display name re-renders around the same cached verdict.
	resp, renamed := postTrace(t, ts2, "name=other", raw)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(server.CacheHeader) != "hit" {
		t.Fatalf("renamed upload: status %d cache %q", resp.StatusCode, resp.Header.Get(server.CacheHeader))
	}
	if !strings.HasPrefix(renamed, "trace other:") {
		t.Errorf("renamed hit kept the old display name:\n%s", renamed)
	}
	if reg2.Counter(telemetry.StoreQuarantined).Value() != 0 {
		t.Error("clean restart quarantined entries")
	}
}

// TestCacheCorruptEntryFailsClosed: a bit-flipped disk entry is served as a
// miss with the correct recomputed bytes, and the corrupt artifact is
// quarantined — never served, never silently deleted.
func TestCacheCorruptEntryFailsClosed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(goldenDir, "elevator.dct")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := dcheckReplay(t, path)

	// Memory tier disabled so the second request must re-read the file.
	_, ts, reg := newCachedServer(t, server.Config{}, store.Config{Dir: dir})
	if resp, _ := postTrace(t, ts, "name="+path, raw); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed upload: status %d", resp.StatusCode)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.dcr"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cache dir: %v (%d files)", err, len(files))
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(files[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	resp, body := postTrace(t, ts, "name="+path, raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-corruption upload: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(server.CacheHeader); got != "miss" {
		t.Errorf("corrupt entry served as %q, want miss", got)
	}
	if body != want {
		t.Errorf("post-corruption bytes differ from dcheck -replay:\n%s", body)
	}
	if got := reg.Counter(telemetry.StoreQuarantined).Value(); got != 1 {
		t.Errorf("quarantined = %d, want 1", got)
	}
	qfiles, _ := filepath.Glob(filepath.Join(dir, store.QuarantineDir, "*"))
	if len(qfiles) != 1 {
		t.Errorf("quarantine dir holds %d files, want 1", len(qfiles))
	}
}

// TestCacheCoalescedWaiter drives the singleflight path deterministically:
// the test claims leadership of a key before the HTTP request arrives, so
// the request must join the flight, wait, and serve the leader's entry as
// "coalesced" — rendered around its own display name.
func TestCacheCoalescedWaiter(t *testing.T) {
	path := filepath.Join(goldenDir, "elevator.dct")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := trace.ReadHeader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	s, ts, reg := newCachedServer(t, server.Config{},
		store.Config{MemBudget: store.DefaultMemBudget})
	cache := s.Cache()

	ckey := store.TraceKey(hdr, store.BodyDigest(raw), "dc-single")
	if e, f, leader := cache.Lookup(ckey); e != nil || !leader {
		t.Fatalf("test could not claim leadership: entry=%v leader=%v flight=%v", e, leader, f != nil)
	} else {
		entry := &store.Entry{
			Program:    hdr.Program.Name,
			Events:     12345,
			Violations: 2,
			Blamed:     []string{"alpha", "beta"},
		}
		bodyCh := make(chan string, 1)
		respCh := make(chan *http.Response, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/check?name=waiter", "application/octet-stream", bytes.NewReader(raw))
			if err != nil {
				respCh <- nil
				bodyCh <- err.Error()
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			respCh <- resp
			bodyCh <- string(b)
		}()
		// The request has joined once the coalesced counter ticks.
		deadline := time.Now().Add(5 * time.Second)
		for reg.Counter(telemetry.StoreCoalesced).Value() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("request never joined the flight")
			}
			time.Sleep(5 * time.Millisecond)
		}
		cache.Put(ckey, entry)
		cache.Finish(ckey, f, entry, nil)

		resp, body := <-respCh, <-bodyCh
		if resp == nil {
			t.Fatalf("waiter request failed: %s", body)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("waiter: status %d: %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get(server.CacheHeader); got != "coalesced" {
			t.Errorf("waiter: %s = %q, want coalesced", server.CacheHeader, got)
		}
		want := core.ReplayReportFrom("waiter", entry.Program, ckey.Seed, entry.Events,
			ckey.Source, entry.Violations, entry.Blamed)
		if body != want {
			t.Errorf("waiter bytes:\n%s\nwant:\n%s", body, want)
		}
	}
}

// TestCacheConcurrentIdenticalUploads: a burst of identical uploads against
// a cold cache serves identical bytes everywhere, runs the checker at least
// once but classifies every request as exactly one of miss, hit, or
// coalesced.
func TestCacheConcurrentIdenticalUploads(t *testing.T) {
	path := filepath.Join(goldenDir, "sccring.dct")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := dcheckReplay(t, path)
	_, ts, reg := newCachedServer(t,
		server.Config{MaxConcurrent: 16, MaxQueue: 16},
		store.Config{MemBudget: store.DefaultMemBudget})

	const n = 12
	var wg sync.WaitGroup
	states := make([]string, n)
	bodies := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/check?name="+path, "application/octet-stream", bytes.NewReader(raw))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			bodies[i] = string(b)
			states[i] = resp.Header.Get(server.CacheHeader)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("upload %d: %v", i, errs[i])
		}
		if bodies[i] != want {
			t.Errorf("upload %d (%s) served wrong bytes:\n%s", i, states[i], bodies[i])
		}
		switch states[i] {
		case "miss", "hit", "coalesced":
		default:
			t.Errorf("upload %d: unclassified cache state %q", i, states[i])
		}
	}
	hits := reg.Counter(telemetry.StoreHits).Value()
	misses := reg.Counter(telemetry.StoreMisses).Value()
	coalesced := reg.Counter(telemetry.StoreCoalesced).Value()
	if misses < 1 {
		t.Error("no request ran the checker")
	}
	if hits+misses+coalesced != n {
		t.Errorf("hits %d + misses %d + coalesced %d != %d requests", hits, misses, coalesced, n)
	}
}

// TestRetryAfterOnDrainingAndQueueFull pins the backoff contract on both
// rejection paths: a drained server's 503 carries Retry-After just like the
// admission queue's 429 — clients can treat both uniformly.
func TestRetryAfterOnDrainingAndQueueFull(t *testing.T) {
	t.Run("draining", func(t *testing.T) {
		s, ts := newTestServer(t, server.Config{DrainTimeout: 7 * time.Second})
		s.StartDrain()
		resp, _ := postWorkload(t, ts, "name=pmd9")
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get(server.ErrorKindHeader) != "draining" {
			t.Fatalf("status %d kind %q", resp.StatusCode, resp.Header.Get(server.ErrorKindHeader))
		}
		if got := resp.Header.Get("Retry-After"); got != "7" {
			t.Errorf("draining Retry-After = %q, want 7", got)
		}
		// The trace path drains with the same hint.
		raw, err := os.ReadFile(filepath.Join(goldenDir, "elevator.dct"))
		if err != nil {
			t.Fatal(err)
		}
		resp, _ = postTrace(t, ts, "", raw)
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "7" {
			t.Errorf("trace upload during drain: status %d Retry-After %q",
				resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	})

	t.Run("queue-full", func(t *testing.T) {
		_, ts := newTestServer(t, server.Config{
			MaxConcurrent: 1,
			MaxQueue:      1,
			AllowFaults:   true,
		})
		stall := "name=pmd9&stall-at-access=1&stall-ms=700"
		done := make(chan struct{}, 2)
		for i := 0; i < 2; i++ {
			go func() {
				resp, err := http.Post(ts.URL+"/check/workload?"+stall, "", nil)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				done <- struct{}{}
			}()
			time.Sleep(150 * time.Millisecond)
		}
		resp, _ := postWorkload(t, ts, stall)
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get(server.ErrorKindHeader) != "queue-full" {
			t.Fatalf("status %d kind %q", resp.StatusCode, resp.Header.Get(server.ErrorKindHeader))
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("queue-full response missing Retry-After")
		}
		<-done
		<-done
	})
}

// TestChaosCacheFailClosed hammers a disk-backed cache with concurrent
// identical uploads while a saboteur continuously corrupts the cache files
// under it. Every 200 must carry the reference bytes regardless — corrupt
// entries quarantine and recompute, they never leak — and the server drains
// cleanly afterwards. The load runs until a healthy upload was served and a
// corrupted entry was quarantined (see loadWindow).
func TestChaosCacheFailClosed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(goldenDir, "elevator.dct")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := dcheckReplay(t, path)
	corrupt := bytes.Clone(raw)
	corrupt[len(corrupt)/2] ^= 0xff

	// Disk tier only: every hit re-reads (and re-verifies) the file the
	// saboteur is attacking.
	s, ts, reg := newCachedServer(t, server.Config{
		MaxConcurrent: 4,
		MaxQueue:      4,
		DrainTimeout:  5 * time.Second,
	}, store.Config{Dir: dir})

	var (
		wg        sync.WaitGroup
		healthyOK atomic.Uint64
	)
	quarantined := reg.Counter(telemetry.StoreQuarantined)
	load := newLoadWindow(func() bool { return healthyOK.Load() > 0 && quarantined.Value() > 0 })
	fail := func(format string, args ...any) { t.Errorf(format, args...) }

	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for load.more() {
				resp, err := http.Post(ts.URL+"/check?name="+path, "application/octet-stream", bytes.NewReader(raw))
				if err != nil {
					fail("healthy upload: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					healthyOK.Add(1)
					if string(body) != want {
						fail("upload (%s) served wrong bytes:\n%s",
							resp.Header.Get(server.CacheHeader), body)
						return
					}
				case http.StatusTooManyRequests:
				default:
					fail("upload: unexpected status %d (%s)", resp.StatusCode,
						resp.Header.Get(server.ErrorKindHeader))
					return
				}
			}
		}()
	}

	// The saboteur: keep flipping a byte in every cache file.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for load.more() {
			files, _ := filepath.Glob(filepath.Join(dir, "*.dcr"))
			for _, f := range files {
				if b, err := os.ReadFile(f); err == nil && len(b) > 0 {
					b[len(b)/2] ^= 0x01
					os.WriteFile(f, b, 0o644)
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// Corrupt trace uploads stay classified even with the cache in front.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for load.more() {
			resp, err := http.Post(ts.URL+"/check", "application/octet-stream", bytes.NewReader(corrupt))
			if err != nil {
				fail("corrupt upload: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusBadRequest, http.StatusTooManyRequests:
			default:
				fail("corrupt upload: unexpected status %d (%s)", resp.StatusCode,
					resp.Header.Get(server.ErrorKindHeader))
				return
			}
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}
	if healthyOK.Load() == 0 {
		t.Error("no healthy upload was served during the chaos load")
	}
	if quarantined.Value() == 0 {
		t.Error("the saboteur's corruption was never quarantined")
	}

	s.StartDrain()
	if !s.WaitDrain(context.Background()) {
		t.Error("drain after chaos load was not clean")
	}
}
