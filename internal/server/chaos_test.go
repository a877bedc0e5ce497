package server_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"doublechecker/internal/server"
	"doublechecker/internal/supervise"
)

// A chaos load runs for at least minLoad, then until what the test asserts
// has happened, and never past maxLoad. The test waits on its own conditions
// rather than on the clock, so a slow or busy runner only runs longer; a
// condition that never holds still fails the test, after maxLoad.
const (
	minLoad = 1200 * time.Millisecond
	maxLoad = 30 * time.Second
)

// loadWindow is one chaos load's window; seen reports the asserted
// conditions.
type loadWindow struct {
	start time.Time
	seen  func() bool
}

func newLoadWindow(seen func() bool) loadWindow {
	return loadWindow{start: time.Now(), seen: seen}
}

// more reports whether the load should keep going.
func (w loadWindow) more() bool {
	switch elapsed := time.Since(w.start); {
	case elapsed < minLoad:
		return true
	case elapsed >= maxLoad:
		return false
	}
	return !w.seen()
}

// TestChaosSustainedAvailability is the acceptance scenario: a saturating
// mixed client — healthy golden uploads, corrupt uploads, and a workload
// poisoned with a deterministic panic plan — hammers a small server
// concurrently. The server must never crash or emit an unclassified
// response: overload is shed with 429, the poisoned workload's circuit
// opens while healthy traces keep being served byte-identically to `dcheck
// -replay`, and when the load stops the server drains cleanly within its
// deadline. The load runs until a healthy upload was served and the circuit
// rejected a request (see loadWindow).
func TestChaosSustainedAvailability(t *testing.T) {
	path := filepath.Join(goldenDir, "elevator.dct")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := dcheckReplay(t, path)
	corrupt := bytes.Clone(raw)
	corrupt[len(corrupt)/2] ^= 0xff

	s, ts := newTestServer(t, server.Config{
		MaxConcurrent:    3,
		MaxQueue:         2,
		AllowFaults:      true,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour,
		DrainTimeout:     5 * time.Second,
	})

	var (
		wg          sync.WaitGroup
		healthyOK   atomic.Uint64
		shed        atomic.Uint64
		breakerHits atomic.Uint64
	)
	load := newLoadWindow(func() bool { return healthyOK.Load() > 0 && breakerHits.Load() > 0 })
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
	}

	// Healthy uploaders: every 200 must carry the reference bytes; the only
	// acceptable non-200 under saturation is a shed (429).
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
						fail("healthy upload served wrong bytes:\n%s", body)
						return
					}
				case http.StatusTooManyRequests:
					shed.Add(1)
				default:
					fail("healthy upload: unexpected status %d (%s): %s",
						resp.StatusCode, resp.Header.Get(server.ErrorKindHeader), body)
					return
				}
			}
		}()
	}

	// Corrupt uploaders: always classified 400 bad-trace (or shed).
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
				fail("corrupt upload: unexpected status %d (%s)",
					resp.StatusCode, resp.Header.Get(server.ErrorKindHeader))
				return
			}
		}
	}()

	// The poisoned workload: panics until its circuit opens, then every
	// further request is rejected up front with breaker-open.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for load.more() {
			resp, err := http.Post(ts.URL+"/check/workload?name=pmd9&panic-at-access=1", "", nil)
			if err != nil {
				fail("poisoned workload: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			kind := resp.Header.Get(server.ErrorKindHeader)
			switch {
			case resp.StatusCode == http.StatusInternalServerError && kind == "panic":
			case resp.StatusCode == http.StatusServiceUnavailable && kind == "breaker-open":
				breakerHits.Add(1)
			case resp.StatusCode == http.StatusTooManyRequests:
			default:
				fail("poisoned workload: unexpected status %d (%s)", resp.StatusCode, kind)
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
	if breakerHits.Load() == 0 {
		t.Error("the poisoned workload's circuit never rejected a request")
	}
	if got := s.Breaker().State("workload:pmd9"); got != supervise.BreakerOpen {
		t.Errorf("poisoned workload breaker state = %v, want open", got)
	}

	// The load is gone: drain must complete cleanly within the deadline,
	// flipping readiness on the way.
	s.StartDrain()
	if resp, _ := get(t, ts, "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: %d", resp.StatusCode)
	}
	start := time.Now()
	if !s.WaitDrain(context.Background()) {
		t.Error("post-chaos drain was forced")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("drain took %v, beyond the deadline", took)
	}
	t.Logf("chaos: %d healthy served, %d shed, %d breaker rejections",
		healthyOK.Load(), shed.Load(), breakerHits.Load())
}
