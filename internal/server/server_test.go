package server_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"doublechecker/internal/cli"
	"doublechecker/internal/server"
	"doublechecker/internal/telemetry"
)

const goldenDir = "../../testdata/traces"

// newTestServer starts an httptest server around a fresh service.
func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postTrace uploads a trace body to /check with the given query string.
func postTrace(t *testing.T, ts *httptest.Server, query string, body []byte) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/check?"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /check: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, string(b)
}

// get fetches a path and returns the response plus body.
func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, string(b)
}

// dcheckReplay runs the dcheck CLI's replay mode on path and returns its
// stdout — the reference bytes the service must match.
func dcheckReplay(t *testing.T, path string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := cli.DCheck([]string{"-replay", path}, &out, &errb); code != 0 {
		t.Fatalf("dcheck -replay %s: exit %d: %s", path, code, errb.String())
	}
	return out.String()
}

// TestServeTraceMatchesDCheckReplay is the service's correctness contract:
// for every golden trace, the /check response body is byte-identical to
// `dcheck -replay` on the same file. Every request replays PCD in line, as
// dcheck does; the pooled leg's requests still ask for PCD workers through
// the retired ?pcd-workers= parameter, which the server ignores.
func TestServeTraceMatchesDCheckReplay(t *testing.T) {
	traces, err := filepath.Glob(filepath.Join(goldenDir, "*.dct"))
	if err != nil || len(traces) == 0 {
		t.Fatalf("golden corpus: %v (%d traces)", err, len(traces))
	}
	legs := []struct {
		name  string
		query string
	}{
		{"pooled", "&pcd-workers=8"},
		{"serial", ""},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			_, ts := newTestServer(t, server.Config{})
			for _, path := range traces {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				want := dcheckReplay(t, path)
				resp, got := postTrace(t, ts, "name="+path+leg.query, raw)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d (%s): %s", path, resp.StatusCode,
						resp.Header.Get(server.ErrorKindHeader), got)
				}
				if got != want {
					t.Errorf("%s: served report differs from dcheck -replay\nserved:\n%s\ndcheck:\n%s",
						path, got, want)
				}
				if c := resp.Header.Get(server.CacheHeader); c != "" {
					t.Errorf("%s: storeless server sent %s: %s", path, server.CacheHeader, c)
				}
			}
		})
	}
}

// TestConcurrentUploadsDeterministic: many concurrent uploads of the same
// trace, all checked at once, serve identical bytes.
func TestConcurrentUploadsDeterministic(t *testing.T) {
	path := filepath.Join(goldenDir, "sccring.dct")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := dcheckReplay(t, path)
	_, ts := newTestServer(t, server.Config{MaxConcurrent: 8})
	var wg sync.WaitGroup
	results := make([]string, 12)
	errs := make([]error, 12)
	for i := range results {
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
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, b)
				return
			}
			results[i] = string(b)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
		if results[i] != want {
			t.Errorf("upload %d served different bytes:\n%s", i, results[i])
		}
	}
}

// TestUploadErrorTaxonomy: corrupt, truncated, oversized and non-trace
// uploads map to the documented 4xx kinds.
func TestUploadErrorTaxonomy(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(goldenDir, "elevator.dct"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, server.Config{MaxBodyBytes: int64(len(raw)) - 1})

	flipped := bytes.Clone(raw)
	flipped[len(flipped)/2] ^= 0xff
	cases := []struct {
		name   string
		query  string
		body   []byte
		status int
		kind   string
	}{
		{"garbage", "", []byte("not a trace at all"), http.StatusBadRequest, "bad-trace"},
		{"truncated", "", raw[:len(raw)/2], http.StatusBadRequest, "bad-trace"},
		{"corrupt", "", flipped[:len(raw)-2], http.StatusBadRequest, "bad-trace"},
		{"too-large", "", raw, http.StatusRequestEntityTooLarge, "too-large"},
		{"bad-analysis", "analysis=nope", raw[:64], http.StatusBadRequest, "bad-request"},
		{"baseline-not-replayable", "analysis=baseline", raw[:64], http.StatusBadRequest, "bad-request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postTrace(t, ts, tc.query, tc.body)
			if resp.StatusCode != tc.status {
				t.Errorf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			if got := resp.Header.Get(server.ErrorKindHeader); got != tc.kind {
				t.Errorf("%s = %q, want %q", server.ErrorKindHeader, got, tc.kind)
			}
		})
	}
}

// TestWorkloadEndpoints: a healthy named workload serves a report; unknown
// names 404; fault parameters are rejected without AllowFaults.
func TestWorkloadEndpoints(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp, body := postWorkload(t, ts, "name=pmd9&seed=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pmd9: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "workload pmd9:") || !strings.Contains(body, "dynamic violations") {
		t.Errorf("report:\n%s", body)
	}

	resp, _ = postWorkload(t, ts, "name=no-such-workload")
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get(server.ErrorKindHeader) != "unknown-workload" {
		t.Errorf("unknown workload: status %d kind %q", resp.StatusCode, resp.Header.Get(server.ErrorKindHeader))
	}

	resp, _ = postWorkload(t, ts, "name=pmd9&panic-at-access=1")
	if resp.StatusCode != http.StatusForbidden || resp.Header.Get(server.ErrorKindHeader) != "faults-disabled" {
		t.Errorf("faults without AllowFaults: status %d kind %q", resp.StatusCode, resp.Header.Get(server.ErrorKindHeader))
	}

	resp, body = get(t, ts, "/workloads")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "pmd9\t") {
		t.Errorf("/workloads: status %d\n%s", resp.StatusCode, body)
	}
}

func postWorkload(t *testing.T, ts *httptest.Server, query string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/check/workload?"+query, "", nil)
	if err != nil {
		t.Fatalf("POST /check/workload: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// TestBreakerQuarantinesPoisonedWorkload: repeated same-digest panics open
// the circuit for that workload only; healthy workloads keep serving, and
// healthz lists the open circuit.
func TestBreakerQuarantinesPoisonedWorkload(t *testing.T) {
	s, ts := newTestServer(t, server.Config{
		AllowFaults:      true,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	var digest string
	for i := 0; i < 2; i++ {
		resp, body := postWorkload(t, ts, "name=pmd9&panic-at-access=1")
		if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get(server.ErrorKindHeader) != "panic" {
			t.Fatalf("poisoned check %d: status %d kind %q: %s", i, resp.StatusCode,
				resp.Header.Get(server.ErrorKindHeader), body)
		}
		d := resp.Header.Get(server.PanicDigestHeader)
		if d == "" {
			t.Fatalf("poisoned check %d: no panic digest", i)
		}
		if digest == "" {
			digest = d
		} else if d != digest {
			t.Fatalf("digest changed between identical panics: %s vs %s", digest, d)
		}
	}

	resp, _ := postWorkload(t, ts, "name=pmd9&panic-at-access=1")
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get(server.ErrorKindHeader) != "breaker-open" {
		t.Fatalf("after threshold: status %d kind %q", resp.StatusCode, resp.Header.Get(server.ErrorKindHeader))
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("breaker-open response missing Retry-After")
	}

	// The poison is keyed: a healthy workload still serves.
	resp, body := postWorkload(t, ts, "name=elevator")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy workload during quarantine: status %d: %s", resp.StatusCode, body)
	}

	resp, body = get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "breaker open: workload:pmd9") {
		t.Errorf("healthz: status %d\n%s", resp.StatusCode, body)
	}
	if got := s.Registry().Counter(telemetry.ServerBreakerTrips).Value(); got != 1 {
		t.Errorf("breaker trips = %d, want 1", got)
	}
}

// TestQueueFullSheds: with one slot and a queue of one, a third concurrent
// check is shed with 429 and Retry-After instead of piling up.
func TestQueueFullSheds(t *testing.T) {
	s, ts := newTestServer(t, server.Config{
		MaxConcurrent: 1,
		MaxQueue:      1,
		AllowFaults:   true,
	})
	stall := "name=pmd9&stall-at-access=1&stall-ms=700"
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, _ := http.Post(ts.URL+"/check/workload?"+stall, "", nil)
			if resp != nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				done <- resp.StatusCode
			} else {
				done <- 0
			}
		}()
		// Let request i occupy its place (slot, then queue) before the next.
		time.Sleep(150 * time.Millisecond)
	}

	resp, body := postWorkload(t, ts, stall)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get(server.ErrorKindHeader) != "queue-full" {
		t.Fatalf("third check: status %d kind %q: %s", resp.StatusCode, resp.Header.Get(server.ErrorKindHeader), body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue-full response missing Retry-After")
	}
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Errorf("stalled check %d finished with %d, want 200", i, code)
		}
	}
	if got := s.Registry().Counter(telemetry.ServerShedQueueFull).Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
}

// TestDrainCleanAndForced: drain flips readyz, rejects new work, lets quick
// checks finish (clean drain), and cancels overlong ones at the deadline
// (forced drain).
func TestDrainCleanAndForced(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		s, ts := newTestServer(t, server.Config{DrainTimeout: 5 * time.Second})
		if resp, _ := get(t, ts, "/readyz"); resp.StatusCode != http.StatusOK {
			t.Fatalf("readyz before drain: %d", resp.StatusCode)
		}
		s.StartDrain()
		if resp, body := get(t, ts, "/readyz"); resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
			t.Errorf("readyz during drain: %d %q", resp.StatusCode, body)
		}
		resp, _ := postWorkload(t, ts, "name=pmd9")
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get(server.ErrorKindHeader) != "draining" {
			t.Errorf("new check during drain: status %d kind %q", resp.StatusCode, resp.Header.Get(server.ErrorKindHeader))
		}
		if !s.WaitDrain(context.Background()) {
			t.Error("idle drain was not clean")
		}
	})

	t.Run("forced", func(t *testing.T) {
		s, ts := newTestServer(t, server.Config{
			DrainTimeout: 50 * time.Millisecond,
			AllowFaults:  true,
		})
		done := make(chan *http.Response, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/check/workload?name=pmd9&stall-at-access=1&stall-ms=600", "", nil)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			done <- resp
		}()
		// Wait until the stalled check is admitted: it then stays in flight
		// for its 600 ms stall, far past the drain deadline.
		inFlight := s.Registry().Gauge(telemetry.ServerInFlight)
		for admitted := time.Now().Add(30 * time.Second); inFlight.Value() < 1; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(admitted) {
				t.Fatal("the stalled check was never admitted")
			}
		}
		if s.WaitDrain(context.Background()) {
			t.Error("drain with a stalled check reported clean")
		}
		resp := <-done
		if resp == nil {
			t.Fatal("stalled check got no response")
		}
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get(server.ErrorKindHeader) != "draining" {
			t.Errorf("canceled in-flight check: status %d kind %q", resp.StatusCode, resp.Header.Get(server.ErrorKindHeader))
		}
	})
}

// TestRequestTimeout: a check that overruns the request deadline is cut off
// with 504.
func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, server.Config{
		RequestTimeout: 80 * time.Millisecond,
		AllowFaults:    true,
	})
	resp, body := postWorkload(t, ts, "name=pmd9&stall-at-access=1&stall-ms=500")
	if resp.StatusCode != http.StatusGatewayTimeout || resp.Header.Get(server.ErrorKindHeader) != "timeout" {
		t.Fatalf("stalled check: status %d kind %q: %s", resp.StatusCode, resp.Header.Get(server.ErrorKindHeader), body)
	}
}

// TestMetricsServed: the telemetry mux rides along on the service port.
func TestMetricsServed(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	if resp, _ := postWorkload(t, ts, "name=pmd9"); resp.StatusCode != http.StatusOK {
		t.Fatalf("workload check: %d", resp.StatusCode)
	}
	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{"dc_server_requests", "dc_server_ok", "dc_vm_steps"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s:\n%.400s", want, body)
		}
	}
}
