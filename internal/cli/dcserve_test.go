package cli

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a bytes.Buffer safe to read while DCServe writes to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestDCServeServesAndDrains drives the command end to end: start on an
// ephemeral port, serve a golden trace byte-identically to dcheck -replay,
// then cancel the context (the SIGTERM path) and watch it drain and exit 0.
func TestDCServeServesAndDrains(t *testing.T) {
	tracePath, err := filepath.Abs(filepath.Join("..", "..", "testdata", "traces", "elevator.dct"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var want, werr bytes.Buffer
	if code := DCheck([]string{"-replay", tracePath}, &want, &werr); code != 0 {
		t.Fatalf("dcheck -replay: exit %d: %s", code, werr.String())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errb syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- DCServe(ctx, []string{"-addr", "127.0.0.1:0", "-drain-timeout", "2s"}, &out, &errb)
	}()

	// The banner prints the actual (ephemeral) address.
	addrRe := regexp.MustCompile(`serving on (http://[0-9.:]+)`)
	var base string
	for start := time.Now(); base == ""; {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		if time.Since(start) > 5*time.Second {
			t.Fatalf("server never announced its address:\n%s\n%s", out.String(), errb.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/check?name="+tracePath, "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/check: %d: %s", resp.StatusCode, body)
	}
	if string(body) != want.String() {
		t.Errorf("served report differs from dcheck -replay:\n%s\nvs:\n%s", body, want.String())
	}

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit %d:\n%s\n%s", code, out.String(), errb.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("dcserve did not exit after cancellation:\n%s", out.String())
	}
	for _, wantLine := range []string{"dcserve: draining", "dcserve: drained, exiting"} {
		if !strings.Contains(out.String(), wantLine) {
			t.Errorf("stdout missing %q:\n%s", wantLine, out.String())
		}
	}
}

// TestDCServeRejectsBadNumbers: numeric flags outside their domain exit 2
// before the service listens, instead of being swapped for a default.
func TestDCServeRejectsBadNumbers(t *testing.T) {
	cases := []struct{ flag, value string }{
		{"-concurrency", "-3"},
		{"-retries", "-1"},
		{"-breaker-threshold", "-1"},
		{"-breaker-cooldown", "-1s"},
		{"-cache-mem", "-1"},
		{"-cache-disk", "-1"},
		{"-queue", "0"},
		{"-max-body", "0"},
		{"-flight-buf", "0"},
		{"-request-timeout", "0s"},
		{"-drain-timeout", "-1s"},
		{"-scale", "0"},
		{"-scale", "-1"},
		{"-scale", "NaN"},
	}
	// Canceled up front: a command that wrongly accepted the flag drains
	// and exits at once instead of serving forever.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cases {
		var out, errb syncBuffer
		code := DCServe(ctx, []string{"-addr", "127.0.0.1:0", tc.flag, tc.value}, &out, &errb)
		if code != 2 {
			t.Errorf("%s %s: exit %d, want 2", tc.flag, tc.value, code)
		}
		if !strings.Contains(errb.String(), tc.flag+" ") {
			t.Errorf("%s %s: stderr does not name the flag: %q", tc.flag, tc.value, errb.String())
		}
		if strings.Contains(out.String(), "serving on") {
			t.Errorf("%s %s: listened anyway:\n%s", tc.flag, tc.value, out.String())
		}
	}
}

// TestDCServeRetriesZeroMeansNone: -retries 0 reaches the server
// configuration as no retries; the default stays one.
func TestDCServeRetriesZeroMeansNone(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, 1},
		{[]string{"-retries", "0"}, 0},
		{[]string{"-retries", "3"}, 3},
	} {
		f, ok := parseDCServe(tc.args, io.Discard)
		if !ok {
			t.Fatalf("%v: rejected", tc.args)
		}
		if f.cfg.Retries != tc.want {
			t.Errorf("%v: server configured with %d retries, want %d", tc.args, f.cfg.Retries, tc.want)
		}
	}
}
