package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"doublechecker/internal/obs"
	"doublechecker/internal/server"
	"doublechecker/internal/store"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/trace"
)

// service is an in-process dcserve at its default configuration (memory
// result store, PCD pool on) behind a loopback listener. Each pass of the
// request sequence gets a fresh server and store, so a pass's repeats are
// its only store hits.
type service struct {
	hs     *http.Server
	served chan error
	base   string
	client *http.Client

	cur     atomic.Pointer[server.Server]
	retries atomic.Uint64 // supervise retries of finished passes

	mu    sync.Mutex
	first map[string][]byte // this pass's first 200 body per upload

	// bench is the benchmark's own store the traced run times Get and Put
	// against, on the same keys the service uses; rec is the flight
	// recorder its re-run request traces feed, as the service's do.
	bench *store.Store
	rec   *obs.FlightRecorder
}

func startService() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		rec:    obs.NewFlightRecorder(0),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
	}
	s.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.cur.Load().Handler().ServeHTTP(w, r)
	})}
	if err := s.reset(); err != nil {
		ln.Close()
		return nil, err
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// reset installs a fresh server and store; no request may be in flight.
func (s *service) reset() error {
	if old := s.cur.Load(); old != nil {
		s.retries.Add(old.Registry().Snapshot().Counter(telemetry.SuperviseRetries))
		old.WaitDrain(context.Background())
	}
	reg := telemetry.NewRegistry()
	st, err := store.Open(store.Config{MemBudget: store.DefaultMemBudget, Telemetry: reg})
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	bench, err := store.Open(store.Config{MemBudget: store.DefaultMemBudget})
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	s.cur.Store(server.New(server.Config{Cache: st, Telemetry: reg}))
	s.bench = bench
	s.mu.Lock()
	s.first = map[string][]byte{}
	s.mu.Unlock()
	return nil
}

// totalRetries is the supervise retries of every pass so far.
func (s *service) totalRetries() uint64 {
	return s.retries.Load() + s.cur.Load().Registry().Snapshot().Counter(telemetry.SuperviseRetries)
}

func (s *service) close() error {
	s.cur.Load().WaitDrain(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.client.CloseIdleConnections()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// upload posts one request's trace and returns the response as seen by the
// caller, timed from send to last body byte.
func (s *service) upload(ctx context.Context, r request) outcome {
	q := url.Values{"analysis": {r.analysis}, "name": {r.in.name}}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/check?"+q.Encode(), bytes.NewReader(r.in.body))
	if err != nil {
		return outcome{err: err}
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return outcome{dur: time.Since(t0), err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o := outcome{dur: time.Since(t0), cache: resp.Header.Get(server.CacheHeader)}
	if err != nil {
		o.err = err
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.refused = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
		o.err = fmt.Errorf("%s %s: status %d: %s", r.in.name, r.analysis, resp.StatusCode, strings.TrimSpace(string(body)))
		return o
	}
	o.blamed, o.err = parseBlamed(body)
	if o.err == nil {
		o.err = s.sameAsFirst(r, body)
	}
	if o.err == nil {
		o.err = verdictErr(modeServe, r.in, o.blamed)
	}
	return o
}

// sameAsFirst checks that every 200 for one upload in a pass carries the
// same bytes, so store hits answer exactly what the miss answered.
func (s *service) sameAsFirst(r request, body []byte) error {
	key := r.in.name + "|" + r.analysis
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, ok := s.first[key]
	if !ok {
		s.first[key] = body
		return nil
	}
	if !bytes.Equal(prev, body) {
		return fmt.Errorf("%s %s: response differs from the pass's first response", r.in.name, r.analysis)
	}
	return nil
}

// nullRoundTrip times a GET /healthz: the HTTP and routing cost of a request
// that does no checking.
func (s *service) nullRoundTrip(ctx context.Context) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/healthz", nil)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return time.Since(t0), err
}

// tracedUpload is the traced twin of upload. After the timed round trip it
// re-runs the request's layers standalone on the same body and key: a null
// round trip for HTTP, then store.Get for a hit, or decode, core.RunTrace
// and store.Put for a miss.
func (s *service) tracedUpload(ctx context.Context, r request, l *layers, cal *calibration) outcome {
	o := s.upload(ctx, r)
	if o.err != nil {
		return o
	}
	l.inc("server.requests", 1)
	null, err := s.nullRoundTrip(ctx)
	if err != nil {
		o.err = err
		return o
	}
	l.add("http", null)
	hdr, _, err := trace.PeekHeader(bytes.NewReader(r.in.body))
	if err != nil {
		o.err = err
		return o
	}
	key := store.TraceKey(hdr, store.BodyDigest(r.in.body), r.analysis)
	if o.cache != "miss" {
		t0 := time.Now()
		// The other client may not have stored the original yet; a lookup
		// that misses costs about what a hit costs, so it is timed either way.
		s.bench.Get(key)
		l.add("store.get", time.Since(t0))
		l.inc("store.gets", 1)
		l.inc("server.hits", 1)
		l.inc("server.hit_ns", float64(o.dur))
		return o
	}
	// The service checks under a live request trace, so the checkers open
	// their phase spans; the re-run does the same.
	before := l.selfSum()
	t1 := time.Now()
	tr := obs.NewTrace(obs.TraceConfig{Name: "check.trace", Recorder: s.rec})
	rctx := obs.ContextWithSpan(ctx, tr.Root())
	l.add("obs.trace", time.Since(t1))
	d, res, err := tracedReplay(rctx, r.in.body, r.analysis, l, cal)
	t2 := time.Now()
	tr.Finish()
	l.add("obs.trace", time.Since(t2))
	if err != nil {
		o.err = err
		return o
	}
	entry := &store.Entry{
		Key:        key,
		Program:    d.Header.Program.Name,
		Events:     d.Counts.Total(),
		Violations: len(res.Violations),
		Blamed:     res.BlamedMethodNames(d.Header.Program),
	}
	t0 := time.Now()
	err = s.bench.Put(key, entry)
	l.add("store.put", time.Since(t0))
	l.inc("store.puts", 1)
	if err != nil {
		o.err = fmt.Errorf("store put: %w", err)
		return o
	}
	l.inc("server.misses", 1)
	l.inc("server.miss_overhead_ns", float64(o.dur-(l.selfSum()-before)))
	if !equalStrings(entry.Blamed, o.blamed) {
		o.err = fmt.Errorf("%s %s: traced replay blames %v, service %v", r.in.name, r.analysis, entry.Blamed, o.blamed)
	}
	return o
}

// parseBlamed extracts the verdict from a report's summary: the
// "blamed methods: [a b]" line, or none when no violation was found.
func parseBlamed(body []byte) ([]string, error) {
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "blamed methods: ["); ok {
			return strings.Fields(strings.TrimSuffix(rest, "]")), nil
		}
		if line == "no atomicity violations detected" {
			return nil, nil
		}
	}
	return nil, fmt.Errorf("report has no verdict line: %q", body)
}
