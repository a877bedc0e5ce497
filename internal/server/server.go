// Package server runs the checker as a long-lived service: dcserve accepts
// .dct trace uploads and named built-in workloads over HTTP and returns
// check reports, engineered for sustained availability rather than one-shot
// runs.
//
// The service composes the existing layers end to end:
//
//   - admission control: a bounded queue in front of a fixed number of
//     checking slots; when the queue is full the request is shed with 429
//     and a Retry-After hint instead of piling up goroutines;
//   - per-request deadlines: every check runs under supervise.Trial with the
//     request timeout as its trial budget, threaded into core via the
//     existing context plumbing;
//   - circuit breaking: repeated failures of the same key (a workload, a
//     trace's program+spec identity) with the same panic stack digest
//     open that key's circuit — the poisoned input is quarantined with 503
//     while healthy traffic keeps flowing;
//   - graceful drain: StartDrain stops admission (readyz flips to 503, new
//     checks are rejected), WaitDrain finishes in-flight work within the
//     drain deadline and cancels whatever remains;
//   - result caching: with a store.Store configured, trace checks are
//     keyed by content address (DESIGN.md §12); hits bypass the admission
//     queue entirely, concurrent identical uploads coalesce onto one
//     checker run, and every 200 carries X-DC-Cache: hit|miss|coalesced.
//     Without one, the nil store holds nothing: every trace check leads
//     its own run on the same path, and no response carries X-DC-Cache.
//
// A report served for a trace is byte-identical to `dcheck -replay` on the
// same file, cached or cold: hit and miss paths both
// render through core.ReplayReportFrom, and a corrupt cache entry is a
// quarantined miss, never an answer.
package server

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"time"

	"doublechecker/internal/obs"
	"doublechecker/internal/store"
	"doublechecker/internal/supervise"
	"doublechecker/internal/telemetry"
)

// Config tunes the service. Zero fields take the documented defaults.
type Config struct {
	// MaxConcurrent is how many checks may run at once (default:
	// GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue is how many admitted requests may wait for a slot before new
	// ones are shed with 429 (default DefaultMaxQueue).
	MaxQueue int
	// RequestTimeout is the per-check wall-clock budget, enforced by
	// supervise.Trial (default DefaultRequestTimeout; 0 keeps the default —
	// an always-on service never runs unbounded checks).
	RequestTimeout time.Duration
	// DrainTimeout bounds WaitDrain: in-flight checks get this long to
	// finish before they are canceled (default DefaultDrainTimeout).
	DrainTimeout time.Duration
	// MaxBodyBytes bounds an uploaded trace body; larger uploads get 413
	// (default DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// Retries is how many extra attempts a transient failure earns; 0 means
	// none. RetryBackoff is the doubling pause between attempts (default
	// 50ms).
	Retries      int
	RetryBackoff time.Duration
	// BreakerThreshold and BreakerCooldown tune the circuit breaker
	// (defaults supervise.DefaultBreakerThreshold / 30s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// WorkloadScale is the scale factor for named built-in workloads
	// (default 0.2).
	WorkloadScale float64
	// AllowFaults enables the deterministic fault-injection query
	// parameters on workload checks (panic-at-access, stall-at-access, ...)
	// — the chaos-testing seam. Never enable it on a real deployment.
	AllowFaults bool
	// Telemetry receives the server.* metrics and every check's pipeline
	// metrics; nil creates a private registry (exposed at /metrics either
	// way).
	Telemetry *telemetry.Registry
	// Cache is the content-addressed result store. When set, trace checks
	// are keyed by (trace identity, raw-byte digest, analysis): hits are
	// answered straight from the store — bypassing the admission queue —
	// and concurrent identical uploads coalesce onto one checker run. Every
	// 200 carries X-DC-Cache: hit|miss|coalesced. nil disables caching:
	// every check runs, and no response carries X-DC-Cache.
	Cache *store.Store
	// Logger receives the structured request log (one line per check
	// request) and lifecycle diagnostics. nil keeps the server silent —
	// every log call is nil-safe.
	Logger *obs.Logger
	// Recorder is the flight recorder shared across the pipeline: span
	// ends, log lines, panic quarantines, and store quarantines all land
	// in its ring, served at /debug/flightrecorder and snapshotted into
	// quarantine records. nil creates a private recorder — the endpoint
	// works either way. Pass the same recorder to store.Open so cache
	// quarantines share the ring.
	Recorder *obs.FlightRecorder
	// TraceRetention is how many finished request traces stay fetchable
	// at /debug/traces/<id> (default DefaultTraceRetention).
	TraceRetention int
}

// Service defaults.
const (
	DefaultMaxQueue       = 64
	DefaultRequestTimeout = 60 * time.Second
	DefaultDrainTimeout   = 10 * time.Second
	DefaultMaxBodyBytes   = 32 << 20
	DefaultRetryBackoff   = 50 * time.Millisecond
	DefaultWorkloadScale  = 0.2
)

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = DefaultMaxQueue
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = DefaultRetryBackoff
	}
	if c.WorkloadScale <= 0 {
		c.WorkloadScale = DefaultWorkloadScale
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.NewRegistry()
	}
	if c.Recorder == nil {
		c.Recorder = obs.NewFlightRecorder(0)
	}
	if c.TraceRetention <= 0 {
		c.TraceRetention = DefaultTraceRetention
	}
	return c
}

// Server is the always-on checking service. Create one with New, mount
// Handler on an http.Server, and call StartDrain/WaitDrain on SIGTERM.
type Server struct {
	cfg     Config
	reg     *telemetry.Registry
	breaker *supervise.Breaker
	mux     *http.ServeMux

	slots   chan struct{} // checking slots (admission's running half)
	waiting counterGauge  // admission queue depth
	cache   *store.Store  // nil: caching disabled

	log     *obs.Logger         // nil-safe structured log
	rec     *obs.FlightRecorder // shared flight recorder ring
	traces  *traceRing          // retained request traces
	handler http.Handler        // mux wrapped in the request-log middleware

	mu        sync.Mutex
	draining  bool
	drainCh   chan struct{} // closed when drain starts
	inflight  sync.WaitGroup
	inflightN int // gauge mirror of checks running now

	// inflightCtx parents every admitted check; cancelInflight is drain's
	// last resort when the deadline expires.
	inflightCtx    context.Context
	cancelInflight context.CancelFunc
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg: cfg,
		reg: cfg.Telemetry,
		breaker: supervise.NewBreaker(supervise.BreakerConfig{
			Threshold: cfg.BreakerThreshold,
			Cooldown:  cfg.BreakerCooldown,
		}),
		slots:          make(chan struct{}, cfg.MaxConcurrent),
		cache:          cfg.Cache,
		log:            cfg.Logger,
		rec:            cfg.Recorder,
		traces:         newTraceRing(cfg.TraceRetention),
		drainCh:        make(chan struct{}),
		inflightCtx:    ctx,
		cancelInflight: cancel,
	}
	s.waiting.gauge = cfg.Telemetry.Gauge(telemetry.ServerQueueDepth)
	s.mux = s.routes()
	s.handler = s.withObs(s.mux)
	return s
}

// Registry returns the server's telemetry registry (the one /metrics
// serves).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Breaker returns the server's circuit breaker, for health reporting and
// tests.
func (s *Server) Breaker() *supervise.Breaker { return s.breaker }

// Cache returns the server's result store (nil when caching is disabled).
func (s *Server) Cache() *store.Store { return s.cache }

// Handler returns the service's HTTP handler: the check endpoints, health
// probes, the telemetry mux (/metrics, /debug/vars, /debug/pprof), and
// the observability endpoints (/debug/traces, /debug/flightrecorder,
// /debug/bundle), all wrapped in the request-log middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// FlightRecorder returns the server's shared flight recorder ring.
func (s *Server) FlightRecorder() *obs.FlightRecorder { return s.rec }

// Draining reports whether drain has started.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// StartDrain stops admission: readyz flips to 503, queued requests are
// released with 503, and new checks are rejected. Idempotent. In-flight
// checks keep running until WaitDrain's deadline.
func (s *Server) StartDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	close(s.drainCh)
	s.reg.Gauge(telemetry.ServerDraining).Set(1)
}

// WaitDrain blocks until every in-flight check finished, the configured
// drain deadline passed, or ctx was done. On deadline or ctx expiry the
// in-flight context is canceled — checks unwind promptly through the
// existing context plumbing — and WaitDrain waits for them to return.
// It reports whether the drain was clean (nothing had to be canceled).
func (s *Server) WaitDrain(ctx context.Context) bool {
	s.StartDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	t := time.NewTimer(s.cfg.DrainTimeout)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-ctx.Done():
	case <-t.C:
	}
	s.cancelInflight()
	<-done
	return false
}

// admission outcomes.
type admitResult int

const (
	admitOK admitResult = iota
	admitShed
	admitDraining
	admitCanceled
)

// admitVerdictName renders an admission verdict for span attributes and
// log lines.
func admitVerdictName(v admitResult) string {
	switch v {
	case admitOK:
		return "ok"
	case admitShed:
		return "shed"
	case admitDraining:
		return "draining"
	default:
		return "canceled"
	}
}

// admit acquires a checking slot, queueing up to MaxQueue requests. The
// release closure must be called exactly once when the check finishes.
func (s *Server) admit(ctx context.Context) (release func(), verdict admitResult) {
	// Fast path: a free slot, no queueing.
	if release, ok := s.tryAcquire(); ok {
		return release, admitOK
	}
	// Queue — bounded: beyond MaxQueue the request is shed immediately.
	if int(s.waiting.inc()) > s.cfg.MaxQueue {
		s.waiting.dec()
		return nil, admitShed
	}
	defer s.waiting.dec()
	select {
	case s.slots <- struct{}{}:
		if release, ok := s.registerInflight(); ok {
			return release, admitOK
		}
		<-s.slots
		return nil, admitDraining
	case <-s.drainCh:
		return nil, admitDraining
	case <-ctx.Done():
		return nil, admitCanceled
	}
}

// tryAcquire takes a free slot without queueing.
func (s *Server) tryAcquire() (release func(), ok bool) {
	select {
	case s.slots <- struct{}{}:
	default:
		return nil, false
	}
	if release, ok := s.registerInflight(); ok {
		return release, true
	}
	<-s.slots
	return nil, false
}

// registerInflight adds the caller to the drain-tracked in-flight set; it
// fails when drain has already started (the slot must be returned).
func (s *Server) registerInflight() (release func(), ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false
	}
	s.inflight.Add(1)
	s.inflightN++
	g := s.reg.Gauge(telemetry.ServerInFlight)
	g.Set(float64(s.inflightN))
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			s.inflightN--
			g.Set(float64(s.inflightN))
			s.mu.Unlock()
			<-s.slots
			s.inflight.Done()
		})
	}, true
}

// counterGauge is an int64 counter mirrored into a telemetry gauge.
type counterGauge struct {
	mu    sync.Mutex
	n     int64
	gauge *telemetry.Gauge
}

func (c *counterGauge) inc() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if c.gauge != nil {
		c.gauge.Set(float64(c.n))
	}
	return c.n
}

func (c *counterGauge) dec() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n--
	if c.gauge != nil {
		c.gauge.Set(float64(c.n))
	}
}
