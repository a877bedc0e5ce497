// dcserve: the always-on checking service. Serves .dct uploads and named
// workloads over HTTP with admission control, circuit breaking, a result
// store, and graceful drain; see internal/server.

package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"doublechecker/internal/obs"
	"doublechecker/internal/server"
	"doublechecker/internal/store"
	"doublechecker/internal/telemetry"
)

// dcserveFlags is dcserve's parsed and validated command line.
type dcserveFlags struct {
	addr      string
	cfg       server.Config // logger, recorder and store are wired by DCServe
	cacheMem  int64
	cacheDir  string
	cacheDisk int64
	logLevel  string
	flightBuf int
}

// parseDCServe parses dcserve's flags and rejects numbers outside their
// domain, naming the flag on stderr. ok is false when the command must exit
// 2 without listening. The zeros with a documented meaning keep it:
// -concurrency 0 runs GOMAXPROCS checks, -retries 0 retries nothing, the
// breaker's zeros take its defaults, -cache-mem 0 disables the memory tier
// (and, without -cache-dir, the store) and -cache-disk 0 leaves the disk
// tier unbounded.
func parseDCServe(args []string, stderr io.Writer) (f dcserveFlags, ok bool) {
	fs := flag.NewFlagSet("dcserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &f.cfg
	fs.StringVar(&f.addr, "addr", "127.0.0.1:8377", "listen address (host:port; port 0 picks a free port)")
	fs.DurationVar(&cfg.RequestTimeout, "request-timeout", server.DefaultRequestTimeout, "per-check wall-clock budget")
	fs.DurationVar(&cfg.DrainTimeout, "drain-timeout", server.DefaultDrainTimeout, "how long in-flight checks get to finish on shutdown")
	fs.IntVar(&cfg.MaxConcurrent, "concurrency", 0, "checks running at once (0: GOMAXPROCS)")
	fs.IntVar(&cfg.MaxQueue, "queue", server.DefaultMaxQueue, "admitted requests that may wait for a slot before shedding with 429")
	fs.Int64Var(&cfg.MaxBodyBytes, "max-body", server.DefaultMaxBodyBytes, "largest accepted trace upload, bytes")
	fs.IntVar(&cfg.BreakerThreshold, "breaker-threshold", 0, "consecutive same-digest failures that open a circuit (0: default)")
	fs.DurationVar(&cfg.BreakerCooldown, "breaker-cooldown", 0, "open-circuit cooldown before a probe (0: default)")
	fs.IntVar(&cfg.Retries, "retries", 1, "extra attempts a transient check failure earns (0: none)")
	fs.Float64Var(&cfg.WorkloadScale, "scale", server.DefaultWorkloadScale, "scale factor for named workload checks")
	fs.BoolVar(&cfg.AllowFaults, "allow-faults", false, "enable deterministic fault-injection query parameters (chaos testing only)")
	fs.Int64Var(&f.cacheMem, "cache-mem", store.DefaultMemBudget, "result-store memory tier byte budget (0 disables the tier; with no -cache-dir, the store)")
	fs.StringVar(&f.cacheDir, "cache-dir", "", "result-store disk tier directory (empty disables the tier)")
	fs.Int64Var(&f.cacheDisk, "cache-disk", 0, "result-store disk tier byte budget (0: unbounded)")
	fs.StringVar(&f.logLevel, "log-level", "info", "structured log level: debug, info, warn, error")
	fs.IntVar(&f.flightBuf, "flight-buf", obs.DefaultFlightRecorderSize,
		"flight recorder ring capacity (recent span/log/panic/quarantine events, served at /debug/flightrecorder)")
	if err := fs.Parse(args); err != nil {
		return f, false
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "dcserve: unexpected arguments %v\n", fs.Args())
		return f, false
	}
	var bad string
	switch {
	case cfg.MaxConcurrent < 0:
		bad = fmt.Sprintf("-concurrency %d is negative", cfg.MaxConcurrent)
	case cfg.Retries < 0:
		bad = fmt.Sprintf("-retries %d is negative", cfg.Retries)
	case cfg.BreakerThreshold < 0:
		bad = fmt.Sprintf("-breaker-threshold %d is negative", cfg.BreakerThreshold)
	case cfg.BreakerCooldown < 0:
		bad = fmt.Sprintf("-breaker-cooldown %v is negative", cfg.BreakerCooldown)
	case f.cacheMem < 0:
		bad = fmt.Sprintf("-cache-mem %d is negative", f.cacheMem)
	case f.cacheDisk < 0:
		bad = fmt.Sprintf("-cache-disk %d is negative", f.cacheDisk)
	case cfg.MaxQueue < 1:
		bad = fmt.Sprintf("-queue %d must be at least 1", cfg.MaxQueue)
	case cfg.MaxBodyBytes < 1:
		bad = fmt.Sprintf("-max-body %d must be at least 1", cfg.MaxBodyBytes)
	case f.flightBuf < 1:
		bad = fmt.Sprintf("-flight-buf %d must be at least 1", f.flightBuf)
	case cfg.RequestTimeout <= 0:
		bad = fmt.Sprintf("-request-timeout %v must be positive", cfg.RequestTimeout)
	case cfg.DrainTimeout <= 0:
		bad = fmt.Sprintf("-drain-timeout %v must be positive", cfg.DrainTimeout)
	case !(cfg.WorkloadScale > 0):
		bad = fmt.Sprintf("-scale %v must be positive", cfg.WorkloadScale)
	}
	if bad != "" {
		fmt.Fprintln(stderr, "dcserve:", bad)
		return f, false
	}
	return f, true
}

// DCServe runs the dcserve command: parse flags, serve until the context is
// canceled (SIGTERM/SIGINT in main), then drain gracefully. Returns the
// process exit code.
func DCServe(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	f, ok := parseDCServe(args, stderr)
	if !ok {
		return 2
	}
	cfg := f.cfg

	// One flight recorder for the whole service: request spans, log lines,
	// panic quarantines, and store quarantines all land in the same ring.
	// The service log — lifecycle plus one line per check request — goes to
	// stdout, which the ops convention captures as the server log.
	rec := obs.NewFlightRecorder(f.flightBuf)
	logger := obs.NewLogger(stdout, obs.ParseLevel(f.logLevel), rec)
	cfg.Logger = logger
	cfg.Recorder = rec

	// The result store is on by default (memory tier only); -cache-dir adds
	// the persistent tier, and -cache-mem 0 with no -cache-dir leaves the
	// server storeless. Store and server share one registry so /metrics
	// shows store.* beside server.*.
	if f.cacheMem > 0 || f.cacheDir != "" {
		cfg.Telemetry = telemetry.NewRegistry()
		cache, err := store.Open(store.Config{
			Dir:        f.cacheDir,
			MemBudget:  f.cacheMem,
			DiskBudget: f.cacheDisk,
			Telemetry:  cfg.Telemetry,
			Recorder:   rec,
		})
		if err != nil {
			fmt.Fprintf(stderr, "dcserve: %v\n", err)
			return 1
		}
		cfg.Cache = cache
	}

	s := server.New(cfg)
	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		fmt.Fprintf(stderr, "dcserve: %v\n", err)
		return 1
	}
	logger.Info(fmt.Sprintf("dcserve: serving on http://%s", ln.Addr()),
		"drain_timeout", cfg.DrainTimeout.String(), "log_level", f.logLevel)

	httpSrv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		logger.Error("dcserve: serve failed", "err", err.Error())
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting (readyz flips to 503 and new checks are
	// rejected while existing connections still get answers), let in-flight
	// checks finish within the drain deadline, cancel stragglers, then close
	// the listener and idle connections.
	logger.Info("dcserve: draining")
	clean := s.WaitDrain(context.Background())
	if !clean {
		logger.Warn("dcserve: drain deadline exceeded; canceled remaining checks",
			"deadline", cfg.DrainTimeout.String())
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		httpSrv.Close()
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("dcserve: serve failed", "err", err.Error())
		return 1
	}
	logger.Info("dcserve: drained, exiting")
	return 0
}
