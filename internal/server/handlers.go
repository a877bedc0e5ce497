// HTTP surface: the check endpoints, the error taxonomy, and the health
// probes.
//
// Error taxonomy (every error response carries the machine-readable
// X-DC-Error header):
//
//	bad-request     400  malformed parameters (unknown analysis, bad number)
//	bad-trace       400  the upload decodes to no valid trace (magic,
//	                     version, CRC, truncation)
//	body-read       400  the request body itself failed mid-stream
//	                     (connection reset while uploading)
//	unknown-workload 404 no built-in workload by that name
//	faults-disabled 403  fault-injection parameters without AllowFaults
//	too-large       413  body exceeded MaxBodyBytes
//	queue-full      429  admission queue full; Retry-After hints a backoff
//	breaker-open    503  the circuit for this workload/trace is open;
//	                     Retry-After carries the cooldown remainder
//	draining        503  received while the server drains for shutdown
//	canceled        499  the client went away mid-check
//	timeout         504  the check exceeded the request deadline
//	panic           500  a checker panic was quarantined (X-DC-Panic-Digest
//	                     carries the stable stack digest)
//	check-failed    500  the check failed for any other reason

package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"doublechecker/internal/core"
	"doublechecker/internal/faultinject"
	"doublechecker/internal/obs"
	"doublechecker/internal/spec"
	"doublechecker/internal/store"
	"doublechecker/internal/supervise"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/trace"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

// StatusClientClosedRequest is the nginx-convention status for a client
// that disconnected mid-check; net/http has no name for it.
const StatusClientClosedRequest = 499

// ErrorKindHeader carries the machine-readable error kind; PanicDigestHeader
// carries the quarantined panic's stable stack digest; CacheHeader reports
// how a trace check was satisfied when the result store is enabled.
const (
	ErrorKindHeader   = "X-DC-Error"
	PanicDigestHeader = "X-DC-Panic-Digest"
	CacheHeader       = "X-DC-Cache" // hit | miss | coalesced
)

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /check", s.handleCheckTrace)
	mux.HandleFunc("POST /check/workload", s.handleCheckWorkload)
	mux.HandleFunc("GET /workloads", s.handleWorkloads)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	// Observability endpoints. More specific than the GET /debug/ subtree
	// below, so they win pattern precedence.
	mux.HandleFunc("GET /debug/traces", s.handleDebugTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleDebugTrace)
	mux.HandleFunc("GET /debug/flightrecorder", s.handleFlightRecorder)
	mux.HandleFunc("GET /debug/bundle", s.handleDebugBundle)
	// The existing telemetry mux — Prometheus text, expvars, pprof — rides
	// along on the service port.
	tm := s.reg.NewMux()
	mux.Handle("GET /metrics", tm)
	mux.Handle("GET /debug/", tm)
	return mux
}

// writeErr emits one taxonomy error: status, X-DC-Error kind, optional
// Retry-After hint, human-readable body.
func (s *Server) writeErr(w http.ResponseWriter, status int, kind, msg string, retryAfter time.Duration) {
	w.Header().Set(ErrorKindHeader, kind)
	if retryAfter > 0 {
		secs := int(retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	// A traced request's error body names its trace, so the timeline
	// behind any failure is one /debug/traces/<id> fetch away.
	if tid := w.Header().Get(TraceIDHeader); tid != "" {
		fmt.Fprintf(w, "%s: %s (trace %s)\n", kind, msg, tid)
		return
	}
	fmt.Fprintf(w, "%s: %s\n", kind, msg)
}

// checkFail is one taxonomy failure carried as a value: the singleflight
// leader hands it to coalesced waiters through the store's Flight, and the
// write is deferred to whichever request ends up responding.
type checkFail struct {
	status      int
	kind        string
	msg         string
	retryAfter  time.Duration
	panicDigest string
}

// Error makes a checkFail transportable through store.Finish's error slot.
func (f *checkFail) Error() string { return f.kind + ": " + f.msg }

// writeFail emits one checkFail as its taxonomy response.
func (s *Server) writeFail(w http.ResponseWriter, f *checkFail) {
	if f.panicDigest != "" {
		w.Header().Set(PanicDigestHeader, f.panicDigest)
	}
	s.writeErr(w, f.status, f.kind, f.msg, f.retryAfter)
}

// writeReport emits one successful check report.
func (s *Server) writeReport(w http.ResponseWriter, report string) {
	s.reg.Counter(telemetry.ServerOK).Inc()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, report)
}

// writeEntry renders a trace check's verdict as the canonical replay
// report under the caller's own display name, which is never cached; the
// seed and source come from the upload's header. A cold run, a hit and a
// coalesced waiter all render here, so their bytes match by construction.
// With a store, cacheState tags the response with X-DC-Cache; a storeless
// server has no cache disposition to report.
func (s *Server) writeEntry(w http.ResponseWriter, name string, hdr *trace.Header, e *store.Entry, cacheState string) {
	if s.cache != nil {
		w.Header().Set(CacheHeader, cacheState)
	}
	s.writeReport(w, core.ReplayReportFrom(
		name, e.Program, hdr.Seed, e.Events, hdr.Source, e.Violations, e.Blamed))
}

// admitFail runs admission control, converting a rejection into its
// taxonomy failure. The release closure is non-nil exactly when admission
// succeeded. Draining rejections carry a Retry-After of the drain deadline
// — the longest this instance can linger before a replacement serves.
func (s *Server) admitFail(ctx context.Context) (func(), *checkFail) {
	qsp, _ := obs.StartSpan(ctx, telemetry.SpanQueueWait)
	t0 := time.Now()
	release, verdict := s.admit(ctx)
	scopeFrom(ctx).setQueueWait(time.Since(t0))
	qsp.SetStr("verdict", admitVerdictName(verdict))
	qsp.End()
	switch verdict {
	case admitOK:
		s.reg.Counter(telemetry.ServerAdmitted).Inc()
		return release, nil
	case admitShed:
		s.reg.Counter(telemetry.ServerShedQueueFull).Inc()
		return nil, &checkFail{status: http.StatusTooManyRequests, kind: "queue-full",
			msg: "admission queue full; retry later", retryAfter: time.Second}
	case admitDraining:
		s.reg.Counter(telemetry.ServerShedDraining).Inc()
		return nil, &checkFail{status: http.StatusServiceUnavailable, kind: "draining",
			msg: "server is draining", retryAfter: s.cfg.DrainTimeout}
	default: // admitCanceled
		return nil, &checkFail{status: StatusClientClosedRequest, kind: "canceled",
			msg: "client went away while queued"}
	}
}

// admitOrReject is admitFail with the rejection written directly — the
// path for requests with no waiters to share the verdict with.
func (s *Server) admitOrReject(w http.ResponseWriter, r *http.Request) func() {
	release, cf := s.admitFail(r.Context())
	if cf != nil {
		s.writeFail(w, cf)
		return nil
	}
	return release
}

// handleCheckTrace checks an uploaded .dct trace: POST /check with the raw
// trace as the body. Query parameters: analysis (default dc-single), name
// (the display name in the report; default "upload"). The 200 response body is
// byte-identical to `dcheck -replay` on the same file — whether computed
// cold, served from the result store, or coalesced onto another request's
// in-flight run.
func (s *Server) handleCheckTrace(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter(telemetry.ServerRequests).Inc()
	tr, r := s.beginTrace(w, r, "check.trace")
	defer tr.Finish()
	q := r.URL.Query()
	analysisName := q.Get("analysis")
	if analysisName == "" {
		analysisName = "dc-single"
	}
	analysis, err := core.ParseAnalysis(analysisName)
	if err != nil || analysis == core.Baseline {
		s.reg.Counter(telemetry.ServerBadRequests).Inc()
		s.writeErr(w, http.StatusBadRequest, "bad-request",
			fmt.Sprintf("analysis %q is not replayable", analysisName), 0)
		return
	}
	displayName := q.Get("name")
	if displayName == "" {
		displayName = "upload"
	}

	// Buffer the bounded body: the cache key hashes the raw bytes, and it
	// must exist before admission so hits can bypass the queue entirely. An
	// over-limit upload fails inside ReadFrom with MaxBytesError; a reset
	// upload surfaces the transport error directly. bytes.Buffer doubles as
	// the body arrives, where io.ReadAll grows by about a quarter a step;
	// Content-Length does not presize it, or a header alone could make the
	// server allocate MaxBodyBytes.
	var bodyBuf bytes.Buffer
	_, err = bodyBuf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	body := bodyBuf.Bytes()
	if err != nil {
		s.reg.Counter(telemetry.ServerBadRequests).Inc()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeErr(w, http.StatusRequestEntityTooLarge, "too-large",
				fmt.Sprintf("trace body exceeds %d bytes", s.cfg.MaxBodyBytes), 0)
		} else {
			s.writeErr(w, http.StatusBadRequest, "body-read", err.Error(), 0)
		}
		return
	}
	// The header alone prices the request: it carries the breaker key (the
	// trace's program+spec identity) and, with the raw-byte digest, the
	// cache key — full event decode waits until a check actually runs.
	hdr, err := trace.ReadHeader(bytes.NewReader(body))
	if err != nil {
		s.reg.Counter(telemetry.ServerBadRequests).Inc()
		s.writeErr(w, http.StatusBadRequest, "bad-trace", err.Error(), 0)
		return
	}
	bkey := fmt.Sprintf("trace:%016x.%016x", hdr.ProgramDigest, hdr.SpecDigest)

	// A storeless server's Lookup always leads, so every check runs
	// through leadCheck and nothing coalesces.
	ckey := s.cache.Key(hdr, body, analysisName)
	for {
		gsp, _ := obs.StartSpan(r.Context(), telemetry.SpanStoreGet)
		entry, flight, leader := s.cache.Lookup(ckey)
		switch {
		case entry != nil:
			gsp.SetStr("state", "hit")
			gsp.End()
			s.writeEntry(w, displayName, hdr, entry, "hit")
			return
		case leader:
			gsp.SetStr("state", "lead")
			gsp.End()
			s.leadCheck(w, r, ckey, flight, bkey, analysis, hdr, body, displayName)
			return
		}
		gsp.SetStr("state", "coalesce")
		gsp.End()
		// Coalesced waiter: block on the leader's flight, the drain signal,
		// or our own client going away — whichever fires first.
		csp, _ := obs.StartSpan(r.Context(), telemetry.SpanCoalesceWait)
		select {
		case <-flight.Done():
			csp.SetStr("outcome", "leader-done")
			csp.End()
			e, ferr := flight.Result()
			if e != nil {
				s.writeEntry(w, displayName, hdr, e, "coalesced")
				return
			}
			cf, ok := ferr.(*checkFail)
			if !ok {
				s.writeErr(w, http.StatusInternalServerError, "check-failed", ferr.Error(), 0)
				return
			}
			// A canceled leader says nothing about this request — its
			// *own* client went away. Unless we are draining or dead too,
			// loop: re-lookup and, if still missing, run the check
			// ourselves as the new leader.
			if cf.kind == "canceled" && r.Context().Err() == nil && !s.Draining() {
				continue
			}
			s.writeFail(w, cf)
			return
		case <-s.drainCh:
			csp.SetStr("outcome", "draining")
			csp.End()
			s.reg.Counter(telemetry.ServerShedDraining).Inc()
			s.writeErr(w, http.StatusServiceUnavailable, "draining",
				"server is draining", s.cfg.DrainTimeout)
			return
		case <-r.Context().Done():
			csp.SetStr("outcome", "canceled")
			csp.End()
			s.writeErr(w, StatusClientClosedRequest, "canceled",
				"client went away while coalesced", 0)
			return
		}
	}
}

// leadCheck is the server's one trace-check runner, the singleflight
// leader's path: admit, decode, run the check, publish the result to the
// store and the flight's waiters, then answer its own request as a miss.
// Every exit calls Finish exactly once — an abandoned flight would strand
// its waiters until drain. A storeless server's leader has no flight and
// its store keeps nothing.
func (s *Server) leadCheck(w http.ResponseWriter, r *http.Request, ckey store.Key, flight *store.Flight,
	bkey string, analysis core.Analysis, hdr *trace.Header, body []byte, displayName string) {

	lsp, lctx := obs.StartSpan(r.Context(), telemetry.SpanLeadCheck)
	defer lsp.End()
	r = r.WithContext(lctx)

	fail := func(cf *checkFail) {
		s.cache.Finish(ckey, flight, nil, cf)
		s.writeFail(w, cf)
	}

	release, cf := s.admitFail(r.Context())
	if cf != nil {
		fail(cf)
		return
	}
	defer release()

	d, err := trace.Read(bytes.NewReader(body))
	if err != nil {
		s.reg.Counter(telemetry.ServerBadRequests).Inc()
		fail(&checkFail{status: http.StatusBadRequest, kind: "bad-trace", msg: err.Error()})
		return
	}

	res, cf := runSupervised(s, r, bkey, analysis.String(), hdr.Seed,
		func(ctx context.Context, seed int64) (*core.Result, error) {
			return core.RunTrace(ctx, d, core.Config{Analysis: analysis, Telemetry: s.reg})
		})
	if cf != nil {
		fail(cf)
		return
	}

	entry := &store.Entry{
		Program:    hdr.Program.Name,
		Events:     d.Counts.Total(),
		Violations: len(res.Violations),
		Blamed:     res.BlamedMethodNames(hdr.Program),
	}
	psp, _ := obs.StartSpan(r.Context(), telemetry.SpanStorePut)
	s.cache.Put(ckey, entry)
	psp.End()
	s.cache.Finish(ckey, flight, entry, nil)
	s.writeEntry(w, displayName, hdr, entry, "miss")
}

// handleCheckWorkload checks a named built-in workload: POST
// /check/workload?name=...&seed=...&analysis=... . With Config.AllowFaults,
// the deterministic fault-injection parameters panic-at-access,
// panic-at-txend, stall-at-access and stall-ms inject faults into the
// checker mid-run — the chaos-testing seam.
func (s *Server) handleCheckWorkload(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter(telemetry.ServerRequests).Inc()
	tr, r := s.beginTrace(w, r, "check.workload")
	defer tr.Finish()
	q := r.URL.Query()
	name := q.Get("name")
	if name == "" {
		s.reg.Counter(telemetry.ServerBadRequests).Inc()
		s.writeErr(w, http.StatusBadRequest, "bad-request", "missing workload name", 0)
		return
	}
	analysisName := q.Get("analysis")
	if analysisName == "" {
		analysisName = "dc-single"
	}
	analysis, err := core.ParseAnalysis(analysisName)
	if err != nil {
		s.reg.Counter(telemetry.ServerBadRequests).Inc()
		s.writeErr(w, http.StatusBadRequest, "bad-request", err.Error(), 0)
		return
	}
	seed, serr := int64Param(q.Get("seed"), 1)
	if serr != nil {
		s.reg.Counter(telemetry.ServerBadRequests).Inc()
		s.writeErr(w, http.StatusBadRequest, "bad-request", serr.Error(), 0)
		return
	}
	plan, ferr := faultPlan(q)
	if ferr != nil {
		s.reg.Counter(telemetry.ServerBadRequests).Inc()
		s.writeErr(w, http.StatusBadRequest, "bad-request", ferr.Error(), 0)
		return
	}
	if plan != nil && !s.cfg.AllowFaults {
		s.reg.Counter(telemetry.ServerBadRequests).Inc()
		s.writeErr(w, http.StatusForbidden, "faults-disabled",
			"fault-injection parameters require AllowFaults", 0)
		return
	}
	built, err := workloads.Build(name, s.cfg.WorkloadScale)
	if err != nil {
		s.reg.Counter(telemetry.ServerBadRequests).Inc()
		s.writeErr(w, http.StatusNotFound, "unknown-workload", err.Error(), 0)
		return
	}
	sp := spec.Initial(built.Prog)
	if err := sp.ExcludeByName(built.InitialExclusions...); err != nil {
		s.writeErr(w, http.StatusInternalServerError, "check-failed", err.Error(), 0)
		return
	}

	release := s.admitOrReject(w, r)
	if release == nil {
		return
	}
	defer release()

	report, cf := runSupervised(s, r, "workload:"+name, analysisName, seed,
		func(ctx context.Context, trialSeed int64) (string, error) {
			cfg := core.Config{
				Analysis:  analysis,
				Seed:      trialSeed,
				Sched:     vm.NewSticky(trialSeed, built.Stickiness),
				Atomic:    sp.Atomic,
				Telemetry: s.reg,
			}
			if plan != nil {
				cfg.WrapInst = func(inner vm.Instrumentation) vm.Instrumentation {
					return faultinject.Inst(inner, plan)
				}
			}
			res, err := core.RunContext(ctx, built.Prog, cfg)
			if err != nil {
				return "", err
			}
			return workloadReport(name, built, trialSeed, res), nil
		})
	if cf != nil {
		s.writeFail(w, cf)
		return
	}
	s.writeReport(w, report)
}

// workloadReport renders a live workload check in the same shape as the
// canonical replay report: an identity line, then core.ViolationSummary.
func workloadReport(name string, b *workloads.Built, seed int64, res *core.Result) string {
	return fmt.Sprintf("workload %s: program %s, seed %d, %d methods, %d threads\n%s",
		name, b.Prog.Name, seed, len(b.Prog.Methods), len(b.Prog.Threads),
		core.ViolationSummary(b.Prog, res))
}

// runSupervised runs one admitted check under breaker + supervision and
// returns either its value or the taxonomy failure — the write is the
// caller's, so the singleflight leader can publish the outcome to its
// waiters before (or instead of) responding itself. The attempt closure
// does the actual work: a trace replay, a live workload run.
func runSupervised[T any](s *Server, r *http.Request, key, analysisName string, seed int64,
	attempt func(ctx context.Context, seed int64) (T, error)) (T, *checkFail) {

	var zero T
	if ok, retryAfter := s.breaker.Allow(key); !ok {
		s.reg.Counter(telemetry.ServerBreakerRejected).Inc()
		return zero, &checkFail{status: http.StatusServiceUnavailable, kind: "breaker-open",
			msg: fmt.Sprintf("circuit open for %s", key), retryAfter: retryAfter}
	}

	// The check's context merges the client's (disconnects abort the work)
	// with the server's in-flight context (drain's last-resort cancel).
	ctx, cancel := mergeCancel(r.Context(), s.inflightCtx)
	defer cancel()

	out, err := supervise.Trial(ctx, supervise.Budget{
		TrialTimeout: s.cfg.RequestTimeout,
		Retries:      s.cfg.Retries,
		RetryBackoff: s.cfg.RetryBackoff,
		Telemetry:    s.reg,
		Recorder:     s.rec,
	}, analysisName, seed, attempt)
	if err != nil {
		// Whole-check abort: the merged context fired. Attribute it.
		if s.inflightCtx.Err() != nil || s.Draining() {
			s.reg.Counter(telemetry.ServerShedDraining).Inc()
			return zero, &checkFail{status: http.StatusServiceUnavailable, kind: "draining",
				msg: "check canceled by server drain", retryAfter: s.cfg.DrainTimeout}
		}
		return zero, &checkFail{status: StatusClientClosedRequest, kind: "canceled",
			msg: "client went away mid-check"}
	}
	if out.OK {
		s.breaker.Success(key)
		return out.Value, nil
	}

	f := out.LastFailure()
	switch f.Kind {
	case supervise.KindPanic:
		s.reg.Counter(telemetry.ServerPanics).Inc()
		if s.breaker.Failure(key, f.StackDigest) {
			s.reg.Counter(telemetry.ServerBreakerTrips).Inc()
		}
		return zero, &checkFail{status: http.StatusInternalServerError, kind: "panic",
			msg:         fmt.Sprintf("checker panic quarantined (stack %s): %v", f.StackDigest, f.Err),
			panicDigest: f.StackDigest}
	case supervise.KindTimeout:
		s.reg.Counter(telemetry.ServerTimeouts).Inc()
		if s.breaker.Failure(key, "timeout") {
			s.reg.Counter(telemetry.ServerBreakerTrips).Inc()
		}
		return zero, &checkFail{status: http.StatusGatewayTimeout, kind: "timeout",
			msg: fmt.Sprintf("check exceeded %v", s.cfg.RequestTimeout)}
	default:
		return zero, &checkFail{status: http.StatusInternalServerError, kind: "check-failed", msg: f.String()}
	}
}

// mergeCancel returns a context canceled when either parent is done.
func mergeCancel(a, b context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(a)
	stop := context.AfterFunc(b, cancel)
	return ctx, func() { stop(); cancel() }
}

// handleWorkloads lists the built-in workloads, one "name\tdescription"
// line each.
func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, name := range workloads.All() {
		wl, err := workloads.Get(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "%s\t%s\n", wl.Name, wl.Desc)
	}
}

// handleHealthz reports liveness: 200 as long as the process serves, with
// any open circuits listed for operators.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
	open := s.breaker.OpenKeys()
	sort.Strings(open)
	for _, k := range open {
		fmt.Fprintf(w, "breaker open: %s\n", k)
	}
}

// handleReadyz reports readiness: 503 once drain starts, so load balancers
// stop routing before in-flight work finishes.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// int64Param parses an optional int64 query parameter.
func int64Param(s string, def int64) (int64, error) {
	if s == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad integer parameter %q", s)
	}
	return n, nil
}

// uintParam parses an optional uint64 query parameter.
func uintParam(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad count parameter %q", s)
	}
	return n, nil
}

// faultPlan assembles a deterministic fault-injection plan from query
// parameters; nil when none are present.
func faultPlan(q interface{ Get(string) string }) (*faultinject.Plan, error) {
	pa, e1 := uintParam(q.Get("panic-at-access"))
	pt, e2 := uintParam(q.Get("panic-at-txend"))
	sa, e3 := uintParam(q.Get("stall-at-access"))
	ms, e4 := uintParam(q.Get("stall-ms"))
	if err := errors.Join(e1, e2, e3, e4); err != nil {
		return nil, err
	}
	if pa == 0 && pt == 0 && sa == 0 {
		return nil, nil
	}
	p := &faultinject.Plan{PanicAtAccess: pa, PanicAtTxEnd: pt, StallAtAccess: sa}
	if sa > 0 {
		if ms == 0 {
			ms = 1000
		}
		p.StallFor = time.Duration(ms) * time.Millisecond
	}
	return p, nil
}
