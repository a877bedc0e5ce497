package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
)

// promName sanitizes a metric name into the Prometheus exposition charset:
// dots and dashes become underscores.
func promName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			return r
		default:
			return '_'
		}
	}, name)
}

// WriteProm writes the registry's current state in the Prometheus text
// exposition format (version 0.0.4): counters, gauges, histograms with
// cumulative le buckets, and spans as count, cost (metered phases only) and
// wall metrics.
func (r *Registry) WriteProm(w io.Writer) {
	if r == nil {
		return
	}
	s := r.Snapshot()
	for _, n := range sortedNames(s.Counters) {
		pn := "dc_" + promName(n)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[n])
	}
	for _, n := range sortedNames(s.Gauges) {
		pn := "dc_" + promName(n)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", pn, pn, s.Gauges[n])
	}
	for _, n := range sortedNames(s.Histograms) {
		h := s.Histograms[n]
		pn := "dc_" + promName(n)
		fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
		cum := uint64(0)
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, b, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count)
		fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", pn, h.Sum, pn, h.Count)
	}
	for _, n := range sortedNames(s.Spans) {
		sp := s.Spans[n]
		pn := "dc_span_" + promName(n)
		fmt.Fprintf(w, "# TYPE %s_count counter\n%s_count %d\n", pn, pn, sp.Count)
		if sp.CostUnits != nil {
			fmt.Fprintf(w, "# TYPE %s_cost_units counter\n%s_cost_units %d\n", pn, pn, *sp.CostUnits)
		}
		fmt.Fprintf(w, "# TYPE %s_wall_seconds counter\n%s_wall_seconds %g\n", pn, pn, float64(sp.WallNanos)/1e9)
	}
}

// Handler serves the registry in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteProm(w)
	})
}

// NewMux returns an http.ServeMux exposing the registry at /metrics
// (Prometheus text), the process expvars at /debug/vars, and the standard
// pprof profiles under /debug/pprof/ — the one mux `dcheck -metrics-addr`
// serves, so metrics and profiling share a port.
func (r *Registry) NewMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
