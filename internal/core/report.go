// Canonical human-readable check reports. dcheck, dctrace and the dcserve
// service all render results through these helpers, which is what makes the
// service's correctness contract checkable: a report served over HTTP for a
// trace is byte-identical to `dcheck -replay` on the same file, because both
// are this code.

package core

import (
	"fmt"
	"strings"

	"doublechecker/internal/trace"
	"doublechecker/internal/vm"
)

// ViolationSummary renders a result's violation count and blamed methods in
// the canonical two-line form every tool uses.
func ViolationSummary(prog *vm.Program, res *Result) string {
	return ViolationSummaryFrom(len(res.Violations), res.BlamedMethodNames(prog))
}

// ViolationSummaryFrom is ViolationSummary over pre-extracted fields: the
// violation count and the sorted blamed-method names. The result store
// caches exactly these fields and re-renders through here, so a cache hit
// is byte-identical to a cold run by construction — both paths are this
// code.
func ViolationSummaryFrom(violations int, blamed []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d dynamic violations\n", violations)
	if len(blamed) > 0 {
		fmt.Fprintf(&b, "blamed methods: %v\n", blamed)
	} else {
		b.WriteString("no atomicity violations detected\n")
	}
	return b.String()
}

// ReplayReport renders the canonical replay report for trace d checked as
// res: the trace identity line (name is the caller's display name for the
// trace — a path for dcheck, an upload name for dcserve) followed by the
// violation summary. Deterministic for a given (d, res): dcheck, dctrace
// and dcserve render identical bytes for the same trace.
func ReplayReport(name string, d *trace.Data, res *Result) string {
	h := &d.Header
	return ReplayReportFrom(name, h.Program.Name, h.Seed, d.Counts.Total(),
		h.Source, len(res.Violations), res.BlamedMethodNames(h.Program))
}

// ReplayReportFrom is ReplayReport over pre-extracted fields, for callers
// that hold a cached result rather than a decoded trace. The display name
// is per-request and never cached; everything else comes from the cache
// entry.
func ReplayReportFrom(name, program string, seed int64, events uint64, source string, violations int, blamed []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s: program %s, seed %d, %d events, source %q\n",
		name, program, seed, events, source)
	b.WriteString(ViolationSummaryFrom(violations, blamed))
	return b.String()
}
