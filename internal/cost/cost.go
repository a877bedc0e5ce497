// Package cost implements the explicit cost model that stands in for
// wall-clock time in this reproduction.
//
// The paper (Figure 7) reports execution times of a real JVM on real
// hardware. Our substrate is a deterministic interpreter, so instead of
// timing it we charge every dynamic event — program operations, Octet barrier
// fast paths, coordination round trips, Velodrome metadata synchronization,
// log appends, garbage collection of analysis metadata, SCC computation, and
// PCD replay — a calibrated number of abstract cost units. The evaluation
// harness then reports "normalized execution time" exactly as the paper
// does: total cost with a checker attached divided by the total cost of the
// uninstrumented run.
//
// The default constants are calibrated (see EXPERIMENTS.md) so that the
// paper's qualitative structure holds: Velodrome's per-access atomic metadata
// updates dominate; Octet's fast path is nearly free; logging roughly
// doubles the first run's overhead; GC time is driven by the live bytes of
// retained logs.
package cost

import "fmt"

// Units is an abstract amount of execution cost. One unit is roughly "one
// cheap ALU op"; an uninstrumented memory access costs BaseOp units.
type Units int64

// Model holds the per-event charges. A Model is immutable once handed to a
// Meter; experiments that vary the model (e.g. §5.4) construct fresh copies.
type Model struct {
	// Program execution.
	BaseOp      Units // any interpreted operation (read, write, acquire, ...)
	ComputeUnit Units // one unit of pure local compute (OpCompute argument)

	// Octet barriers (ICD substrate).
	OctetFastPath         Units // state check that passes: no synchronization
	OctetUpgrade          Units // RdEx->RdSh or RdEx->WrEx atomic upgrade
	OctetFence            Units // RdSh fence transition (counter update + fence)
	OctetConflictExplicit Units // conflicting transition, responder running: round trip
	OctetConflictImplicit Units // conflicting transition, responder blocked: CAS on flag

	// ICD bookkeeping.
	IDGEdge    Units // append an edge to the imprecise dependence graph
	LogAppend  Units // one read/write log entry (single-run / second run)
	LogElide   Units // timestamp check that elides a duplicate entry
	SCCPerNode Units // Tarjan work per visited transaction
	SCCPerEdge Units // Tarjan work per visited edge

	// PCD replay.
	PCDPerEntry  Units // replay one log entry incl. last-access update
	PCDPerEdge   Units // add a PDG edge + incremental cycle check seed
	PCDCycleNode Units // per node visited during a PDG cycle check

	// Velodrome.
	VeloSync       Units // lock word CAS + fences for analysis-access atomicity
	VeloNoSyncPath Units // unsound variant: metadata unchanged, no sync
	VeloMetadata   Units // update last writer/reader maps
	VeloEdge       Units // dependence edge append
	VeloCycleNode  Units // per node visited during online cycle check

	// Memory system. Allocation volume triggers collections; each collection
	// charges work proportional to the live analysis footprint, which is how
	// single-run mode's long-lived read/write logs surface as GC time
	// (paper §5.3).
	GCTriggerBytes int64 // a collection runs every this-many allocated bytes
	GCPerLiveKB    Units // collection cost per live kilobyte
}

// Default returns the calibrated model used by the evaluation harness.
func Default() Model {
	return Model{
		BaseOp:      10,
		ComputeUnit: 1,

		OctetFastPath:         2,
		OctetUpgrade:          40,
		OctetFence:            30,
		OctetConflictExplicit: 400,
		OctetConflictImplicit: 150,

		IDGEdge:      20,
		LogAppend:    26,
		LogElide:     2,
		SCCPerNode:   12,
		SCCPerEdge:   6,
		PCDPerEntry:  18,
		PCDPerEdge:   25,
		PCDCycleNode: 8,

		VeloSync:       48,
		VeloNoSyncPath: 6,
		VeloMetadata:   9,
		VeloEdge:       20,
		VeloCycleNode:  8,

		GCTriggerBytes: 1 << 16, // 64 KiB
		GCPerLiveKB:    360,
	}
}

// Meter accumulates cost and models the analysis-metadata memory footprint.
// The zero Meter is not usable; construct with NewMeter.
type Meter struct {
	model Model

	total Units
	gc    Units

	liveBytes    int64
	peakBytes    int64
	allocedBytes int64
	sinceGC      int64
	gcCount      int64

	budget int64 // 0 means unlimited
	oom    bool
}

// NewMeter returns a Meter charging according to model.
func NewMeter(model Model) *Meter {
	return &Meter{model: model}
}

// SetBudget installs a memory budget in bytes; once live analysis bytes
// exceed it, the meter records an out-of-memory condition (it keeps running —
// the harness reports the condition, mirroring the paper's 32-bit OOMs
// without killing the experiment).
func (m *Meter) SetBudget(bytes int64) { m.budget = bytes }

// Model returns the meter's cost model; a nil meter has the zero model.
// Checkers read it once, when they are built, and charge from their copy.
func (m *Meter) Model() Model {
	if m == nil {
		return Model{}
	}
	return m.model
}

// Charge adds u units of analysis or program cost.
func (m *Meter) Charge(u Units) { m.total += u }

// ChargeN adds n times u units.
func (m *Meter) ChargeN(u Units, n int64) { m.total += u * Units(n) }

// Alloc records allocation of analysis metadata and triggers modelled
// collections as allocation volume accumulates.
func (m *Meter) Alloc(bytes int64) {
	m.liveBytes += bytes
	m.allocedBytes += bytes
	m.sinceGC += bytes
	if m.liveBytes > m.peakBytes {
		m.peakBytes = m.liveBytes
	}
	if m.budget > 0 && m.liveBytes > m.budget {
		m.oom = true
	}
	for m.model.GCTriggerBytes > 0 && m.sinceGC >= m.model.GCTriggerBytes {
		m.sinceGC -= m.model.GCTriggerBytes
		m.collect()
	}
}

// Free records that analysis metadata died (e.g. transactions swept by the
// reachability GC).
func (m *Meter) Free(bytes int64) {
	m.liveBytes -= bytes
	if m.liveBytes < 0 {
		m.liveBytes = 0
	}
}

// collect charges one modelled stop-the-world collection.
func (m *Meter) collect() {
	work := m.model.GCPerLiveKB * Units(m.liveBytes/1024+1)
	m.gc += work
	m.total += work
	m.gcCount++
}

// Total returns the cost accumulated so far, including GC cost.
func (m *Meter) Total() Units { return m.total }

// GC returns the portion of Total spent in modelled collections.
func (m *Meter) GC() Units { return m.gc }

// LiveBytes returns the current live analysis footprint.
func (m *Meter) LiveBytes() int64 { return m.liveBytes }

// Report summarizes a meter for the evaluation harness.
type Report struct {
	Total      Units
	GC         Units
	PeakBytes  int64
	AllocBytes int64
	GCCount    int64
	OOM        bool
}

// Report snapshots the meter.
func (m *Meter) Report() Report {
	return Report{
		Total:      m.total,
		GC:         m.gc,
		PeakBytes:  m.peakBytes,
		AllocBytes: m.allocedBytes,
		GCCount:    m.gcCount,
		OOM:        m.oom,
	}
}

// Normalized returns r.Total divided by base as a float, the "normalized
// execution time" of Figure 7. It panics on a zero base because that always
// indicates a harness bug (an empty baseline run).
func (r Report) Normalized(base Units) float64 {
	if base == 0 {
		panic("cost: zero baseline")
	}
	return float64(r.Total) / float64(base)
}

// GCFraction returns the fraction of total cost spent in modelled GC.
func (r Report) GCFraction() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.GC) / float64(r.Total)
}

func (r Report) String() string {
	return fmt.Sprintf("cost=%d gc=%d (%.1f%%) peak=%dB oom=%v",
		r.Total, r.GC, 100*r.GCFraction(), r.PeakBytes, r.OOM)
}
