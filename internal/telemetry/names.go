package telemetry

// Canonical metric names. Centralizing them keeps the checkers, the
// exporters, the tests, and DESIGN.md's metric → paper-quantity table in
// agreement. The name hierarchy is dotted: subsystem.object.detail.
const (
	// Octet barrier outcomes (paper Table 1 / Figure 4 transition kinds).
	OctetFastPath       = "octet.transitions.fast_path"
	OctetInitial        = "octet.transitions.initial"
	OctetUpgrading      = "octet.transitions.upgrading"
	OctetFence          = "octet.transitions.fence"
	OctetConflicting    = "octet.transitions.conflicting"
	OctetRespondersExpl = "octet.responders.explicit"
	OctetRespondersImpl = "octet.responders.implicit"

	// ICD: imprecise dependence graph and SCC statistics (paper §3.2, §5).
	IDGEdgesConflicting = "icd.idg.edges.conflicting"
	IDGEdgesUpgradeRdEx = "icd.idg.edges.upgrading_rdex"
	IDGEdgesUpgradeRdSh = "icd.idg.edges.upgrading_rdsh"
	IDGEdgesFence       = "icd.idg.edges.fence"
	IDGNodesRegular     = "icd.idg.nodes.regular"
	IDGNodesUnary       = "icd.idg.nodes.unary"
	ICDSCCs             = "icd.scc.count"
	ICDSCCSize          = "icd.scc.size"
	ICDSCCTxns          = "icd.scc.txns"

	// PCD: precise replay (paper §3.3).
	PCDSCCs       = "pcd.sccs_processed"
	PCDTxns       = "pcd.txns_processed"
	PCDTxnsSent   = "pcd.txns_sent_distinct"
	PCDEntries    = "pcd.entries_replayed"
	PCDEdges      = "pcd.pdg.edges"
	PCDCycles     = "pcd.cycles"
	PCDFieldMap   = "pcd.field_map.size"
	PCDTxFraction = "pcd.replayed_tx_fraction"

	// Velodrome baseline (paper §2, §4).
	VeloMetadataUpdates = "velo.metadata_updates"
	VeloEdges           = "velo.edges"
	VeloCycleChecks     = "velo.cycle_checks"
	VeloSyncFastSkips   = "velo.sync_fast_skips" // unsound variant only

	// Executor ground truth. Steps are executor-internal and a trace does
	// not record them, so only live runs publish VMSteps.
	VMSteps         = "vm.steps"
	VMFieldAccesses = "vm.accesses.field"
	VMArrayAccesses = "vm.accesses.array"
	VMSyncAccesses  = "vm.accesses.sync"
	VMRegularTx     = "vm.tx.regular"
	VMTxEnds        = "vm.tx.ends"
	VMAbortedTx     = "vm.aborted_tx"

	// Modelled cost (cost.Report mirror), published only by runs with a
	// meter attached.
	CostTotal = "cost.total_units"
	CostGC    = "cost.gc_units"
	CostPeak  = "cost.peak_bytes"
	CostOOM   = "cost.oom"

	// Checking service (internal/server): request lifecycle, admission
	// control, circuit breaking, and drain. Counters unless noted.
	ServerRequests        = "server.requests"           // every check request received
	ServerAdmitted        = "server.admitted"           // passed admission (queued or ran)
	ServerOK              = "server.ok"                 // served a report
	ServerShedQueueFull   = "server.shed.queue_full"    // 429: admission queue full
	ServerShedDraining    = "server.shed.draining"      // 503: received during drain
	ServerBadRequests     = "server.bad_requests"       // 4xx: corrupt trace, bad params
	ServerPanics          = "server.quarantined_panics" // 500: checker panic absorbed
	ServerTimeouts        = "server.timeouts"           // 504: request deadline exceeded
	ServerBreakerTrips    = "server.breaker.trips"      // circuits opened
	ServerBreakerRejected = "server.breaker.rejected"   // 503: key quarantined
	ServerInFlight        = "server.in_flight"          // gauge: checks running now
	ServerQueueDepth      = "server.queue_depth"        // gauge: requests waiting for a slot
	ServerDraining        = "server.draining"           // gauge: 1 while draining

	// Result store (internal/store): content-addressed check-result cache.
	// The whole namespace is live-only (see liveOnlyPrefix): cache
	// occupancy and hit rates describe process history, not the analyzed
	// execution, and a cached report is byte-identical to a cold run by
	// contract.
	StoreHits          = "store.hits"              // results served from cache
	StoreMisses        = "store.misses"            // checks actually run (leader misses)
	StoreCoalesced     = "store.coalesced_waiters" // requests that joined an in-flight run
	StoreMemEvictions  = "store.mem.evictions"     // LRU entries dropped past the byte budget
	StoreDiskEvictions = "store.disk.evictions"    // oldest files removed past the disk budget
	StoreQuarantined   = "store.quarantined"       // corrupt entries moved aside (fail-closed misses)
	StoreMemBytes      = "store.mem.bytes"         // gauge: memory tier occupancy
	StoreDiskBytes     = "store.disk.bytes"        // gauge: disk tier occupancy

	// Supervision outcomes (internal/supervise).
	SuperviseAttempts   = "supervise.attempts"
	SuperviseRetries    = "supervise.retries"
	SupervisePanics     = "supervise.quarantined_panics"
	SuperviseTimeouts   = "supervise.timeouts"
	SuperviseFailures   = "supervise.failures"
	SuperviseDowngrades = "supervise.downgrades"
	SuperviseRecovered  = "supervise.recovered"
)

// Span (pipeline phase) names, in pipeline order. Each is opened only
// through Registry.StartSpan, so one name means one pipeline stage in both
// the cumulative registry and a per-request trace.
const (
	SpanExecute   = "execute"    // whole instrumented execution or trace replay
	SpanICDSCC    = "icd.scc"    // deferred SCC detection at transaction end
	SpanICDGC     = "icd.gc"     // ICD transaction-graph collection
	SpanPCDReplay = "pcd.replay" // one PCD Process (SCC replay)
	SpanPCDBlame  = "pcd.blame"  // blame assignment for a found cycle
	SpanVeloGC    = "velo.gc"    // Velodrome transaction-graph collection
)

// Request-scoped trace span names (internal/obs). The phase spans above
// reach the trace through Registry.StartSpan; the names below exist only
// as obs spans, opened with obs.StartSpan — they mark request plumbing
// (queueing, coalescing, caching, supervision) that has no aggregate-phase
// counterpart. DESIGN.md §13 maps all of them to pipeline stages and paper
// quantities.
const (
	SpanCoreRun      = "core.run"             // one checked execution or replay, end to end
	SpanCoreCollect  = "core.collect"         // post-execution harvest of the findings
	SpanTrial        = "supervise.trial"      // one supervised trial incl. retries
	SpanTrialAttempt = "supervise.attempt"    // one attempt within a trial
	SpanQueueWait    = "server.queue_wait"    // admission queue wait for a slot
	SpanCoalesceWait = "server.coalesce_wait" // waiting on another request's in-flight check
	SpanLeadCheck    = "server.lead_check"    // leading a singleflight check
	SpanStoreGet     = "store.get"            // result-store lookup
	SpanStorePut     = "store.put"            // result-store insert
)

// liveOnlyPrefix marks the result-store namespace: hit rates and tier
// occupancy depend on process history (what was cached before this run),
// never on the analyzed execution, so Snapshot.Deterministic() removes
// them.
const liveOnlyPrefix = "store."

// Standard bucket bounds.
var (
	// SCCSizeBuckets covers the paper's SCC size distribution: most SCCs
	// are tiny (2–4 transactions), a few are huge.
	SCCSizeBuckets = []uint64{2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128, 256}
	// MapSizeBuckets covers PCD's per-Process last-access map sizes.
	MapSizeBuckets = []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}
)
