// Concurrent PCD executor (paper §5.3): the insight that "PCD could be
// performed concurrently with the program: each SCC replays independently"
// realized as a bounded worker pool. The VM thread hands each SCC off at
// discovery; workers replay it on their own Checker shard; Drain merges the
// shards' raw finds back into the exact serial result.
//
// Determinism contract. The merged Violations, Stats, and every metric
// outside the telemetry.LiveOnlyPrefix namespace are byte-identical to the
// serial checker's, for any worker count and any interleaving:
//
//   - Submit deep-clones the SCC (plus its transitive mark-peer closure)
//     on the VM thread, so workers see an immutable snapshot — finished
//     transactions still receive marks from later barriers, and the ICD GC
//     nils logs, so sharing live manager state would race.
//   - Shards run in deferred mode (NewShard): they record raw cycle Finds
//     without cross-SCC dedup or blame. Dedup order and the "first" find
//     would otherwise depend on worker scheduling.
//   - Drain sorts job results by hand-off index — the order the serial
//     checker would have processed them — dedups cycles globally in that
//     order, and only then assigns blame, once per distinct cycle.
//   - Distinct-transaction accounting happens at Submit (single-threaded,
//     hand-off order), not on shards.
//   - When metered, each job replays under a fresh off-critical-path meter;
//     per-job reports merge in hand-off index order, so cost accounting is
//     independent of worker assignment.
package pcd

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"doublechecker/internal/cost"
	"doublechecker/internal/obs"
	"doublechecker/internal/supervise"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/txn"
)

// PoolConfig configures a concurrent PCD pool.
type PoolConfig struct {
	// Workers is the number of replay goroutines; NewPool requires ≥ 1.
	Workers int
	// Order selects the shards' replay strategy.
	Order ReplayOrder
	// MainMeter, when non-nil, is the critical-path meter: Submit charges
	// the hand-off snapshot to it, and each job replays under a fresh
	// off-path meter built from the same model.
	MainMeter *cost.Meter
	// Budget, when positive, applies the memory budget to each job's
	// off-path meter (mirrors core.Config.MemoryBudget).
	Budget int64
	// Telemetry, when non-nil, receives the PCD counters (identical names
	// and values as the serial checker) plus live pool metrics under
	// telemetry.LiveOnlyPrefix.
	Telemetry *telemetry.Registry
	// QueueCap bounds the job channel (default 4×Workers); a full queue
	// blocks Submit, back-pressuring the VM thread.
	QueueCap int
	// Hook, when set, runs on the worker just before each SCC replay; a
	// panic in it is quarantined exactly like a checker panic. It is the
	// pool's deterministic fault-injection seam (compare core.Config.WrapInst).
	Hook func(index uint64, scc []*txn.Txn)
	// TraceSpan is the request-scoped parent under which the pool's phase
	// spans also appear in the trace tree: the VM-thread hand-off, the
	// per-worker jobs with their nested pcd.replay, and merge-time
	// pcd.blame. The zero Span — the default — keeps them out; the
	// resulting timeline is what makes the off-critical-path claim visible
	// per request.
	TraceSpan obs.Span
}

// poolJob is one handed-off SCC: an immutable snapshot plus its hand-off
// index, which defines the canonical merge order.
type poolJob struct {
	index uint64
	scc   []*txn.Txn
}

// jobResult is what a worker hands back for one job.
type jobResult struct {
	index  uint64
	finds  []Find
	stats  Stats
	report cost.Report
	quar   *Quarantine
}

// Quarantine records a worker panic contained to its SCC: the run goes on
// and every other SCC is still checked; only this SCC's findings are lost.
type Quarantine struct {
	// Index is the SCC's hand-off index.
	Index uint64
	// Txns is the SCC's member count.
	Txns int
	// Err is the panic value, stringified.
	Err string
	// Digest is the stable stack fingerprint (supervise.PanicDigest).
	Digest string
}

// Merged is Drain's result: the pool's findings in canonical serial order.
type Merged struct {
	// Violations are the distinct precise violations, deduped and blamed in
	// hand-off order — element-for-element what the serial checker returns.
	Violations []txn.Violation
	// Stats is the summed shard accounting plus the pool's distinct-txn
	// count; equal to the serial checker's Stats.
	Stats Stats
	// OffCritical is the modelled off-critical-path cost: per-job reports
	// summed in hand-off order (PeakBytes is the per-job maximum — jobs
	// release their temporaries, so concurrent peaks don't stack
	// adversarially in the model).
	OffCritical cost.Report
	// Quarantined lists per-SCC worker panics the pool absorbed.
	Quarantined []Quarantine
	// Dropped counts jobs discarded by cancellation before replay.
	Dropped uint64
}

// Pool is a bounded concurrent PCD executor. Submit, Drain, and Abort must
// be called from a single goroutine (the VM thread); workers run internally.
type Pool struct {
	cfg  PoolConfig
	jobs chan poolJob
	wg   sync.WaitGroup

	aborted atomic.Bool
	closed  bool

	// Submit-side state (single-threaded).
	submitted uint64
	distinct  map[uint64]struct{}
	queueMax  int64

	mu      sync.Mutex
	results []jobResult
	dropped uint64

	queued atomic.Int64

	// Telemetry handles (nil without a registry).
	reg         *telemetry.Registry
	ptel        *tel
	jobsCtr     *telemetry.Counter
	droppedCtr  *telemetry.Counter
	quarCtr     *telemetry.Counter
	queueMaxGau *telemetry.Gauge
}

// NewPool starts a pool with cfg.Workers replay goroutines.
func NewPool(cfg PoolConfig) *Pool {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4 * cfg.Workers
	}
	p := &Pool{
		cfg:      cfg,
		jobs:     make(chan poolJob, cfg.QueueCap),
		distinct: make(map[uint64]struct{}),
		reg:      cfg.Telemetry,
	}
	if p.reg != nil {
		// Register the serial checker's full handle set up front so a
		// zero-SCC run snapshots the same metric names either way.
		p.ptel = newTel(p.reg)
		p.jobsCtr = p.reg.Counter(telemetry.PCDPoolJobs)
		p.droppedCtr = p.reg.Counter(telemetry.PCDPoolDropped)
		p.quarCtr = p.reg.Counter(telemetry.PCDPoolQuarantined)
		p.queueMaxGau = p.reg.Gauge(telemetry.PCDPoolQueueMax)
		p.reg.Gauge(telemetry.PCDPoolWorkers).Set(float64(cfg.Workers))
	}
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker(i)
	}
	return p
}

// Submit hands one SCC to the pool; it is the icd.Options.OnSCC hand-off
// point. It runs on the VM thread, snapshots the SCC before publishing, and
// blocks when the queue is full.
func (p *Pool) Submit(scc []*txn.Txn) {
	span := p.reg.StartSpan(p.cfg.TraceSpan, telemetry.SpanPCDHandoff, p.cfg.MainMeter)
	clone, entries := snapshotSCC(scc)
	span.SetInt("entries", int64(entries))
	span.SetInt("scc_txns", int64(len(scc)))
	if p.cfg.MainMeter != nil {
		p.cfg.MainMeter.ChargeN(p.cfg.MainMeter.Model().PCDHandoffPerEntry, int64(entries))
	}
	for _, tx := range scc {
		if _, ok := p.distinct[tx.ID]; !ok {
			p.distinct[tx.ID] = struct{}{}
			if p.ptel != nil {
				p.ptel.txnsSent.Inc()
			}
		}
	}
	job := poolJob{index: p.submitted, scc: clone}
	p.submitted++
	if p.jobsCtr != nil {
		p.jobsCtr.Inc()
	}
	if depth := p.queued.Add(1); depth > p.queueMax {
		p.queueMax = depth
		if p.queueMaxGau != nil {
			p.queueMaxGau.Set(float64(depth))
		}
	}
	span.End()
	p.jobs <- job
}

// worker consumes jobs until the channel closes. After an abort it keeps
// draining, discarding jobs without replaying them, so a blocked Submit and
// queued snapshots are always released.
func (p *Pool) worker(id int) {
	defer p.wg.Done()
	for job := range p.jobs {
		p.queued.Add(-1)
		if p.aborted.Load() {
			p.mu.Lock()
			p.dropped++
			p.mu.Unlock()
			if p.droppedCtr != nil {
				p.droppedCtr.Inc()
			}
			continue
		}
		res := p.runJob(id, job)
		p.mu.Lock()
		p.results = append(p.results, res)
		p.mu.Unlock()
	}
}

// runJob replays one SCC on a fresh shard, quarantining panics to the job.
func (p *Pool) runJob(worker int, job poolJob) (res jobResult) {
	res.index = job.index
	// The worker span carries no meter: the job's meter is cut below, and
	// its units are the nested pcd.replay span's.
	span := p.reg.StartSpan(p.cfg.TraceSpan, telemetry.SpanPCDPoolWorker+strconv.Itoa(worker), nil)
	span.SetInt("index", int64(job.index))
	span.SetInt("scc_txns", int64(len(job.scc)))
	// Registered before the recover below (LIFO), so the span closes even
	// when the replay panics into quarantine.
	defer span.End()
	defer func() {
		if r := recover(); r != nil {
			res.quar = &Quarantine{
				Index:  job.index,
				Txns:   len(job.scc),
				Err:    fmt.Sprint(r),
				Digest: supervise.PanicDigest(debug.Stack()),
			}
			span.SetStr("quarantined", res.quar.Digest)
			if p.quarCtr != nil {
				p.quarCtr.Inc()
			}
		}
	}()
	if p.cfg.Hook != nil {
		p.cfg.Hook(job.index, job.scc)
	}
	var meter *cost.Meter
	if p.cfg.MainMeter != nil {
		meter = cost.NewMeter(p.cfg.MainMeter.Model())
		if p.cfg.Budget > 0 {
			meter.SetBudget(p.cfg.Budget)
		}
	}
	sh := NewShard(meter, p.cfg.Order)
	sh.SetTelemetry(p.reg)
	sh.SetTraceSpan(span.Trace())
	sh.Process(job.scc)
	res.finds = sh.TakeFinds()
	res.stats = sh.Stats()
	if meter != nil {
		res.report = meter.Report()
	}
	return res
}

// Drain closes the pool, waits for in-flight jobs, and merges. A canceled
// ctx flips the pool to abort mode — queued jobs are discarded, in-flight
// replays finish — so cancellation cannot hang behind a deep queue; the
// partial merge is still returned.
func (p *Pool) Drain(ctx context.Context) *Merged {
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		p.aborted.Store(true)
		<-done
	}
	return p.merge()
}

// Abort discards queued jobs and stops the workers without merging; the
// run's error path uses it so cancellation never leaks pool goroutines.
func (p *Pool) Abort() {
	p.aborted.Store(true)
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.wg.Wait()
}

// merge folds job results into the canonical serial order: sort by hand-off
// index, sum shard stats and per-job cost reports, dedup cycle finds
// globally, and assign blame once per distinct cycle.
func (p *Pool) merge() *Merged {
	p.mu.Lock()
	results := p.results
	dropped := p.dropped
	p.mu.Unlock()
	sort.Slice(results, func(i, j int) bool { return results[i].index < results[j].index })

	m := &Merged{Dropped: dropped}
	m.Stats.DistinctTxns = uint64(len(p.distinct))
	seen := make(map[string]bool)
	for _, r := range results {
		if r.quar != nil {
			m.Quarantined = append(m.Quarantined, *r.quar)
			continue
		}
		m.Stats.SCCsProcessed += r.stats.SCCsProcessed
		m.Stats.TxnsProcessed += r.stats.TxnsProcessed
		m.Stats.EntriesReplayed += r.stats.EntriesReplayed
		m.Stats.PDGEdges += r.stats.PDGEdges
		m.Stats.CycleChecks += r.stats.CycleChecks
		m.Stats.PreciseCycles += r.stats.PreciseCycles
		m.OffCritical.Total += r.report.Total
		m.OffCritical.GC += r.report.GC
		m.OffCritical.AllocBytes += r.report.AllocBytes
		m.OffCritical.GCCount += r.report.GCCount
		if r.report.PeakBytes > m.OffCritical.PeakBytes {
			m.OffCritical.PeakBytes = r.report.PeakBytes
		}
		m.OffCritical.OOM = m.OffCritical.OOM || r.report.OOM
		for _, f := range r.finds {
			key := cycleKey(f.Cycle)
			if seen[key] {
				continue
			}
			seen[key] = true
			blame := p.reg.StartSpan(p.cfg.TraceSpan, telemetry.SpanPCDBlame, nil)
			v := f.Violation()
			blame.End()
			m.Violations = append(m.Violations, v)
		}
	}
	return m
}

// snapshotSCC deep-clones an SCC for hand-off: member transactions with
// their logs, plus the transitive mark-peer closure — the same anchor set
// the ByEdges replay walks — remapped onto the clones. Only the fields
// Process reads are copied; manager-internal state (edge maps, GC flags)
// stays behind. Returns the clones and the number of log entries copied,
// the hand-off cost driver.
func snapshotSCC(scc []*txn.Txn) ([]*txn.Txn, int) {
	// Bound the closure like orderByEdges bounds its anchors; past the cap,
	// peers become bare ID/Thread stubs (stamps still usable, no more pull).
	const maxClones = 1 << 16
	clones := make(map[*txn.Txn]*txn.Txn, len(scc))
	order := make([]*txn.Txn, 0, len(scc))
	for _, tx := range scc {
		if _, ok := clones[tx]; !ok {
			clones[tx] = &txn.Txn{}
			order = append(order, tx)
		}
	}
	for i := 0; i < len(order) && len(order) < maxClones; i++ {
		for _, mk := range order[i].Marks {
			if mk.Other == nil {
				continue
			}
			if _, ok := clones[mk.Other]; !ok {
				clones[mk.Other] = &txn.Txn{}
				order = append(order, mk.Other)
				if len(order) >= maxClones {
					break
				}
			}
		}
	}
	entries := 0
	for _, tx := range order {
		c := clones[tx]
		c.ID, c.Thread, c.Method, c.Unary = tx.ID, tx.Thread, tx.Method, tx.Unary
		c.StartSeq, c.EndSeq, c.Finished = tx.StartSeq, tx.EndSeq, tx.Finished
		if len(tx.Log) > 0 {
			c.Log = append([]txn.LogEntry(nil), tx.Log...)
			entries += len(tx.Log)
		}
		if len(tx.Marks) > 0 {
			marks := make([]txn.Mark, len(tx.Marks))
			for i, mk := range tx.Marks {
				o := clones[mk.Other]
				if o == nil && mk.Other != nil {
					o = &txn.Txn{ID: mk.Other.ID, Thread: mk.Other.Thread, Finished: true}
				}
				marks[i] = txn.Mark{In: mk.In, Other: o, Seq: mk.Seq}
			}
			c.Marks = marks
		}
	}
	out := make([]*txn.Txn, len(scc))
	for i, tx := range scc {
		out[i] = clones[tx]
	}
	return out, entries
}
