package pcd

import (
	"context"
	"runtime"
	"testing"

	"doublechecker/internal/telemetry"
	"doublechecker/internal/txn"
)

// TestPoolCanceledDrainDropsQueuedJobs drives the fault-only
// pcd.pool.dropped counter: a drain under a canceled context aborts the
// pool, and the jobs queued behind the in-flight replay are dropped rather
// than replayed.
func TestPoolCanceledDrainDropsQueuedJobs(t *testing.T) {
	reg := telemetry.NewRegistry()
	started := make(chan struct{})
	var p *Pool
	p = NewPool(PoolConfig{
		Workers:   1,
		Telemetry: reg,
		Hook: func(index uint64, _ []*txn.Txn) {
			if index != 0 {
				return
			}
			// Hold the only worker on the first job until the drain has
			// aborted the pool.
			close(started)
			for !p.aborted.Load() {
				runtime.Gosched()
			}
		},
	})
	e := newEnv()
	tx := e.begin(0, 1)
	e.access(0, 1, 0, true)
	e.end(0)
	for i := 0; i < 3; i++ {
		p.Submit([]*txn.Txn{tx})
	}
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := p.Drain(ctx)
	if m.Dropped != 2 {
		t.Errorf("dropped %d jobs, want the 2 queued behind the first", m.Dropped)
	}
	if got := reg.Snapshot().Counter(telemetry.PCDPoolDropped); got != 2 {
		t.Errorf("%s = %d, want 2", telemetry.PCDPoolDropped, got)
	}
}
