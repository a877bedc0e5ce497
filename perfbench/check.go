package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	dc "doublechecker"
)

// outcome is one check as its caller saw it.
type outcome struct {
	slot    int // position in the workload's request sequence
	dur     time.Duration
	blamed  []string
	err     error // errored, refused, or wrong verdict
	refused bool  // the service answered 429 or 503
	cache   string
	retries int
}

// libraryCheck runs one input through doublechecker.CheckUnitContext in the
// workload's mode and checks the verdict against the reference.
func libraryCheck(ctx context.Context, mode string, in *input) outcome {
	opts := dc.Options{Mode: dc.ModeSingleRun, Seed: in.seed, Stickiness: in.prog.built.Stickiness}
	if mode == modeMulti {
		opts.Mode = dc.ModeMultiRun
		opts.FirstRuns = firstRuns
	}
	t0 := time.Now()
	rep, err := dc.CheckUnitContext(ctx, in.prog.unit, opts)
	o := outcome{dur: time.Since(t0)}
	if err != nil {
		o.err = fmt.Errorf("%s: %w", in.name, err)
		return o
	}
	o.blamed = rep.BlamedMethods
	o.retries = len(rep.Failures)
	o.err = verdictErr(mode, in, o.blamed)
	return o
}

// verdictErr compares a verdict with the input's Velodrome reference: a
// single-run or service verdict must equal it, a multi-run verdict (whose
// second run sees only the first runs' filter) must be a subset of it.
func verdictErr(mode string, in *input, blamed []string) error {
	ok := equalStrings(blamed, in.ref)
	if mode == modeMulti {
		ok = subset(blamed, in.ref)
	}
	if !ok {
		return fmt.Errorf("%s: %s verdict %v, Velodrome reference %v", in.name, mode, blamed, in.ref)
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func subset(a, b []string) bool {
	in := make(map[string]bool, len(b))
	for _, s := range b {
		in[s] = true
	}
	for _, s := range a {
		if !in[s] {
			return false
		}
	}
	return true
}

// phase drives a closed loop: clients take the next slot of the request
// sequence, check it, and take another, until the deadline has passed and
// at least minChecks checks have completed. Before each pass over the
// sequence, beginPass (if set) runs with no check in flight.
type phase struct {
	requests  []request
	clients   int
	seconds   float64
	minChecks int
	beginPass func() error
	check     func(ctx context.Context, r request) outcome
}

func (p phase) run(ctx context.Context) ([]outcome, time.Duration, error) {
	start := time.Now()
	deadline := start.Add(time.Duration(p.seconds * float64(time.Second)))
	var (
		mu   sync.Mutex
		outs []outcome
		done atomic.Int64
	)
	for pass := 0; ; pass++ {
		if p.beginPass != nil {
			if err := p.beginPass(); err != nil {
				return nil, 0, err
			}
		}
		var next atomic.Int64
		var stopped atomic.Bool
		var wg sync.WaitGroup
		for c := 0; c < p.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if time.Now().After(deadline) && done.Load() >= int64(p.minChecks) {
						stopped.Store(true)
						return
					}
					j := int(next.Add(1) - 1)
					if j >= len(p.requests) {
						return
					}
					o := p.check(ctx, p.requests[j])
					o.slot = j
					done.Add(1)
					mu.Lock()
					outs = append(outs, o)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if stopped.Load() {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
	}
	return outs, time.Since(start), nil
}
