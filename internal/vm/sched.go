package vm

import (
	"fmt"
	"math/rand"
)

// Scheduler picks which runnable thread executes the next operation. The
// runnable slice is always sorted by thread ID and non-empty; schedulers
// must return one of its elements. Next must not modify or retain runnable:
// it is the executor's own list, kept across steps and updated in place when
// a thread changes state. Determinism contract: given the same program and
// the same scheduler state, the executor produces the same interleaving —
// checkers are passive, so the same seed exposes every checker to the
// identical execution.
type Scheduler interface {
	Next(runnable []ThreadID, step uint64) ThreadID
}

// RandomScheduler picks uniformly at random from the runnable set using a
// seeded source. This models the paper's run-to-run nondeterminism: distinct
// trials use distinct seeds.
type RandomScheduler struct {
	rng *rand.Rand
}

// NewRandom returns a RandomScheduler with the given seed.
func NewRandom(seed int64) *RandomScheduler {
	return &RandomScheduler{rng: rand.New(rand.NewSource(seed))}
}

// Next implements Scheduler.
func (s *RandomScheduler) Next(runnable []ThreadID, _ uint64) ThreadID {
	return runnable[s.rng.Intn(len(runnable))]
}

// StickyRandomScheduler is like RandomScheduler but keeps running the same
// thread for a geometric number of steps (expected run length 1/switchProb)
// before re-picking. Longer runs between preemptions make interleavings more
// realistic (real schedulers preempt at quantum boundaries, not per
// instruction) and make atomicity violations rarer but still possible —
// useful for workloads that should have few cycles.
type StickyRandomScheduler struct {
	rng        *rand.Rand
	switchProb float64
	current    ThreadID
	hasCurrent bool
}

// NewSticky returns a StickyRandomScheduler. switchProb in (0,1] is the
// per-step probability of re-picking the running thread.
func NewSticky(seed int64, switchProb float64) *StickyRandomScheduler {
	if switchProb <= 0 || switchProb > 1 {
		panic(fmt.Sprintf("vm: switchProb %v out of (0,1]", switchProb))
	}
	return &StickyRandomScheduler{rng: rand.New(rand.NewSource(seed)), switchProb: switchProb}
}

// Next implements Scheduler.
func (s *StickyRandomScheduler) Next(runnable []ThreadID, _ uint64) ThreadID {
	if s.hasCurrent && s.rng.Float64() >= s.switchProb {
		for _, t := range runnable {
			if t == s.current {
				return t
			}
		}
	}
	s.current = runnable[s.rng.Intn(len(runnable))]
	s.hasCurrent = true
	return s.current
}

// RoundRobinScheduler rotates through runnable threads.
type RoundRobinScheduler struct {
	last ThreadID
}

// NewRoundRobin returns a RoundRobinScheduler.
func NewRoundRobin() *RoundRobinScheduler { return &RoundRobinScheduler{last: -1} }

// Next implements Scheduler: the smallest runnable ID strictly greater than
// the previously scheduled ID, wrapping around.
func (s *RoundRobinScheduler) Next(runnable []ThreadID, _ uint64) ThreadID {
	for _, t := range runnable {
		if t > s.last {
			s.last = t
			return t
		}
	}
	s.last = runnable[0]
	return runnable[0]
}

// PCTScheduler implements probabilistic concurrency testing (Burckhardt et
// al., ASPLOS 2010): every thread gets a distinct random priority on first
// sight, the highest-priority runnable thread always runs, and depth-1
// priority-change points are placed at uniformly random steps — at such a
// step the thread about to run is demoted below every other thread, forcing
// a preemption exactly there. For a bug needing d ordering constraints, a
// PCT run finds it with probability >= 1/(n*k^(d-1)) (n threads, k steps),
// which makes a modest seed sweep far more adversarial than uniform random
// scheduling. Fully deterministic given the seed.
type PCTScheduler struct {
	rng    *rand.Rand
	change map[uint64]bool // steps at which a priority-change point fires
	prio   map[ThreadID]int64
	low    int64 // next demotion priority; strictly decreasing, always < 0
}

// NewPCT returns a PCTScheduler with depth-1 priority-change points placed
// uniformly in [0, horizon). depth < 1 or horizon 0 panic: a PCT schedule is
// parameterized by both.
func NewPCT(seed int64, depth int, horizon uint64) *PCTScheduler {
	if depth < 1 {
		panic(fmt.Sprintf("vm: PCT depth %d < 1", depth))
	}
	if horizon == 0 {
		panic("vm: PCT horizon 0")
	}
	rng := rand.New(rand.NewSource(seed))
	s := &PCTScheduler{
		rng:    rng,
		change: make(map[uint64]bool, depth-1),
		prio:   make(map[ThreadID]int64),
		low:    0,
	}
	for i := 1; i < depth; i++ {
		s.change[uint64(rng.Int63n(int64(horizon)))] = true
	}
	return s
}

// Next implements Scheduler: the highest-priority runnable thread, demoted
// first when this step is a change point. Unseen threads draw a positive
// random priority in runnable order (deterministic: runnable is sorted);
// demotions use a decreasing negative counter so each demoted thread sinks
// below everything demoted before it. Priority ties (vanishingly rare) break
// toward the lower thread ID.
func (s *PCTScheduler) Next(runnable []ThreadID, step uint64) ThreadID {
	for _, t := range runnable {
		if _, ok := s.prio[t]; !ok {
			s.prio[t] = 1 + s.rng.Int63n(1<<31)
		}
	}
	best := func() ThreadID {
		b := runnable[0]
		for _, t := range runnable[1:] {
			if s.prio[t] > s.prio[b] {
				b = t
			}
		}
		return b
	}
	t := best()
	if s.change[step] && len(runnable) > 1 {
		s.low--
		s.prio[t] = s.low
		t = best()
	}
	return t
}

// enumFrame records one scheduling decision of the current enumeration run:
// which index into the (sorted, deterministic) runnable set was chosen, out
// of how many options.
type enumFrame struct {
	choice  int
	options int
}

// Enumerator walks the schedule tree of a deterministic program
// exhaustively: it is a Scheduler for one execution at a time, recording
// (choice, option-count) at every step, and Advance moves depth-first to the
// lexicographically next unexplored branch. Because the executor is
// deterministic given the scheduling choices, the runnable set at any
// choice-prefix is a pure function of the prefix, so distinct choice
// sequences are distinct interleavings and the walk covers all of them.
//
//	en := vm.NewEnumerator(64)
//	for {
//		run one execution with Config{Sched: en}
//		if !en.Advance() { break }
//	}
//
// Runs deeper than the step limit follow the first runnable thread beyond it
// without recording; Overflowed reports whether any run was truncated that
// way (the walk is then exhaustive only up to the limit).
type Enumerator struct {
	limit      int
	prefix     []int
	frames     []enumFrame
	runs       uint64
	overflowed bool
}

// NewEnumerator returns an Enumerator that explores every scheduling choice
// in the first limit steps of each run.
func NewEnumerator(limit int) *Enumerator {
	if limit < 1 {
		panic(fmt.Sprintf("vm: enumerator limit %d < 1", limit))
	}
	return &Enumerator{limit: limit}
}

// Next implements Scheduler: replay the prefix, then always take the first
// (lowest-ID) runnable thread, recording every decision point.
func (en *Enumerator) Next(runnable []ThreadID, _ uint64) ThreadID {
	depth := len(en.frames)
	if depth >= en.limit {
		en.overflowed = true
		return runnable[0]
	}
	choice := 0
	if depth < len(en.prefix) {
		choice = en.prefix[depth]
	}
	if choice >= len(runnable) {
		// The runnable set at a prefix is deterministic, so a recorded choice
		// is always in range on replay; out of range means the program or
		// executor is not deterministic — unusable for enumeration.
		panic(fmt.Sprintf("vm: enumerator: choice %d of %d at depth %d — nondeterministic execution",
			choice, len(runnable), depth))
	}
	en.frames = append(en.frames, enumFrame{choice: choice, options: len(runnable)})
	return runnable[choice]
}

// Advance finishes the current run and steps to the next unexplored branch,
// returning false when the schedule tree is exhausted. Call it after every
// execution, including the first.
func (en *Enumerator) Advance() bool {
	en.runs++
	for i := len(en.frames) - 1; i >= 0; i-- {
		if en.frames[i].choice+1 < en.frames[i].options {
			next := make([]int, i+1)
			for j := 0; j < i; j++ {
				next[j] = en.frames[j].choice
			}
			next[i] = en.frames[i].choice + 1
			en.prefix = next
			en.frames = en.frames[:0]
			return true
		}
	}
	en.frames = en.frames[:0]
	return false
}

// Runs returns how many complete executions Advance has accounted for.
func (en *Enumerator) Runs() uint64 { return en.runs }

// Overflowed reports whether any run needed more scheduling decisions than
// the step limit; if true the enumeration covered only the tree up to the
// limit.
func (en *Enumerator) Overflowed() bool { return en.overflowed }

// ScriptedScheduler replays an explicit thread sequence; unit tests use it
// to pin exact interleavings (e.g. the paper's Figure 3). If the scripted
// thread is not runnable at its step, Next panics in strict mode (test bug)
// or skips forward otherwise. When the script is exhausted it falls back to
// round-robin.
type ScriptedScheduler struct {
	script []ThreadID
	pos    int
	strict bool
	rr     *RoundRobinScheduler
}

// NewScripted returns a ScriptedScheduler replaying script.
func NewScripted(script []ThreadID, strict bool) *ScriptedScheduler {
	return &ScriptedScheduler{script: script, strict: strict, rr: NewRoundRobin()}
}

// Next implements Scheduler.
func (s *ScriptedScheduler) Next(runnable []ThreadID, step uint64) ThreadID {
	for s.pos < len(s.script) {
		want := s.script[s.pos]
		s.pos++
		for _, t := range runnable {
			if t == want {
				return t
			}
		}
		if s.strict {
			panic(fmt.Sprintf("vm: scripted thread t%d not runnable at step %d (runnable %v)",
				want, step, runnable))
		}
	}
	return s.rr.Next(runnable, step)
}
