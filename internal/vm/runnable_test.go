package vm

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// transition is one thread state change seen between two scheduling steps.
type transition struct{ from, to tstate }

// rescanSched wraps a scheduler and, at every Next, compares the executor's
// runnable list with a rescan of the threads in ID order. It also records
// every state change between steps, so the test can show it exercised each
// transition the list must follow.
type rescanSched struct {
	t     *testing.T
	name  string
	inner Scheduler
	e     *Exec
	prev  []tstate
	seen  map[transition]int
}

func (s *rescanSched) rescan() []ThreadID {
	var want []ThreadID
	for _, th := range s.e.threads {
		if th.state == tsRunnable {
			want = append(want, th.id)
		}
	}
	return want
}

// observe records the state changes since the previous call.
func (s *rescanSched) observe() {
	for i, th := range s.e.threads {
		if i < len(s.prev) && s.prev[i] != th.state {
			s.seen[transition{s.prev[i], th.state}]++
		}
	}
	s.prev = s.prev[:0]
	for _, th := range s.e.threads {
		s.prev = append(s.prev, th.state)
	}
}

func (s *rescanSched) Next(runnable []ThreadID, step uint64) ThreadID {
	s.observe()
	if want := s.rescan(); !slices.Equal(runnable, want) {
		s.t.Fatalf("%s: step %d: runnable %v, rescan %v", s.name, step, runnable, want)
	}
	return s.inner.Next(runnable, step)
}

// contentionProg has three threads contend for one lock, with a reentrant
// acquire inside, so acquires block and releases wake the blocked.
func contentionProg(n int) *Program {
	b := NewBuilder("contention")
	lock, x := b.Object(), b.Object()
	inc := b.Method("inc")
	inc.Acquire(lock).Read(x, 0).Acquire(lock).Write(x, 0).Release(lock).Compute(1).Release(lock)
	for i := 0; i < 3; i++ {
		b.Thread(b.Method(fmt.Sprintf("worker%d", i)).CallN(inc, 2+(n+i)%4))
	}
	return b.MustBuild()
}

// waitNotifyProg covers wait and notify in every outcome: a consumer waits
// for a producer's notifies, which either wake it or are banked; two waiters
// on another monitor are woken by one notifyAll. Each waiter signals the
// notifier while still holding the monitor it then waits on, so the
// notifyAll always finds both in the wait set and every schedule terminates.
func waitNotifyProg(n int) *Program {
	b := NewBuilder("waitnotify")
	p, m, s := b.Object(), b.Object(), b.Object()
	k := 2 + n%4
	prod := b.Method("produce")
	for i := 0; i < k; i++ {
		prod.Acquire(p).Notify(p).Release(p).Compute(1)
	}
	cons := b.Method("consume")
	for i := 0; i < k; i++ {
		cons.Acquire(p).Wait(p).Release(p)
	}
	waiter := b.Method("waiter")
	waiter.Acquire(m).Acquire(s).Notify(s).Release(s).Wait(m).Release(m)
	notifier := b.Method("notifier")
	notifier.Acquire(s).Wait(s).Wait(s).Release(s).Acquire(m).NotifyAll(m).Release(m)
	b.Thread(prod)
	b.Thread(cons)
	b.Thread(b.Method("waiter0").Call(waiter))
	b.Thread(b.Method("waiter1").Call(waiter))
	b.Thread(notifier)
	return b.MustBuild()
}

// forkJoinProg forks two threads and joins the first twice: the first join
// may find it live (it waits for the second thread's notify), the second
// always finds it finished. Exiting threads wake their joiners.
func forkJoinProg(n int) *Program {
	b := NewBuilder("forkjoin")
	s, x := b.Object(), b.Object()
	first := b.Method("first")
	first.Acquire(s).Wait(s).Release(s).Write(x, 0)
	second := b.Method("second")
	second.Compute(1+n%3).Acquire(s).Notify(s).Release(s).Read(x, 0)
	t1 := b.ForkedThread(first)
	t2 := b.ForkedThread(second)
	main := b.Method("main")
	main.Fork(t1).Fork(t2).Join(t1).Join(t1).Join(t2)
	b.Thread(main)
	// A second forking thread joins both as well, so one exit can wake two
	// joiners.
	other := b.Method("other")
	other.Compute(n % 2).Join(t1).Join(t2)
	b.Thread(other)
	return b.MustBuild()
}

// TestRunnableListMatchesRescan holds the executor's incrementally kept
// runnable list to a rescan of the threads at every step, over programs that
// take every thread state transition, under every seeded scheduler.
func TestRunnableListMatchesRescan(t *testing.T) {
	const seeds = 50
	progs := []struct {
		name  string
		build func(int) *Program
	}{
		{"contention", contentionProg},
		{"waitnotify", waitNotifyProg},
		{"forkjoin", forkJoinProg},
	}
	scheds := []struct {
		name string
		make func(seed int64) Scheduler
	}{
		{"random", func(seed int64) Scheduler { return NewRandom(seed) }},
		{"sticky", func(seed int64) Scheduler { return NewSticky(seed, 0.3) }},
		{"pct", func(seed int64) Scheduler { return NewPCT(seed, 3, 64) }},
		// Round-robin takes no seed; the program's shape varies with it.
		{"roundrobin", func(int64) Scheduler { return NewRoundRobin() }},
	}
	seen := make(map[transition]int)
	for _, p := range progs {
		for _, sc := range scheds {
			for seed := int64(1); seed <= seeds; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", p.name, sc.name, seed)
				s := &rescanSched{t: t, name: name, inner: sc.make(seed), seen: seen}
				e := NewExec(p.build(int(seed)), Config{Sched: s})
				s.e = e
				if _, err := e.Run(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, th := range e.threads {
					if th.state != tsDone {
						t.Fatalf("%s: t%d ends in state %d", name, th.id, th.state)
					}
				}
				if len(e.runnable) != 0 {
					t.Fatalf("%s: runnable %v after every thread exited", name, e.runnable)
				}
			}
		}
	}
	for _, tr := range []transition{
		{tsNotStarted, tsRunnable}, // auto-start and fork
		{tsRunnable, tsBlockedLock},
		{tsBlockedLock, tsRunnable},
		{tsRunnable, tsWaiting},
		{tsWaiting, tsRunnable},
		{tsRunnable, tsBlockedJoin},
		{tsBlockedJoin, tsRunnable},
		{tsRunnable, tsDone},
	} {
		if seen[tr] == 0 {
			t.Errorf("no run took transition %d -> %d", tr.from, tr.to)
		}
	}
}

// TestDeadlockLeavesNoRunnable checks the list at a deadlock: two threads
// that take two locks in opposite orders must deadlock with no thread left
// runnable, under some seed.
func TestDeadlockLeavesNoRunnable(t *testing.T) {
	b := NewBuilder("abba")
	l1, l2 := b.Object(), b.Object()
	b.Thread(b.Method("ab").Acquire(l1).Compute(1).Acquire(l2).Release(l2).Release(l1))
	b.Thread(b.Method("ba").Acquire(l2).Compute(1).Acquire(l1).Release(l1).Release(l2))
	prog := b.MustBuild()
	deadlocks := 0
	for seed := int64(1); seed <= 50; seed++ {
		s := &rescanSched{t: t, name: fmt.Sprintf("seed%d", seed), inner: NewRandom(seed), seen: map[transition]int{}}
		e := NewExec(prog, Config{Sched: s})
		s.e = e
		_, err := e.Run()
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("seed %d: %v", seed, err)
		}
		deadlocks++
		if want := s.rescan(); len(want) != 0 {
			t.Fatalf("seed %d: deadlock reported with t%v runnable", seed, want)
		}
	}
	if deadlocks == 0 {
		t.Fatal("no seed deadlocked")
	}
}
