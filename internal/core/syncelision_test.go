package core

import (
	"fmt"
	"testing"

	"doublechecker/internal/vm"
)

// monitorFieldZeroProgram returns a program whose transaction writes field 0
// of an object and then acquires and releases that object, whose monitor
// accesses the VM emits on field 0 as well. Thread 0 runs m1 twenty times,
// thread 1 runs m2 twenty times:
//
//	atomic method m1 { write o.0  acquire o  release o  compute 3  read p.0 }
//	atomic method m2 { acquire o  release o  write p.0 }
//
// m2 can release o between m1's release and m1's read of p.0 and then write
// p.0 before that read, which makes m1 and m2 non-serializable through o's
// lock.
func monitorFieldZeroProgram() (*vm.Program, func(vm.MethodID) bool) {
	b := vm.NewBuilder("monitor-field-zero")
	o, p := b.Object(), b.Object()
	m1 := b.Method("m1")
	m1.Write(o, 0).Acquire(o).Release(o).Compute(3).Read(p, 0)
	m2 := b.Method("m2")
	m2.Acquire(o).Release(o).Write(p, 0)
	main0 := b.Method("main0")
	main0.CallN(m1, 20)
	main1 := b.Method("main1")
	main1.CallN(m2, 20)
	b.Thread(main0)
	b.Thread(main1)
	prog := b.MustBuild()
	id1, id2 := m1.ID(), m2.ID()
	return prog, func(m vm.MethodID) bool { return m == id1 || m == id2 }
}

// TestSyncElisionKeepsMonitorApartFromFieldZero: a write of (o, 0) must not
// elide the transaction's later acquire and release of o. PCD keys sync
// accesses apart from data accesses, so a log that drops them hides the lock
// dependence, and dc-single blamed less than Velodrome on most seeds.
func TestSyncElisionKeepsMonitorApartFromFieldZero(t *testing.T) {
	prog, atomic := monitorFieldZeroProgram()
	both := 0
	for seed := int64(0); seed < 200; seed++ {
		blamed := func(a Analysis) string {
			r, err := Run(prog, Config{Analysis: a, Sched: vm.NewSticky(seed, 0.3), Atomic: atomic})
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, a, err)
			}
			return fmt.Sprint(r.BlamedMethodNames(prog))
		}
		dc, velo := blamed(DCSingle), blamed(Velodrome)
		if dc != velo {
			t.Fatalf("seed %d: dc-single blames %s, velodrome %s", seed, dc, velo)
		}
		if velo == "[m1 m2]" {
			both++
		}
	}
	if both == 0 {
		t.Fatal("velodrome never blamed both methods; the check is vacuous")
	}
}
