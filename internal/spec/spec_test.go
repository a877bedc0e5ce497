package spec

import (
	"errors"
	"fmt"
	"testing"

	"doublechecker/internal/core"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

func buildProg() *vm.Program {
	b := vm.NewBuilder("p")
	o := b.Object()
	mon := b.Object()
	inc := b.Method("inc")
	inc.Read(o, 0).Write(o, 0)
	waiter := b.Method("waiter")
	waiter.Acquire(mon).Notify(mon).Release(mon)
	m0 := b.Method("main0")
	m0.Call(inc).Call(waiter)
	m1 := b.Method("main1")
	m1.Call(inc)
	b.Thread(m0)
	b.Thread(m1)
	return b.MustBuild()
}

func TestInitialExcludesEntriesAndInterrupters(t *testing.T) {
	prog := buildProg()
	s := Initial(prog)
	if s.Atomic(prog.MethodByName("main0").ID) || s.Atomic(prog.MethodByName("main1").ID) {
		t.Error("thread entry methods must be excluded")
	}
	if s.Atomic(prog.MethodByName("waiter").ID) {
		t.Error("notify-containing methods must be excluded")
	}
	if !s.Atomic(prog.MethodByName("inc").ID) {
		t.Error("ordinary methods start atomic")
	}
	if s.Size() != 1 {
		t.Errorf("size = %d, want 1", s.Size())
	}
}

func TestAtomicOnly(t *testing.T) {
	prog := buildProg()
	s := AtomicOnly(prog, []string{"inc", "waiter", "no-such-method"})
	for _, m := range prog.Methods {
		want := m.Name == "inc" || m.Name == "waiter"
		if s.Atomic(m.ID) != want {
			t.Errorf("%s atomic = %v, want %v", m.Name, s.Atomic(m.ID), want)
		}
	}
	if s.Size() != 2 {
		t.Errorf("size = %d, want 2", s.Size())
	}
	if AtomicOnly(prog, nil).Size() != 0 {
		t.Error("no names must leave no method atomic")
	}
}

func TestExcludeAndClone(t *testing.T) {
	prog := buildProg()
	s := Initial(prog)
	incID := prog.MethodByName("inc").ID
	c := s.Clone()
	if n := s.Exclude(incID); n != 1 {
		t.Errorf("exclude count = %d", n)
	}
	if s.Exclude(incID) != 0 {
		t.Error("double exclude should be 0")
	}
	if !c.Atomic(incID) {
		t.Error("clone must be independent")
	}
}

func TestIntersect(t *testing.T) {
	prog := buildProg()
	a := Initial(prog)
	b := Initial(prog)
	incID := prog.MethodByName("inc").ID
	b.Exclude(incID)
	x := a.Intersect(b)
	if x.Atomic(incID) {
		t.Error("intersection must exclude what either excludes")
	}
	if a.Atomic(incID) == false {
		t.Error("intersect must not mutate receiver")
	}
}

func TestExcludeByName(t *testing.T) {
	prog := buildProg()
	s := Initial(prog)
	if err := s.ExcludeByName("inc"); err != nil {
		t.Fatal(err)
	}
	if s.Atomic(prog.MethodByName("inc").ID) {
		t.Error("inc should be excluded")
	}
	if err := s.ExcludeByName("nope"); err == nil {
		t.Error("unknown name should error")
	}
}

func TestAtomicMethodsAndString(t *testing.T) {
	prog := buildProg()
	s := Initial(prog)
	if len(s.AtomicMethods()) != 1 {
		t.Errorf("atomic methods: %v", s.AtomicMethods())
	}
	if len(s.Excluded()) != 3 {
		t.Errorf("excluded: %v", s.Excluded())
	}
	if s.String() == "" {
		t.Error("empty string")
	}
}

func TestRefineConverges(t *testing.T) {
	// A synthetic checker: blames method 0 whenever it is atomic, then
	// method 1; refinement must exclude both and stabilize.
	prog := buildProg()
	s := New(prog)
	check := func(sp *Spec, trial int) ([]vm.MethodID, error) {
		if sp.Atomic(0) {
			return []vm.MethodID{0}, nil
		}
		if sp.Atomic(1) {
			return []vm.MethodID{1}, nil
		}
		return nil, nil
	}
	res, err := Refine(s, check, Options{StableTrials: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Atomic(0) || res.Final.Atomic(1) {
		t.Error("blamed methods must end excluded")
	}
	if len(res.Blamed) != 2 || res.Steps != 2 {
		t.Errorf("blamed=%d steps=%d", len(res.Blamed), res.Steps)
	}
	if res.Trials != 2+3 {
		t.Errorf("trials = %d, want 5 (2 excluding + 3 stable)", res.Trials)
	}
}

func TestRefinePropagatesErrors(t *testing.T) {
	prog := buildProg()
	boom := errors.New("boom")
	_, err := Refine(New(prog), func(*Spec, int) ([]vm.MethodID, error) { return nil, boom }, Options{})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestRefineMaxTrials(t *testing.T) {
	prog := buildProg()
	i := vm.MethodID(0)
	check := func(sp *Spec, trial int) ([]vm.MethodID, error) {
		// Always blame something new (cycle through methods forever by
		// blaming an already-excluded one — never stabilizes because we
		// alternate). Actually blame an excluded method: no fresh -> would
		// stabilize. Blame a fresh one each time until exhausted:
		i = (i + 1) % vm.MethodID(len(prog.Methods))
		return []vm.MethodID{i}, nil
	}
	_, err := Refine(New(prog), check, Options{StableTrials: 1000, MaxTrials: 5})
	if err == nil {
		t.Error("expected max-trials error")
	}
}

func TestHalfwaySpec(t *testing.T) {
	prog := buildProg()
	res := &Result{ExclusionOrder: []vm.MethodID{0, 1, 2, 3}}
	initial := New(prog)
	half := res.HalfwaySpec(initial)
	if half.Atomic(0) || half.Atomic(1) {
		t.Error("first half must be excluded")
	}
	if !half.Atomic(2) || !half.Atomic(3) {
		t.Error("second half must remain atomic")
	}
}

// TestRefineEndToEnd drives refinement with the real DoubleChecker on a
// program with one racy atomic method: refinement must blame and exclude
// it, and the refined spec must produce no violations.
func TestRefineEndToEnd(t *testing.T) {
	b := vm.NewBuilder("e2e")
	o := b.Object()
	racy := b.Method("racy")
	racy.Read(o, 0).Compute(2).Write(o, 0)
	safeObj := b.Object()
	safe := b.Method("safe")
	safe.Read(safeObj, 0)
	for i := 0; i < 3; i++ {
		main := b.Method(fmt.Sprintf("main%d", i))
		main.CallN(racy, 8).CallN(safe, 8)
		b.Thread(main)
	}
	prog := b.MustBuild()

	check := func(sp *Spec, trial int) ([]vm.MethodID, error) {
		r, err := core.Run(prog, core.Config{
			Analysis: core.DCSingle,
			Seed:     int64(trial),
			Atomic:   sp.Atomic,
		})
		if err != nil {
			return nil, err
		}
		var blamed []vm.MethodID
		for m := range r.BlamedMethods {
			blamed = append(blamed, m)
		}
		return blamed, nil
	}
	res, err := Refine(Initial(prog), check, Options{StableTrials: 5})
	if err != nil {
		t.Fatal(err)
	}
	racyID := prog.MethodByName("racy").ID
	if !res.Blamed[racyID] {
		t.Error("racy must be blamed during refinement")
	}
	if res.Final.Atomic(racyID) {
		t.Error("racy must end excluded")
	}
	if !res.Final.Atomic(prog.MethodByName("safe").ID) {
		t.Error("safe must stay in the specification")
	}
}

// TestPropertyRefinementReachesFixpoint: on random programs, the refined
// specification must be quiet — re-checking it across fresh seeds blames
// nothing that refinement left in the spec.
func TestPropertyRefinementReachesFixpoint(t *testing.T) {
	freshTrials, freshEscapes := 0, 0
	for seed := int64(0); seed < 25; seed++ {
		prog, atomic := workloads.Random(seed)
		initial := New(prog)
		for _, m := range prog.Methods {
			if !atomic(m.ID) {
				initial.Exclude(m.ID)
			}
		}
		check := func(sp *Spec, trial int) ([]vm.MethodID, error) {
			res, err := core.Run(prog, core.Config{
				Analysis: core.DCSingle, Seed: int64(trial), Atomic: sp.Atomic,
			})
			if err != nil {
				return nil, err
			}
			var out []vm.MethodID
			for m := range res.BlamedMethods {
				out = append(out, m)
			}
			return out, nil
		}
		res, err := Refine(initial, check, Options{StableTrials: 6})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The deterministic fixpoint property: over the schedules refinement
		// itself observed quiet (its last StableTrials trials), the final
		// spec must blame nothing — those runs are reproducible bit for bit.
		for trial := res.Trials - 6; trial < res.Trials; trial++ {
			blamed, err := check(res.Final, trial)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range blamed {
				if res.Final.Atomic(m) {
					t.Errorf("seed %d: trial %d blamed %s, but refinement saw that schedule quiet",
						seed, trial, prog.MethodName(m))
				}
			}
		}
		// Fresh schedules may expose races refinement's window missed — the
		// paper's stable-trial count (10) is an explicitly probabilistic
		// cutoff. Track the rate and flag only systematic escapes.
		for extra := res.Trials; extra < res.Trials+6; extra++ {
			freshTrials++
			blamed, err := check(res.Final, extra)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range blamed {
				if res.Final.Atomic(m) {
					freshEscapes++
					break
				}
			}
		}
	}
	if freshEscapes*5 > freshTrials {
		t.Errorf("fixpoint escapes on %d/%d fresh schedules: refinement under-explores",
			freshEscapes, freshTrials)
	}
}
