// Package spec implements atomicity specifications and the iterative
// refinement methodology that derives them (paper §4 "Specifying atomic
// regions" and §5.1, Figure 6).
//
// A specification is expressed as the paper's implementation expresses it:
// a list of methods *excluded* from the specification; every other method
// is expected to execute atomically. The initial specification excludes
// top-level methods (thread entry points — main() and Thread.run()
// analogues) and methods containing interrupting calls (wait/notify),
// mirroring the paper. Iterative refinement then repeatedly runs a checker
// and removes blamed methods until no new violations are reported for a
// configured number of trials.
package spec

import (
	"fmt"
	"sort"

	"doublechecker/internal/vm"
)

// Spec is an atomicity specification for one program.
type Spec struct {
	prog     *vm.Program
	excluded map[vm.MethodID]bool
}

// New returns a specification for prog with the given excluded methods.
func New(prog *vm.Program, excluded ...vm.MethodID) *Spec {
	s := &Spec{prog: prog, excluded: make(map[vm.MethodID]bool)}
	for _, m := range excluded {
		s.excluded[m] = true
	}
	return s
}

// AtomicOnly returns the specification in which exactly the named methods
// are atomic: the one a .dcp program's atomic declarations state. Names
// that match no method of prog are ignored.
func AtomicOnly(prog *vm.Program, names []string) *Spec {
	atomic := make(map[string]bool, len(names))
	for _, n := range names {
		atomic[n] = true
	}
	s := New(prog)
	for _, m := range prog.Methods {
		if !atomic[m.Name] {
			s.excluded[m.ID] = true
		}
	}
	return s
}

// Initial returns the paper's starting specification: all methods atomic
// except thread entry points and methods that contain interrupting
// operations (wait, notify) or thread management (fork, join) — the
// analogues of main(), Thread.run(), and wait()/notify() callers.
func Initial(prog *vm.Program) *Spec {
	s := New(prog)
	for _, td := range prog.Threads {
		s.excluded[td.Entry] = true
	}
	for _, m := range prog.Methods {
		for _, op := range m.Body {
			switch op.Kind {
			case vm.OpWait, vm.OpNotify, vm.OpNotifyAll, vm.OpFork, vm.OpJoin:
				s.excluded[m.ID] = true
			}
		}
	}
	return s
}

// Clone returns an independent copy.
func (s *Spec) Clone() *Spec {
	c := New(s.prog)
	for m := range s.excluded {
		c.excluded[m] = true
	}
	return c
}

// Atomic reports whether method m is in the specification (expected to
// execute atomically). It is the predicate the executor consumes.
func (s *Spec) Atomic(m vm.MethodID) bool { return !s.excluded[m] }

// Exclude removes methods from the specification. It reports how many were
// newly excluded.
func (s *Spec) Exclude(methods ...vm.MethodID) int {
	n := 0
	for _, m := range methods {
		if !s.excluded[m] {
			s.excluded[m] = true
			n++
		}
	}
	return n
}

// Excluded returns the sorted excluded method IDs.
func (s *Spec) Excluded() []vm.MethodID {
	out := make([]vm.MethodID, 0, len(s.excluded))
	for m := range s.excluded {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AtomicMethods returns the sorted method IDs in the specification.
func (s *Spec) AtomicMethods() []vm.MethodID {
	var out []vm.MethodID
	for _, m := range s.prog.Methods {
		if !s.excluded[m.ID] {
			out = append(out, m.ID)
		}
	}
	return out
}

// Size returns how many methods are in the specification.
func (s *Spec) Size() int { return len(s.prog.Methods) - len(s.excluded) }

// Intersect returns a specification atomic only where both s and o are —
// the paper intersects the finalized Velodrome and DoubleChecker
// specifications "to avoid any bias toward one approach" (§5.1).
func (s *Spec) Intersect(o *Spec) *Spec {
	c := s.Clone()
	for m := range o.excluded {
		c.excluded[m] = true
	}
	return c
}

// ExcludeByName excludes methods by name, for hand-adjusted specifications
// (the paper excludes a few long-running methods that exhaust memory,
// §5.1). Unknown names are an error.
func (s *Spec) ExcludeByName(names ...string) error {
	for _, name := range names {
		m := s.prog.MethodByName(name)
		if m == nil {
			return fmt.Errorf("spec: no method %q", name)
		}
		s.excluded[m.ID] = true
	}
	return nil
}

func (s *Spec) String() string {
	var names []string
	for m := range s.excluded {
		names = append(names, s.prog.MethodName(m))
	}
	sort.Strings(names)
	return fmt.Sprintf("spec{%d atomic, excluded %v}", s.Size(), names)
}
