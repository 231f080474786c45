package mem

import (
	"fmt"

	"repro/internal/gsb"
	"repro/internal/runrand"
	"repro/internal/sched"
)

// TaskBox is an oracle object solving a GSB task T, used to realize the
// enriched model ASM_{n,t}[T] of Section 5. Its behavior is the most
// adversarial one allowed by the specification: before the run it draws a
// legal output multiset (uniformly over the task's counting vectors, with
// a seeded generator) and hands its elements out in invocation order.
// Because a GSB task maps every input vector to the same output-vector
// set, and any prefix of a legal assignment extends to a legal vector,
// this is a correct implementation of "any object solving T".
type TaskBox struct {
	lb         *labels
	spec       gsb.Spec
	assignment []int
	next       int
	invoked    []bool
}

// boxDraws memoizes drawn assignments. The draw is a pure function of
// (spec, seed), and the exploration engines construct the same box once
// per re-executed run, millions of times: without the memo the math/rand
// seeding alone dominated the whole exploration hot path. The cached
// slice is shared read-only between box instances (Invoke only reads
// it).
var boxDraws = cappedMap{max: 1 << 14}

// boxDrawKey identifies a draw without formatting the spec on every run:
// a symmetric spec is fully described by (n, m, l, u), and the rare
// asymmetric one by its rendering, which lists every bound.
type boxDrawKey struct {
	n, m, l, u int
	asym       string // Spec.String of an asymmetric spec, "" otherwise
	seed       int64
}

func drawKey(spec gsb.Spec, seed int64) boxDrawKey {
	if !spec.Symmetric() {
		return boxDrawKey{asym: spec.String(), seed: seed}
	}
	l, u := spec.SymBounds()
	return boxDrawKey{n: spec.N(), m: spec.M(), l: l, u: u, seed: seed}
}

// drawAssignment picks the box's legal output multiset and hand-out order:
// uniformly over the task's counting vectors, then a seeded shuffle.
func drawAssignment(spec gsb.Spec, seed int64) []int {
	key := drawKey(spec, seed)
	if v, ok := boxDraws.m.Load(key); ok {
		return v.([]int)
	}
	rng := runrand.New(seed)
	counting := spec.CountingVectors()
	cv := counting[rng.Intn(len(counting))]
	assignment := make([]int, 0, spec.N())
	for v, c := range cv {
		for k := 0; k < c; k++ {
			assignment = append(assignment, v+1)
		}
	}
	rng.Shuffle(len(assignment), func(i, j int) {
		assignment[i], assignment[j] = assignment[j], assignment[i]
	})
	return boxDraws.store(key, assignment).([]int)
}

// NewTaskBox allocates an oracle for spec. The seed selects the legal
// output multiset and its hand-out order.
func NewTaskBox(name string, spec gsb.Spec, seed int64) *TaskBox {
	if !spec.Feasible() {
		panic(fmt.Sprintf("mem: task box for infeasible spec %v", spec))
	}
	return &TaskBox{
		lb:         labelsFor(name),
		spec:       spec,
		assignment: drawAssignment(spec, seed),
		invoked:    make([]bool, spec.N()),
	}
}

// Spec returns the task specification the box solves.
func (b *TaskBox) Spec() gsb.Spec { return b.spec }

// Invoke returns the caller's output for the boxed task (one step). Each
// process may invoke at most once; a second invocation panics, as the
// boxed tasks are one-shot.
func (b *TaskBox) Invoke(p *sched.Proc) int {
	return p.Exec(b.lb.invoke, func() any {
		validateIndex(p.Index(), len(b.invoked), "task box")
		if b.invoked[p.Index()] {
			panic(fmt.Sprintf("mem: process %d invoked task box %q twice", p.Index(), b.lb.name))
		}
		b.invoked[p.Index()] = true
		v := b.assignment[b.next]
		b.next++
		return v
	}).(int)
}

// PerfectRenamingBox returns an oracle for the <n,n,1,1>-GSB task; the
// universality construction of Theorem 8 is built on top of it.
func PerfectRenamingBox(name string, n int, seed int64) *TaskBox {
	return NewTaskBox(name, gsb.PerfectRenaming(n), seed)
}

// SlotBox returns an oracle for the <n,k,1,n>-GSB k-slot task, the KS
// object of Section 6.
func SlotBox(name string, n, k int, seed int64) *TaskBox {
	return NewTaskBox(name, gsb.KSlot(n, k), seed)
}

// WSBBox returns an oracle for weak symmetry breaking, used by the
// WSB -> (2n-2)-renaming reduction.
func WSBBox(name string, n int, seed int64) *TaskBox {
	return NewTaskBox(name, gsb.WSB(n), seed)
}
