// Package mem provides the shared-memory objects of the paper's model:
// arrays of single-writer/multi-reader (1WnR) atomic registers, atomic
// snapshots (both as a native one-step object, justified by Afek et al.
// [1], and as a wait-free construction from 1WnR registers), multi-writer
// registers, and the oracle objects used by enriched models ASM_{n,t}[T]
// (test-and-set, fetch&increment, GSB task boxes).
//
// Every operation is linearized through sched.Proc.Exec, so an operation
// is exactly one "step" of the paper's runs. Values stored in registers
// must be treated as immutable by protocol code: registers copy the value
// header only (Go assignment), so mutating a stored slice after writing it
// would break atomicity.
//
// Register and snapshot semantics are model-mediated (sched.MemModel,
// docs/models.md): under the default atomic model every operation is the
// one step described above, bit-identical to the pre-registry behavior.
// The weak models add scheduler-visible decision points instead of hidden
// nondeterminism — a run stays a pure function of (model, schedule):
//
//   - TwoPhaseWrites (regular, safe): Write executes as a
//     "<name>.write-start" step opening a write window followed by a
//     "<name>.write-commit" step installing the value. A read scheduled
//     between the two sees the old committed value (regular semantics).
//     A writer crashed between start and commit leaves the window open
//     forever — a torn write.
//   - SafeReads (safe): a Read whose step lands inside an open write
//     window returns the arbitrary value of Lamport's safe registers,
//     represented deterministically as the unwritten zero value.
//   - StaleSnapshots: Array.Snapshot degrades to Collect — n individual
//     read steps instead of one atomic step — so two snapshots need not
//     be mutually comparable.
//
// Snapshots under the two-phase models read committed values only (the
// write weakening and the snapshot weakening are orthogonal axes).
package mem

import (
	"fmt"

	"repro/internal/sched"
)

// Array is an array of n single-writer/multi-reader atomic registers.
// Entry i may be written only by the process with index i.
type Array[T any] struct {
	lb      *labels
	vals    []T
	written []bool
	// open counts open write windows per register under the two-phase
	// models (see the package comment); nil until the first two-phase
	// write, so the atomic hot path allocates nothing extra.
	open []int
}

// NewArray allocates an array of n 1WnR registers holding zero values.
func NewArray[T any](name string, n int) *Array[T] {
	return &Array[T]{lb: labelsFor(name), vals: make([]T, n), written: make([]bool, n)}
}

// Len returns the number of registers.
func (a *Array[T]) Len() int { return len(a.vals) }

// Write stores v in the caller's register: one step under the atomic
// model, a write-start/write-commit step pair under the two-phase models.
func (a *Array[T]) Write(p *sched.Proc, v T) {
	if p.Model().TwoPhaseWrites() {
		i := p.Index()
		p.Exec(a.lb.writeStart, func() any {
			if a.open == nil {
				a.open = make([]int, len(a.vals))
			}
			a.open[i]++
			return nil
		})
		p.Exec(a.lb.writeCommit, func() any {
			a.vals[i] = v
			a.written[i] = true
			a.open[i]--
			return nil
		})
		return
	}
	p.Exec(a.lb.write, func() any {
		a.vals[p.Index()] = v
		a.written[p.Index()] = true
		return nil
	})
}

// Read returns the value of register j (one step) and whether it has ever
// been written. Under the safe model a read overlapping an open write
// window returns the unwritten zero value.
func (a *Array[T]) Read(p *sched.Proc, j int) (T, bool) {
	if p.Model().SafeReads() {
		res := p.Exec(a.lb.read, func() any {
			if a.open != nil && a.open[j] > 0 {
				return readResult[T]{}
			}
			return readResult[T]{val: a.vals[j], ok: a.written[j]}
		}).(readResult[T])
		return res.val, res.ok
	}
	res := p.Exec(a.lb.read, func() any {
		return readResult[T]{val: a.vals[j], ok: a.written[j]}
	}).(readResult[T])
	return res.val, res.ok
}

type readResult[T any] struct {
	val T
	ok  bool
}

// Collect reads all n registers one by one (n steps). Entry j of the
// returned slices is register j's value and written-flag. A collect is
// not atomic: values may come from different points in time.
func (a *Array[T]) Collect(p *sched.Proc) ([]T, []bool) {
	vals := make([]T, len(a.vals))
	oks := make([]bool, len(a.vals))
	for j := range a.vals {
		vals[j], oks[j] = a.Read(p, j)
	}
	return vals, oks
}

// Snapshot returns an atomic snapshot of the array in one step. The paper
// assumes snapshots are available without loss of generality because they
// are wait-free implementable from 1WnR registers (Afek et al.); package
// mem also provides that construction (SnapshotObject) and tests that the
// two agree observationally.
func (a *Array[T]) Snapshot(p *sched.Proc) ([]T, []bool) {
	if p.Model().StaleSnapshots() {
		// The stale-snapshot model degrades the one-step snapshot into a
		// per-register collect: n read steps, so the values need not be
		// mutually consistent.
		return a.Collect(p)
	}
	res := p.Exec(a.lb.snapshot, func() any {
		vals := make([]T, len(a.vals))
		oks := make([]bool, len(a.vals))
		copy(vals, a.vals)
		copy(oks, a.written)
		return snapResult[T]{vals: vals, oks: oks}
	}).(snapResult[T])
	return res.vals, res.oks
}

type snapResult[T any] struct {
	vals []T
	oks  []bool
}

// Reg is a multi-writer/multi-reader atomic register (one step per
// operation). The paper's base model uses only 1WnR registers; Reg models
// the standard hardware register used by auxiliary constructions such as
// splitters, and ConstructedMWMR shows how to build it from 1WnR.
type Reg[T any] struct {
	lb      *labels
	val     T
	written bool
	// open counts open write windows under the two-phase models.
	open int
}

// NewReg allocates a multi-writer register holding the zero value.
func NewReg[T any](name string) *Reg[T] { return &Reg[T]{lb: labelsFor(name)} }

// Write stores v: one step under the atomic model, a write-start/
// write-commit step pair under the two-phase models.
func (r *Reg[T]) Write(p *sched.Proc, v T) {
	if p.Model().TwoPhaseWrites() {
		p.Exec(r.lb.writeStart, func() any {
			r.open++
			return nil
		})
		p.Exec(r.lb.writeCommit, func() any {
			r.val = v
			r.written = true
			r.open--
			return nil
		})
		return
	}
	p.Exec(r.lb.write, func() any {
		r.val = v
		r.written = true
		return nil
	})
}

// Read returns the current value (one step). Under the safe model a read
// overlapping an open write window returns the unwritten zero value.
func (r *Reg[T]) Read(p *sched.Proc) (T, bool) {
	res := p.Exec(r.lb.read, func() any {
		if r.open > 0 && p.Model().SafeReads() {
			return readResult[T]{}
		}
		return readResult[T]{val: r.val, ok: r.written}
	}).(readResult[T])
	return res.val, res.ok
}

// TAS is a one-shot test-and-set object: the first invoker wins. It is an
// oracle object (not wait-free implementable from registers); the paper
// uses such objects to define enriched models ASM_{n,t}[T].
type TAS struct {
	lb  *labels
	set bool
}

// NewTAS allocates a test-and-set object.
func NewTAS(name string) *TAS { return &TAS{lb: labelsFor(name)} }

// TestAndSet returns true iff the caller is the first invoker (one step).
func (t *TAS) TestAndSet(p *sched.Proc) bool {
	return p.Exec(t.lb.tas, func() any {
		if t.set {
			return false
		}
		t.set = true
		return true
	}).(bool)
}

// FetchInc is a fetch&increment counter oracle object.
type FetchInc struct {
	lb   *labels
	next int
}

// NewFetchInc allocates a counter whose first FetchInc returns 0.
func NewFetchInc(name string) *FetchInc { return &FetchInc{lb: labelsFor(name)} }

// FetchInc atomically returns the current count and increments it.
func (f *FetchInc) FetchInc(p *sched.Proc) int {
	return p.Exec(f.lb.fetchinc, func() any {
		v := f.next
		f.next++
		return v
	}).(int)
}

// Validate panics unless 0 <= idx < n; used by objects that key state by
// process index.
func validateIndex(idx, n int, what string) {
	if idx < 0 || idx >= n {
		panic(fmt.Sprintf("mem: %s index %d outside [0..%d)", what, idx, n))
	}
}
