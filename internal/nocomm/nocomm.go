// Package nocomm implements Theorem 9 of the paper: the characterization
// of GSB tasks solvable with no communication at all. An algorithm that
// never accesses shared memory is a decision function delta mapping each
// identity in [1..2n-1] to an output value; it solves the task iff every
// possible set of n participants (with distinct identities) produces a
// legal output vector.
//
// The package provides the paper's constructive partition solver, the
// closed-form characterization (generalized to asymmetric bounds via
// per-value group-size intervals), and independent brute-force and
// subset-exhaustive checkers used to cross-validate the theorem.
package nocomm

import (
	"fmt"

	"repro/internal/gsb"
	"repro/internal/vecmath"
)

// DecisionFunc is a communication-free algorithm: entry id-1 is the value
// in [1..m] decided by a process whose identity is id. Identities range
// over [1..2n-1] (Theorem 1 fixes N = 2n-1).
type DecisionFunc []int

// IDSpace returns the identity-space size for n processes, 2n-1.
func IDSpace(n int) int { return 2*n - 1 }

// Solvable reports whether the task is solvable with no communication,
// evaluated via per-value group-size intervals (valid for asymmetric
// specs too):
//
// A decision function with group sizes g_v = |delta^{-1}(v)| solves the
// task iff for every value v, min(g_v, n) <= u_v (the adversary can place
// up to g_v participants in group v) and max(0, g_v-(n-1)) >= l_v (the
// adversary can avoid group v except for g_v-(n-1) forced members).
// Such sizes exist iff sum of the per-value lower interval ends is at
// most 2n-1 and the sum of upper ends is at least 2n-1.
func Solvable(spec gsb.Spec) bool {
	if !spec.Feasible() {
		return false
	}
	loSum, hiSum := 0, 0
	n := spec.N()
	for v := 1; v <= spec.M(); v++ {
		lo, hi := groupInterval(spec, v)
		if lo > hi {
			return false
		}
		loSum += lo
		hiSum += hi
	}
	return loSum <= IDSpace(n) && IDSpace(n) <= hiSum
}

// groupInterval returns the allowed size range [lo..hi] for delta's group
// of value v.
func groupInterval(spec gsb.Spec, v int) (lo, hi int) {
	n := spec.N()
	l, u := spec.Lower(v), spec.Upper(v)
	lo = 0
	if l > 0 {
		// Need g_v - (n-1) >= l so that even participant sets avoiding the
		// group contain at least l members of it.
		lo = n - 1 + l
	}
	hi = IDSpace(n)
	if u < n {
		// Need min(g_v, n) <= u, i.e. g_v <= u when u < n.
		hi = u
	}
	return lo, hi
}

// SolvableFormula evaluates the paper's Theorem 9 statement for symmetric
// specs: with m > 1, solvable iff l = 0 and ceil((2n-1)/m) <= u; with
// m = 1, solvable iff feasible. Panics on asymmetric specs.
func SolvableFormula(spec gsb.Spec) bool {
	l, u := spec.SymBounds()
	if !spec.Feasible() {
		return false
	}
	if spec.M() == 1 {
		return true
	}
	return l == 0 && vecmath.CeilDiv(IDSpace(spec.N()), spec.M()) <= u
}

// Build returns a decision function solving the task with no
// communication, or false when none exists. The construction follows the
// proof of Theorem 9: pick group sizes within the per-value intervals
// summing to 2n-1 (greedily topping up from the interval lower ends), and
// map identity ranges to values.
func Build(spec gsb.Spec) (DecisionFunc, bool) {
	if !Solvable(spec) {
		return nil, false
	}
	n, m := spec.N(), spec.M()
	sizes := make([]int, m)
	total := 0
	for v := 1; v <= m; v++ {
		lo, _ := groupInterval(spec, v)
		sizes[v-1] = lo
		total += lo
	}
	for v := 1; v <= m && total < IDSpace(n); v++ {
		_, hi := groupInterval(spec, v)
		add := min(hi-sizes[v-1], IDSpace(n)-total)
		sizes[v-1] += add
		total += add
	}
	if total != IDSpace(n) {
		return nil, false // unreachable when Solvable holds
	}
	delta := make(DecisionFunc, IDSpace(n))
	id := 0
	for v := 1; v <= m; v++ {
		for k := 0; k < sizes[v-1]; k++ {
			delta[id] = v
			id++
		}
	}
	return delta, true
}

// BoundedHomonymous returns the Corollary 2 decision function for
// x-bounded homonymous renaming: delta(id) = ceil(id/x).
func BoundedHomonymous(n, x int) DecisionFunc {
	delta := make(DecisionFunc, IDSpace(n))
	for id := 1; id <= IDSpace(n); id++ {
		delta[id-1] = vecmath.CeilDiv(id, x)
	}
	return delta
}

// IdentityRenaming returns the trivial (2n-1)-renaming decision function
// (each process outputs its own identity), the <n,2n-1,0,1>-GSB solver of
// Section 5.2.
func IdentityRenaming(n int) DecisionFunc {
	delta := make(DecisionFunc, IDSpace(n))
	for id := 1; id <= IDSpace(n); id++ {
		delta[id-1] = id
	}
	return delta
}

// Verify checks that delta solves the task for every participant set,
// using the group-size argument (exact, any size).
func Verify(spec gsb.Spec, delta DecisionFunc) error {
	n := spec.N()
	if len(delta) != IDSpace(n) {
		return fmt.Errorf("nocomm: delta has %d entries, want %d", len(delta), IDSpace(n))
	}
	sizes := make([]int, spec.M())
	for id, v := range delta {
		if v < 1 || v > spec.M() {
			return fmt.Errorf("nocomm: delta(%d) = %d outside [1..%d]", id+1, v, spec.M())
		}
		sizes[v-1]++
	}
	for v := 1; v <= spec.M(); v++ {
		g := sizes[v-1]
		if maxCount := min(g, n); maxCount > spec.Upper(v) {
			return fmt.Errorf("nocomm: a participant set can decide value %d %d times, above upper bound %d",
				v, maxCount, spec.Upper(v))
		}
		if minCount := max(0, g-(n-1)); minCount < spec.Lower(v) {
			return fmt.Errorf("nocomm: a participant set can decide value %d only %d times, below lower bound %d",
				v, minCount, spec.Lower(v))
		}
	}
	return nil
}

// VerifyExhaustive checks delta against every n-subset of identities
// explicitly (cross-check of Verify; cost C(2n-1, n)).
func VerifyExhaustive(spec gsb.Spec, delta DecisionFunc) error {
	n := spec.N()
	if len(delta) != IDSpace(n) {
		return fmt.Errorf("nocomm: delta has %d entries, want %d", len(delta), IDSpace(n))
	}
	var failure error
	vecmath.Subsets(IDSpace(n), n, func(subset []int) bool {
		outputs := make([]int, n)
		for i, id := range subset {
			outputs[i] = delta[id]
		}
		if err := spec.Verify(outputs); err != nil {
			failure = fmt.Errorf("nocomm: participant identities %v: %w", subset, err)
			return false
		}
		return true
	})
	return failure
}

// BruteForceSolvable searches all m^(2n-1) decision functions (for tiny
// parameters only) and reports whether any solves the task. It is the
// independent validation of Theorem 9 used in tests; cost grows as
// m^(2n-1) * m.
func BruteForceSolvable(spec gsb.Spec) bool {
	n, m := spec.N(), spec.M()
	size := IDSpace(n)
	delta := make(DecisionFunc, size)
	var rec func(idx int) bool
	rec = func(idx int) bool {
		if idx == size {
			return Verify(spec, delta) == nil
		}
		for v := 1; v <= m; v++ {
			delta[idx] = v
			if rec(idx + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}
