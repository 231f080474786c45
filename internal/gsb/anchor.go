package gsb

import "repro/internal/vecmath"

// This file implements Definition 5 (anchoring), Theorems 3 and 4 (the
// arithmetic characterization of anchoring), and Theorem 7 (canonical
// representatives as fixed points of f(l,u)).

// LAnchored reports whether the symmetric task is l-anchored
// (Definition 5): increasing the upper bound to min(n, u+1) does not
// change the task. Panics on asymmetric specs.
func (s Spec) LAnchored() bool {
	l, u := s.SymBounds()
	up := min(s.n, u+1)
	if up == u {
		return true
	}
	return s.Synonym(NewSym(s.n, s.M(), l, up))
}

// UAnchored reports whether the symmetric task is u-anchored
// (Definition 5): decreasing the lower bound to max(0, l-1) does not
// change the task. Panics on asymmetric specs.
func (s Spec) UAnchored() bool {
	l, u := s.SymBounds()
	lo := max(0, l-1)
	if lo == l {
		return true
	}
	return s.Synonym(NewSym(s.n, s.M(), lo, u))
}

// LUAnchored reports whether the task is both l-anchored and u-anchored.
func (s Spec) LUAnchored() bool { return s.LAnchored() && s.UAnchored() }

// LAnchoredFormula evaluates the Theorem 3 characterization for a feasible
// symmetric task: l-anchored iff u >= n - l(m-1).
func (s Spec) LAnchoredFormula() bool {
	l, u := s.SymBounds()
	return u >= s.n-l*(s.M()-1)
}

// UAnchoredFormula evaluates the Theorem 4 characterization for a feasible
// symmetric task: u-anchored iff l <= n - u(m-1). The paper's statement
// implicitly assumes l >= 1; tasks with l = 0 are trivially u-anchored
// (Section 4.2), and for u(m-1) > n the l=0 case would otherwise be
// misclassified (found by TestAnchoringFormulaMatchesDefinition, the
// exhaustive test against Definition 5).
func (s Spec) UAnchoredFormula() bool {
	l, u := s.SymBounds()
	return l == 0 || l <= s.n-u*(s.M()-1)
}

// CanonicalStep applies one application of the Theorem 7 map
// f(l,u) = (max(l, n-u(m-1)), min(u, n-l(m-1))).
func (s Spec) CanonicalStep() Spec {
	l, u := s.SymBounds()
	m := s.M()
	lp := max(l, s.n-u*(m-1))
	up := min(u, s.n-l*(m-1))
	return NewSym(s.n, m, lp, up)
}

// Canonical returns the canonical representative of a feasible symmetric
// task: the fixed point of f(l,u) (Theorem 7). The result is a synonym of
// s with the tightest equivalent bounds. Panics on asymmetric or
// infeasible specs, for which the fixed point is not defined.
func (s Spec) Canonical() Spec {
	if !s.Feasible() {
		panic("gsb: Canonical on infeasible spec")
	}
	cur := s
	for {
		next := cur.CanonicalStep()
		if next.SameParams(cur) {
			return cur
		}
		cur = next
	}
}

// IsCanonical reports whether a feasible symmetric task is its own
// canonical representative.
func (s Spec) IsCanonical() bool {
	return s.Canonical().SameParams(s)
}

// Hardest returns the hardest task of the feasible <n,m,-,-> family
// (Theorem 5): <n, m, floor(n/m), ceil(n/m)>-GSB.
func Hardest(n, m int) Spec {
	return NewSym(n, m, vecmath.FloorDiv(n, m), vecmath.CeilDiv(n, m))
}
