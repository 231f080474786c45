package gsb

import (
	"testing"

	"repro/internal/vecmath"
)

func TestAnchoringExamplesFromPaper(t *testing.T) {
	// Section 4.2: in the <20,4,-,-> family, <20,4,4,8> is l-anchored,
	// <20,4,2,6> is u-anchored, <20,4,5,5> is (l,u)-anchored and
	// <20,4,4,6> is neither.
	tests := []struct {
		spec       Spec
		lAnchored  bool
		uAnchored  bool
		luAnchored bool
	}{
		{NewSym(20, 4, 4, 8), true, false, false},
		{NewSym(20, 4, 2, 6), false, true, false},
		{NewSym(20, 4, 5, 5), true, true, true},
		{NewSym(20, 4, 4, 6), false, false, false},
	}
	for _, tc := range tests {
		if got := tc.spec.LAnchored(); got != tc.lAnchored {
			t.Errorf("%v LAnchored = %v, want %v", tc.spec, got, tc.lAnchored)
		}
		if got := tc.spec.UAnchored(); got != tc.uAnchored {
			t.Errorf("%v UAnchored = %v, want %v", tc.spec, got, tc.uAnchored)
		}
		if got := tc.spec.LUAnchored(); got != tc.luAnchored {
			t.Errorf("%v LUAnchored = %v, want %v", tc.spec, got, tc.luAnchored)
		}
	}
}

func TestTriviallyAnchored(t *testing.T) {
	// Section 4.2: all <n,m,l,n> tasks are l-anchored and all <n,m,0,u>
	// tasks are u-anchored.
	for n := 2; n <= 8; n++ {
		for m := 1; m <= 4; m++ {
			for l := 0; l*m <= n; l++ {
				s := NewSym(n, m, l, n)
				if !s.LAnchored() {
					t.Errorf("%v should be trivially l-anchored", s)
				}
			}
			for u := vecmath.CeilDiv(n, m); u <= n; u++ {
				s := NewSym(n, m, 0, u)
				if !s.UAnchored() {
					t.Errorf("%v should be trivially u-anchored", s)
				}
			}
		}
	}
}

func TestAnchoringFormulaMatchesDefinition(t *testing.T) {
	// Theorems 3 and 4: the arithmetic characterizations must agree with
	// the synonym-based Definition 5 on every feasible task, exhaustively
	// for n <= 12.
	for n := 1; n <= 12; n++ {
		for m := 1; m <= 5; m++ {
			for _, s := range Family(n, m) {
				if def, formula := s.LAnchored(), s.LAnchoredFormula(); def != formula {
					t.Fatalf("Theorem 3 mismatch for %v: definition=%v formula=%v", s, def, formula)
				}
				if def, formula := s.UAnchored(), s.UAnchoredFormula(); def != formula {
					t.Fatalf("Theorem 4 mismatch for %v: definition=%v formula=%v", s, def, formula)
				}
			}
		}
	}
}

func TestCorollary1(t *testing.T) {
	// Corollary 1: for l <= n/m <= u, <n,m,l,max(l, n-l(m-1))> is
	// l-anchored and <n,m,max(0,n-u(m-1)),u> is u-anchored.
	for n := 1; n <= 10; n++ {
		for m := 1; m <= 4; m++ {
			for l := 0; l*m <= n; l++ {
				u := max(l, n-l*(m-1))
				s := NewSym(n, m, l, u)
				if s.Feasible() && !s.LAnchored() {
					t.Errorf("Corollary 1 fails: %v not l-anchored", s)
				}
			}
			for u := vecmath.CeilDiv(n, m); u <= n; u++ {
				l := max(0, n-u*(m-1))
				s := NewSym(n, m, l, u)
				if s.Feasible() && !s.UAnchored() {
					t.Errorf("Corollary 1 fails: %v not u-anchored", s)
				}
			}
		}
	}
}

func TestCanonicalTable1(t *testing.T) {
	// Table 1 marks exactly these seven tasks as canonical 4-tuples.
	canonical := map[string]bool{
		"<6,3,0,6>-GSB": true,
		"<6,3,0,5>-GSB": true,
		"<6,3,0,4>-GSB": true,
		"<6,3,1,4>-GSB": true,
		"<6,3,0,3>-GSB": true,
		"<6,3,1,3>-GSB": true,
		"<6,3,2,2>-GSB": true,
	}
	for _, s := range Family(6, 3) {
		if got := s.IsCanonical(); got != canonical[s.String()] {
			t.Errorf("%v IsCanonical = %v, want %v", s, got, canonical[s.String()])
		}
	}
}

func TestCanonicalExamplesFromPaper(t *testing.T) {
	// Section 4.2: <6,3,2,2> represents the four tasks with kernel {[2,2,2]}
	// listed in Table 1; <6,3,1,4> represents <6,3,1,6>, <6,3,1,5>,
	// <6,3,1,4>; <6,3,1,3> is its own representative.
	tests := []struct {
		spec Spec
		want Spec
	}{
		{NewSym(6, 3, 0, 2), NewSym(6, 3, 2, 2)},
		{NewSym(6, 3, 1, 2), NewSym(6, 3, 2, 2)},
		{NewSym(6, 3, 2, 3), NewSym(6, 3, 2, 2)},
		{NewSym(6, 3, 2, 4), NewSym(6, 3, 2, 2)},
		{NewSym(6, 3, 2, 5), NewSym(6, 3, 2, 2)},
		{NewSym(6, 3, 2, 6), NewSym(6, 3, 2, 2)},
		{NewSym(6, 3, 1, 6), NewSym(6, 3, 1, 4)},
		{NewSym(6, 3, 1, 5), NewSym(6, 3, 1, 4)},
		{NewSym(6, 3, 1, 4), NewSym(6, 3, 1, 4)},
		{NewSym(6, 3, 1, 3), NewSym(6, 3, 1, 3)},
	}
	for _, tc := range tests {
		if got := tc.spec.Canonical(); !got.SameParams(tc.want) {
			t.Errorf("%v Canonical = %v, want %v", tc.spec, got, tc.want)
		}
	}
}

func TestCanonicalIsSynonymAndFixedPoint(t *testing.T) {
	// Theorem 7: the canonical representative is a synonym of the task and
	// a fixed point of f; exhaustively for n <= 12.
	for n := 1; n <= 12; n++ {
		for m := 1; m <= 5; m++ {
			for _, s := range Family(n, m) {
				c := s.Canonical()
				if !c.Synonym(s) {
					t.Fatalf("%v canonical %v is not a synonym", s, c)
				}
				if !c.CanonicalStep().SameParams(c) {
					t.Fatalf("%v canonical %v is not a fixed point", s, c)
				}
				// Tightest bounds: shrinking further changes the task.
				l, u := c.SymBounds()
				if l < s.N() && m > 1 {
					if NewSym(s.N(), m, l+1, max(l+1, u)).Synonym(s) && l+1 <= u {
						t.Fatalf("%v canonical %v lower bound not tight", s, c)
					}
				}
				if u > l {
					if NewSym(s.N(), m, l, u-1).Feasible() && NewSym(s.N(), m, l, u-1).Synonym(s) {
						t.Fatalf("%v canonical %v upper bound not tight", s, c)
					}
				}
			}
		}
	}
}

func TestCanonicalBruteForceAgreement(t *testing.T) {
	// Two specs have the same canonical representative iff they are
	// synonyms — exhaustively within each family for n <= 10.
	for n := 2; n <= 10; n++ {
		for m := 2; m <= 4; m++ {
			family := Family(n, m)
			for i := range family {
				for j := range family {
					sameCanon := family[i].Canonical().SameParams(family[j].Canonical())
					if sameCanon != family[i].Synonym(family[j]) {
						t.Fatalf("canonical/synonym disagreement: %v vs %v", family[i], family[j])
					}
				}
			}
		}
	}
}

func TestCanonicalPanicsOnInfeasible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSym(5, 2, 0, 1).Canonical() // 2*1 < 5: infeasible
}

func TestHardestNotAlwaysAnchored(t *testing.T) {
	// Section 4.4: <10,4,2,3> is neither l- nor u-anchored, while
	// <10,5,2,2> is (l,u)-anchored.
	s := NewSym(10, 4, 2, 3)
	if s.LAnchored() || s.UAnchored() {
		t.Errorf("%v should be neither l- nor u-anchored", s)
	}
	s2 := NewSym(10, 5, 2, 2)
	if !s2.LUAnchored() {
		t.Errorf("%v should be (l,u)-anchored", s2)
	}
}
