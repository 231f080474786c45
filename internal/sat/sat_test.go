package sat

import (
	"math/rand"
	"testing"
)

func TestTrivialCases(t *testing.T) {
	s := New(1)
	s.AddClause(1)
	if s.Solve() != Sat {
		t.Fatal("single unit should be SAT")
	}
	if !s.Model()[1] {
		t.Fatal("model should set var 1 true")
	}

	s = New(1)
	s.AddClause(1)
	s.AddClause(-1)
	if s.Solve() != Unsat {
		t.Fatal("contradictory units should be UNSAT")
	}

	s = New(2)
	s.AddClause() // empty clause
	if s.Solve() != Unsat {
		t.Fatal("empty clause should be UNSAT")
	}

	s = New(0)
	if s.Solve() != Sat {
		t.Fatal("empty formula should be SAT")
	}
}

func TestTautologyDropped(t *testing.T) {
	s := New(2)
	s.AddClause(1, -1)
	s.AddClause(2)
	if s.Solve() != Sat || !s.Model()[2] {
		t.Fatal("tautology handling broken")
	}
}

// TestMarksClearedAfterUse: AddClause and analyze share one per-variable
// mark slice, and each clears what it set, also when a clause turns out
// to be a tautology partway through.
func TestMarksClearedAfterUse(t *testing.T) {
	s := New(2)
	s.AddClause(1, 2, -1)
	s.AddClause(2)
	if s.Solve() != Sat || !s.Model()[2] {
		t.Fatal("a tautology left its literals marked")
	}
	s = pigeonhole(5, 4)
	if s.Solve() != Unsat {
		t.Fatal("PHP(5,4) should be UNSAT")
	}
	for v, m := range s.mark {
		if m != 0 {
			t.Fatalf("variable %d still marked %d after Solve", v, m)
		}
	}
}

func TestSimpleImplicationChain(t *testing.T) {
	// x1 & (x1->x2) & (x2->x3) & (x3->x4): all true.
	s := New(4)
	s.AddClause(1)
	s.AddClause(-1, 2)
	s.AddClause(-2, 3)
	s.AddClause(-3, 4)
	if s.Solve() != Sat {
		t.Fatal("chain should be SAT")
	}
	m := s.Model()
	for v := 1; v <= 4; v++ {
		if !m[v] {
			t.Fatalf("var %d should be true", v)
		}
	}
}

// pigeonhole adds the classic PHP(p, h) clauses: p pigeons, h holes,
// each pigeon in some hole, no two pigeons share a hole.
func pigeonhole(p, h int) *Solver {
	varOf := func(pigeon, hole int) int { return pigeon*h + hole + 1 }
	s := New(p * h)
	for i := 0; i < p; i++ {
		lits := make([]int, h)
		for j := 0; j < h; j++ {
			lits[j] = varOf(i, j)
		}
		s.AddClause(lits...)
	}
	for j := 0; j < h; j++ {
		for a := 0; a < p; a++ {
			for b := a + 1; b < p; b++ {
				s.AddClause(-varOf(a, j), -varOf(b, j))
			}
		}
	}
	return s
}

func TestPigeonhole(t *testing.T) {
	// PHP(h+1, h) is UNSAT (famously hard for resolution, but tiny sizes
	// are instant); PHP(h, h) is SAT.
	for h := 2; h <= 6; h++ {
		if got := pigeonhole(h+1, h).Solve(); got != Unsat {
			t.Errorf("PHP(%d,%d) = %v, want UNSAT", h+1, h, got)
		}
		if got := pigeonhole(h, h).Solve(); got != Sat {
			t.Errorf("PHP(%d,%d) = %v, want SAT", h, h, got)
		}
	}
}

// bruteForce checks satisfiability of a clause list over nVars by
// enumeration.
func bruteForce(nVars int, clauses [][]int) bool {
	for mask := 0; mask < 1<<nVars; mask++ {
		ok := true
		for _, cl := range clauses {
			sat := false
			for _, l := range cl {
				v := l
				if v < 0 {
					v = -v
				}
				val := mask&(1<<(v-1)) != 0
				if (l > 0) == val {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		nVars := 4 + rng.Intn(9) // 4..12
		nClauses := 2 + rng.Intn(6*nVars)
		clauses := make([][]int, nClauses)
		for i := range clauses {
			width := 1 + rng.Intn(3)
			cl := make([]int, width)
			for k := range cl {
				v := 1 + rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					v = -v
				}
				cl[k] = v
			}
			clauses[i] = cl
		}
		s := New(nVars)
		for _, cl := range clauses {
			s.AddClause(cl...)
		}
		got := s.Solve()
		want := bruteForce(nVars, clauses)
		if (got == Sat) != want {
			t.Fatalf("trial %d: solver=%v bruteforce=%v clauses=%v", trial, got, want, clauses)
		}
		if got == Sat {
			// The returned model must actually satisfy the clauses.
			m := s.Model()
			for _, cl := range clauses {
				sat := false
				for _, l := range cl {
					v := l
					if v < 0 {
						v = -v
					}
					if (l > 0) == m[v] {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("trial %d: model does not satisfy %v", trial, cl)
				}
			}
		}
	}
}

func TestLitValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range literal")
		}
	}()
	New(2).AddClause(3)
}

func TestResultString(t *testing.T) {
	if Unsat.String() != "UNSAT" || Sat.String() != "SAT" {
		t.Error("Result strings wrong")
	}
}
