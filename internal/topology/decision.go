package topology

import (
	"fmt"

	"repro/internal/gsb"
	"repro/internal/sat"
)

// FindDecisionMap searches for an assignment of output values in [1..m]
// to the canonical comparison-based classes of the complex such that
// every facet's output vector is legal for spec. It returns the per-class
// assignment, or nil when none exists — in which case the complex
// certifies that no Rounds-round full-information comparison-based
// protocol solves the task.
//
// The search is exact: a CNF encoding exhausted by the CDCL solver of
// package sat. Clause learning handles instances whose constraints
// propagate too weakly for chronological backtracking (notably weak
// symmetry breaking, whose facet constraints are pure not-all-equal).
//
// Encoding: boolean variable x[c][v] = "class c decides value v";
// exactly-one constraints per class, and per facet and value the counting
// bounds become blocking clauses over minimal violating class sets
// (multiplicities of a class within a facet are respected).
func (c *Complex) FindDecisionMap(spec gsb.Spec) []int {
	if spec.N() != c.N {
		panic(fmt.Sprintf("topology: spec %v is for n=%d, complex has n=%d", spec, spec.N(), c.N))
	}
	m := spec.M()
	varOf := func(cls, val int) int { return cls*m + val } // val is 1-based

	solver := sat.New(c.Classes * m)
	var lits []int // one clause buffer for the whole search: AddClause copies

	// Exactly one value per class.
	for cls := 0; cls < c.Classes; cls++ {
		lits = lits[:0]
		for v := 1; v <= m; v++ {
			lits = append(lits, varOf(cls, v))
		}
		solver.AddClause(lits...)
		for a := 1; a <= m; a++ {
			for b := a + 1; b <= m; b++ {
				solver.AddClause(-varOf(cls, a), -varOf(cls, b))
			}
		}
	}

	// Facet counting constraints over class multiplicities.
	for _, facet := range c.Facets {
		mult := map[int]int{}
		for _, vtx := range facet {
			mult[c.Vertices[vtx].Class]++
		}
		cms := make([]classMult, 0, len(mult))
		for cls, t := range mult {
			cms = append(cms, classMult{cls, t})
		}
		k := len(cms)
		// Enumerate subsets of the facet's classes.
		for v := 1; v <= m; v++ {
			upper, lower := spec.Upper(v), spec.Lower(v)
			for mask := 1; mask < 1<<k; mask++ {
				total := 0
				for i := 0; i < k; i++ {
					if mask&(1<<i) != 0 {
						total += cms[i].mult
					}
				}
				// Upper bound: the classes in the subset cannot all pick v
				// if their combined multiplicity exceeds u_v. Only minimal
				// violating subsets are needed: every proper subset must be
				// within the bound.
				if total > upper && minimalOver(cms, mask, upper) {
					lits = lits[:0]
					for i := 0; i < k; i++ {
						if mask&(1<<i) != 0 {
							lits = append(lits, -varOf(cms[i].cls, v))
						}
					}
					solver.AddClause(lits...)
				}
				// Lower bound: the complement of the subset cannot supply
				// l_v instances, so some class in the subset must pick v.
				rest := c.N - total
				if rest < lower && minimalUnder(cms, mask, c.N, lower) {
					lits = lits[:0]
					for i := 0; i < k; i++ {
						if mask&(1<<i) != 0 {
							lits = append(lits, varOf(cms[i].cls, v))
						}
					}
					solver.AddClause(lits...)
				}
			}
		}
	}

	if solver.Solve() == sat.Unsat {
		return nil
	}
	model := solver.Model()
	assign := make([]int, c.Classes)
	for cls := 0; cls < c.Classes; cls++ {
		for v := 1; v <= m; v++ {
			if model[varOf(cls, v)] {
				assign[cls] = v
				break
			}
		}
		if assign[cls] == 0 {
			panic("topology: SAT model left a class unassigned")
		}
	}
	if err := c.CheckDecisionMap(spec, assign); err != nil {
		panic(fmt.Sprintf("topology: SAT model fails verification: %v", err))
	}
	return assign
}

type classMult struct {
	cls, mult int
}

// minimalOver reports whether removing any single element of the subset
// brings the multiplicity total to at most the bound (so the subset is a
// minimal violator of the upper bound).
func minimalOver(cms []classMult, mask, upper int) bool {
	total := 0
	for i := range cms {
		if mask&(1<<i) != 0 {
			total += cms[i].mult
		}
	}
	for i := range cms {
		if mask&(1<<i) != 0 && total-cms[i].mult > upper {
			return false
		}
	}
	return true
}

// minimalUnder reports whether the subset is a minimal set whose
// complement cannot reach the lower bound (removing any element restores
// feasibility of the complement).
func minimalUnder(cms []classMult, mask, n, lower int) bool {
	total := 0
	for i := range cms {
		if mask&(1<<i) != 0 {
			total += cms[i].mult
		}
	}
	for i := range cms {
		if mask&(1<<i) != 0 && n-(total-cms[i].mult) < lower {
			return false
		}
	}
	return true
}

// CheckDecisionMap verifies that a per-class assignment solves spec on
// every facet; it is used to validate maps returned by FindDecisionMap
// and maps induced by executable protocols.
func (c *Complex) CheckDecisionMap(spec gsb.Spec, assign []int) error {
	if len(assign) != c.Classes {
		return fmt.Errorf("topology: assignment has %d entries, want %d classes", len(assign), c.Classes)
	}
	outputs := make([]int, c.N)
	for f, facet := range c.Facets {
		for i, v := range facet {
			outputs[i] = assign[c.Vertices[v].Class]
		}
		if err := spec.Verify(outputs); err != nil {
			return fmt.Errorf("topology: facet %d outputs %v: %w", f, outputs, err)
		}
	}
	return nil
}

// Solvable reports whether a decision map exists at the given number of
// rounds, with a convenience constructor.
func Solvable(spec gsb.Spec, rounds int) bool {
	c := BuildIIS(spec.N(), rounds)
	return c.FindDecisionMap(spec) != nil
}
