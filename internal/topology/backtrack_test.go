package topology

import (
	"fmt"

	"repro/internal/gsb"
)

// backtrackDecisionMap is the chronological backtracking search that
// FindDecisionMap's CDCL encoding replaced. It is kept as an independent
// oracle: TestSATSearchAgreesWithBacktracking checks both searches reach
// the same verdict on every instance it can exhaust. It returns a
// per-class assignment, or nil when none exists.
//
// The search is exact: backtracking over classes with per-facet forward
// checking (upper bounds can never be exceeded; lower bounds must remain
// coverable by the facet's unassigned vertices).
func (c *Complex) backtrackDecisionMap(spec gsb.Spec) []int {
	if spec.N() != c.N {
		panic(fmt.Sprintf("topology: spec %v is for n=%d, complex has n=%d", spec, spec.N(), c.N))
	}
	m := spec.M()

	// Facet class multisets.
	facetClasses := make([][]int, len(c.Facets))
	for f, facet := range c.Facets {
		cls := make([]int, len(facet))
		for i, v := range facet {
			cls[i] = c.Vertices[v].Class
		}
		facetClasses[f] = cls
	}
	// For each class, the facets it appears in (deduplicated).
	occursIn := make([][]int, c.Classes)
	for f, cls := range facetClasses {
		seen := map[int]bool{}
		for _, cl := range cls {
			if !seen[cl] {
				seen[cl] = true
				occursIn[cl] = append(occursIn[cl], f)
			}
		}
	}

	assign := make([]int, c.Classes) // 0 = unassigned, else value in [1..m]
	counts := make([][]int, len(c.Facets))
	unassigned := make([]int, len(c.Facets))
	for f := range c.Facets {
		counts[f] = make([]int, m)
		unassigned[f] = len(facetClasses[f])
	}

	feasible := func(f int) bool {
		need := 0
		for v := 1; v <= m; v++ {
			cv := counts[f][v-1]
			if cv > spec.Upper(v) {
				return false
			}
			if d := spec.Lower(v) - cv; d > 0 {
				need += d
			}
		}
		return need <= unassigned[f]
	}

	apply := func(cls, val, dir int) bool {
		ok := true
		for _, f := range occursIn[cls] {
			for _, cl := range facetClasses[f] {
				if cl == cls {
					counts[f][val-1] += dir
					unassigned[f] -= dir
				}
			}
			if dir > 0 && !feasible(f) {
				ok = false
			}
		}
		return ok
	}

	// Most-constrained-facet heuristic: always branch on a class of the
	// facet with the fewest unassigned vertices, so that near-complete
	// facets are finished (and contradictions detected) as early as
	// possible. This makes exhausting unsatisfiable instances tractable.
	pickClass := func() int {
		bestF, bestCount := -1, 0
		for f := range facetClasses {
			u := unassigned[f]
			if u == 0 {
				continue
			}
			if bestF == -1 || u < bestCount {
				bestF, bestCount = f, u
			}
		}
		if bestF == -1 {
			return -1
		}
		for _, cl := range facetClasses[bestF] {
			if assign[cl] == 0 {
				return cl
			}
		}
		return -1
	}

	remaining := c.Classes
	var rec func() bool
	rec = func() bool {
		if remaining == 0 {
			return true
		}
		cls := pickClass()
		if cls == -1 {
			// Some classes appear in no facet (impossible by construction)
			// or all facets are complete: assign leftovers arbitrarily.
			for cl := range assign {
				if assign[cl] == 0 {
					assign[cl] = 1
					remaining--
				}
			}
			return true
		}
		remaining--
		for val := 1; val <= m; val++ {
			assign[cls] = val
			ok := apply(cls, val, +1)
			if ok && rec() {
				return true
			}
			apply(cls, val, -1)
			assign[cls] = 0
		}
		remaining++
		return false
	}
	if !rec() {
		return nil
	}
	return assign
}
