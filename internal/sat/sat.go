// Package sat is a compact conflict-driven clause-learning (CDCL) SAT
// solver: two-watched-literal propagation, first-UIP clause learning with
// backjumping, exponential VSIDS-style activity ordering, phase saving
// and Luby restarts. It exhausts the decision-map search of package
// topology, including instances whose constraints (e.g. weak symmetry
// breaking's not-all-equal facets) propagate too weakly for chronological
// backtracking.
//
// Literal convention: a literal is a non-zero int; +v means variable v is
// true, -v means variable v is false, with v in [1..nVars] for the nVars
// given to New.
package sat

import "fmt"

// Result is the outcome of Solve.
type Result int

// Solve outcomes.
const (
	Unsat Result = iota
	Sat
)

// String renders the result.
func (r Result) String() string {
	switch r {
	case Unsat:
		return "UNSAT"
	case Sat:
		return "SAT"
	default:
		return fmt.Sprintf("Result(%d)", int(r))
	}
}

const (
	unassigned int8 = iota
	assignedTrue
	assignedFalse
)

type clause struct {
	lits     []int
	learnt   bool
	activity float64
}

// Solver is a one-shot CDCL solver: add clauses, call Solve once.
type Solver struct {
	nVars   int
	clauses []*clause
	watches [][]*clause // litIndex(literal) -> clauses watching it

	assign  []int8 // 1-based by variable
	level   []int
	reason  []*clause
	trail   []int
	trailLo []int // decision-level boundaries in trail

	activity []float64
	varInc   float64
	phase    []int8

	// mark is per-variable scratch for AddClause (the sign of the
	// variable's literal already in the clause) and analyze (variable
	// seen); both clear what they set before returning.
	mark []int8

	propHead int
	unsatNow bool // empty/contradictory clause added at level 0
}

// New creates a solver over variables 1..nVars.
func New(nVars int) *Solver {
	if nVars < 0 {
		panic("sat: negative variable count")
	}
	return &Solver{
		nVars:    nVars,
		watches:  make([][]*clause, 2*(nVars+1)),
		assign:   make([]int8, nVars+1),
		level:    make([]int, nVars+1),
		reason:   make([]*clause, nVars+1),
		activity: make([]float64, nVars+1),
		phase:    make([]int8, nVars+1),
		mark:     make([]int8, nVars+1),
		varInc:   1,
	}
}

func (s *Solver) checkLit(l int) {
	v := l
	if v < 0 {
		v = -v
	}
	if l == 0 || v > s.nVars {
		panic(fmt.Sprintf("sat: literal %d outside variable range 1..%d", l, s.nVars))
	}
}

// AddClause installs a clause (disjunction of literals). Duplicate
// literals are removed; tautologies are dropped. Must be called before
// Solve.
func (s *Solver) AddClause(lits ...int) {
	cl := make([]int, 0, len(lits))
	tautology := false
	for _, l := range lits {
		s.checkLit(l)
		v, sign := l, int8(1)
		if v < 0 {
			v, sign = -v, -1
		}
		if s.mark[v] == -sign {
			tautology = true
			break
		}
		if s.mark[v] == 0 {
			s.mark[v] = sign
			cl = append(cl, l)
		}
	}
	for _, l := range cl {
		if l < 0 {
			l = -l
		}
		s.mark[l] = 0
	}
	if tautology {
		return
	}
	if len(cl) == 0 {
		s.unsatNow = true
		return
	}
	if len(cl) == 1 {
		// Enqueue at level 0 (conflicts detected during initial propagation).
		switch s.value(cl[0]) {
		case assignedFalse:
			s.unsatNow = true
		case unassigned:
			s.enqueue(cl[0], nil)
		}
		return
	}
	c := &clause{lits: cl}
	s.clauses = append(s.clauses, c)
	s.watch(c, cl[0])
	s.watch(c, cl[1])
}

// litIndex maps literal +v to 2v and -v to 2v+1, the literal's slot in
// watches.
func litIndex(lit int) int {
	if lit < 0 {
		return -2*lit + 1
	}
	return 2 * lit
}

func (s *Solver) watch(c *clause, lit int) {
	i := litIndex(-lit)
	s.watches[i] = append(s.watches[i], c)
}

func (s *Solver) value(lit int) int8 {
	v := lit
	neg := false
	if v < 0 {
		v, neg = -v, true
	}
	a := s.assign[v]
	if a == unassigned {
		return unassigned
	}
	if (a == assignedTrue) != neg {
		return assignedTrue
	}
	return assignedFalse
}

func (s *Solver) enqueue(lit int, from *clause) {
	v := lit
	val := assignedTrue
	if v < 0 {
		v = -v
		val = assignedFalse
	}
	s.assign[v] = val
	s.level[v] = len(s.trailLo)
	s.reason[v] = from
	s.trail = append(s.trail, lit)
}

// propagate performs unit propagation; it returns the conflicting clause
// or nil.
func (s *Solver) propagate() *clause {
	for s.propHead < len(s.trail) {
		lit := s.trail[s.propHead]
		s.propHead++
		li := litIndex(lit)
		watching := s.watches[li]
		kept := watching[:0]
		for i := 0; i < len(watching); i++ {
			c := watching[i]
			// Ensure the falsified literal is at position 1.
			if c.lits[0] == -lit {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == assignedTrue {
				kept = append(kept, c) // satisfied; keep watching
				continue
			}
			// Find a new literal to watch.
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != assignedFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watch(c, c.lits[1])
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Unit or conflicting.
			kept = append(kept, c)
			if s.value(c.lits[0]) == assignedFalse {
				// Conflict: keep remaining watchers, then report.
				kept = append(kept, watching[i+1:]...)
				s.watches[li] = kept
				return c
			}
			s.enqueue(c.lits[0], c)
		}
		s.watches[li] = kept
	}
	return nil
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (with the asserting literal first) and the backjump level.
func (s *Solver) analyze(confl *clause) ([]int, int) {
	curLevel := len(s.trailLo)
	learnt := []int{0} // learnt[0] becomes the asserting literal
	counter := 0
	idx := len(s.trail) - 1

	reasonLits := confl.lits
	for {
		for _, l := range reasonLits {
			v := l
			if v < 0 {
				v = -v
			}
			if s.mark[v] != 0 || s.level[v] == 0 {
				continue
			}
			s.mark[v] = 1
			s.bumpVar(v)
			if s.level[v] == curLevel {
				counter++
			} else {
				learnt = append(learnt, l)
			}
		}
		// Walk the trail backwards to the next marked literal.
		for {
			v := s.trail[idx]
			if v < 0 {
				v = -v
			}
			if s.mark[v] != 0 {
				break
			}
			idx--
		}
		v := s.trail[idx]
		sign := 1
		if v < 0 {
			v, sign = -v, -1
		}
		counter--
		s.mark[v] = 0
		idx--
		if counter == 0 {
			learnt[0] = -sign * v
			break
		}
		if s.reason[v] == nil {
			panic("sat: decision reached before UIP")
		}
		// Skip the asserting literal itself in the reason (lits[0]).
		reasonLits = s.reason[v].lits[1:]
	}

	// Backjump level: highest level among the non-asserting literals,
	// whose marks are the only ones still set.
	back := 0
	for _, l := range learnt[1:] {
		v := l
		if v < 0 {
			v = -v
		}
		s.mark[v] = 0
		if s.level[v] > back {
			back = s.level[v]
		}
	}
	return learnt, back
}

func (s *Solver) cancelUntil(level int) {
	for len(s.trailLo) > level {
		lo := s.trailLo[len(s.trailLo)-1]
		for i := len(s.trail) - 1; i >= lo; i-- {
			lit := s.trail[i]
			v := lit
			if v < 0 {
				v = -v
			}
			s.phase[v] = s.assign[v]
			s.assign[v] = unassigned
			s.reason[v] = nil
		}
		s.trail = s.trail[:lo]
		s.trailLo = s.trailLo[:len(s.trailLo)-1]
	}
	if s.propHead > len(s.trail) {
		s.propHead = len(s.trail)
	}
}

func (s *Solver) pickBranchVar() int {
	best, bestAct := 0, -1.0
	for v := 1; v <= s.nVars; v++ {
		if s.assign[v] == unassigned && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	return best
}

// luby returns the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// Solve runs the CDCL search. On Sat, Model reports the assignment.
func (s *Solver) Solve() Result {
	if s.unsatNow {
		return Unsat
	}
	if confl := s.propagate(); confl != nil {
		return Unsat
	}
	var restartIdx int64 = 1
	conflictsAtRestart := int64(0)
	restartBudget := luby(restartIdx) * 64

	for {
		confl := s.propagate()
		if confl != nil {
			conflictsAtRestart++
			if len(s.trailLo) == 0 {
				return Unsat
			}
			learnt, back := s.analyze(confl)
			s.cancelUntil(back)
			if len(learnt) == 1 {
				s.enqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt, learnt: true}
				s.clauses = append(s.clauses, c)
				s.watch(c, c.lits[0])
				s.watch(c, c.lits[1])
				s.enqueue(learnt[0], c)
			}
			s.varInc /= 0.95
			continue
		}

		if conflictsAtRestart >= restartBudget {
			restartIdx++
			conflictsAtRestart = 0
			restartBudget = luby(restartIdx) * 64
			s.cancelUntil(0)
			continue
		}

		v := s.pickBranchVar()
		if v == 0 {
			return Sat
		}
		s.trailLo = append(s.trailLo, len(s.trail))
		lit := v
		if s.phase[v] == assignedFalse {
			lit = -v
		}
		s.enqueue(lit, nil)
	}
}

// Model returns the satisfying assignment (index 1..nVars) after a Sat
// result; entry v is the value of variable v.
func (s *Solver) Model() []bool {
	model := make([]bool, s.nVars+1)
	for v := 1; v <= s.nVars; v++ {
		model[v] = s.assign[v] == assignedTrue
	}
	return model
}
