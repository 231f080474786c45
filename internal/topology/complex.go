// Package topology provides the combinatorial-topology machinery behind
// Theorem 11 (election is not wait-free solvable): it builds the protocol
// complex of r rounds of iterated immediate snapshots (the r-iterated
// standard chromatic subdivision), groups vertices into the equivalence
// classes that any comparison-based, index-independent algorithm must
// respect, and searches exhaustively for a decision map that solves a
// given GSB task on every complete execution.
//
// When the search fails, the complex is a machine-checked certificate
// that no r-round full-information comparison-based protocol solves the
// task. Wait-free read/write solvability equals solvability in *some*
// finite number of IIS rounds, so these are bounded-round impossibility
// certificates (documented as such in README.md, "Paper versus
// measured"); when the search succeeds, the returned map is a concrete
// protocol, and the tests replay it against the executable iis package.
package topology

import (
	"fmt"
	"sort"
	"strings"
)

// OSP is an ordered set partition of the process identities {0..n-1}: the
// sequence of concurrency blocks of one immediate-snapshot round.
type OSP [][]int

// OSPs enumerates all ordered set partitions of {0..n-1} in a
// deterministic order. Their count is the ordered Bell number (1, 3, 13,
// 75, 541, ... for n = 1..5).
func OSPs(n int) []OSP {
	elems := make([]int, n)
	for i := range elems {
		elems[i] = i
	}
	return ospsOf(elems)
}

func ospsOf(elems []int) []OSP {
	if len(elems) == 0 {
		return []OSP{{}}
	}
	var out []OSP
	// Choose a nonempty subset of elems as the first block (encoded by a
	// bitmask), then recurse on the remainder.
	total := 1 << len(elems)
	for mask := 1; mask < total; mask++ {
		var block, rest []int
		for i, e := range elems {
			if mask&(1<<i) != 0 {
				block = append(block, e)
			} else {
				rest = append(rest, e)
			}
		}
		for _, tail := range ospsOf(rest) {
			osp := make(OSP, 0, 1+len(tail))
			osp = append(osp, block)
			osp = append(osp, tail...)
			out = append(out, osp)
		}
	}
	return out
}

// state is a full-information local state: either the initial identity or
// the view of one immediate-snapshot round (pairs of identity and that
// identity's previous state, ordered by identity).
type state struct {
	base  bool
	id    int
	pairs []statePair
}

type statePair struct {
	id int
	st *state
}

// support accumulates every identity mentioned anywhere in the state.
func (s *state) support(into map[int]bool) {
	if s.base {
		into[s.id] = true
		return
	}
	for _, p := range s.pairs {
		into[p.id] = true
		p.st.support(into)
	}
}

// render serializes the state with identities mapped through rank (the
// canonical, comparison-based encoding) or verbatim when rank is nil.
func (s *state) render(b *strings.Builder, rank map[int]int) {
	mapped := func(id int) int {
		if rank == nil {
			return id
		}
		return rank[id]
	}
	if s.base {
		fmt.Fprintf(b, "p%d", mapped(s.id))
		return
	}
	b.WriteByte('{')
	for i, p := range s.pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%d:", mapped(p.id))
		p.st.render(b, rank)
	}
	b.WriteByte('}')
}

// Vertex is a process-local final state in some execution.
type Vertex struct {
	ID    int // the process identity at this vertex
	Class int // canonical comparison-based class (see Complex.Classes)
	key   string
}

// Complex is the r-round IIS protocol complex for n processes.
type Complex struct {
	N      int
	Rounds int

	// Facets lists, per complete execution, the vertex index of each
	// process (position i = identity i).
	Facets [][]int

	// Vertices are the distinct (identity, final state) pairs.
	Vertices []Vertex

	// Classes is the number of canonical comparison-based classes; the
	// Class field of every vertex is in [0..Classes).
	Classes int

	classKeys []string
}

// BuildIIS constructs the complex of all executions of `rounds` iterated
// immediate snapshot rounds with full participation of n processes.
// rounds = 0 yields the input complex (a single facet whose vertices are
// the initial states).
func BuildIIS(n, rounds int) *Complex {
	if n < 1 {
		panic("topology: need n >= 1")
	}
	if rounds < 0 {
		panic("topology: need rounds >= 0")
	}
	osps := OSPs(n)
	c := &Complex{N: n, Rounds: rounds}
	vertexIndex := map[string]int{}
	classIndex := map[string]int{}

	// Iterate over all r-tuples of OSPs.
	counters := make([]int, rounds)
	for {
		states := initialStates(n)
		for _, ci := range counters {
			states = applyRound(states, osps[ci])
		}
		facet := make([]int, n)
		for i := 0; i < n; i++ {
			vkey := concreteKey(i, states[i])
			idx, ok := vertexIndex[vkey]
			if !ok {
				ckey := canonicalKey(i, states[i])
				cls, ok := classIndex[ckey]
				if !ok {
					cls = len(classIndex)
					classIndex[ckey] = cls
					c.classKeys = append(c.classKeys, ckey)
				}
				idx = len(c.Vertices)
				vertexIndex[vkey] = idx
				c.Vertices = append(c.Vertices, Vertex{ID: i, Class: cls, key: vkey})
			}
			facet[i] = idx
		}
		c.Facets = append(c.Facets, facet)

		// Advance the tuple counter.
		k := rounds - 1
		for ; k >= 0; k-- {
			counters[k]++
			if counters[k] < len(osps) {
				break
			}
			counters[k] = 0
		}
		if k < 0 {
			break
		}
	}
	c.Classes = len(classIndex)
	return c
}

func initialStates(n int) []*state {
	states := make([]*state, n)
	for i := range states {
		states[i] = &state{base: true, id: i}
	}
	return states
}

// applyRound computes each process's view of one immediate-snapshot round
// given the ordered set partition of the round.
func applyRound(prev []*state, osp OSP) []*state {
	n := len(prev)
	next := make([]*state, n)
	var prefix []int
	for _, block := range osp {
		prefix = append(prefix, block...)
		sorted := append([]int(nil), prefix...)
		sort.Ints(sorted)
		view := &state{pairs: make([]statePair, len(sorted))}
		for k, id := range sorted {
			view.pairs[k] = statePair{id: id, st: prev[id]}
		}
		for _, id := range block {
			next[id] = view
		}
	}
	return next
}

// concreteKey identifies a vertex within the fixed-input complex.
func concreteKey(id int, st *state) string {
	var b strings.Builder
	fmt.Fprintf(&b, "me%d|", id)
	st.render(&b, nil)
	return b.String()
}

// canonicalKey is the comparison-based equivalence class of a vertex: all
// identities appearing in the view are replaced by their rank within the
// view's support, and the process's own identity by its rank. Two vertices
// with equal canonical keys have order-isomorphic full-information views,
// so any comparison-based, index-independent algorithm (with identities
// from [1..2n-1]; Theorems 1 and 2) decides the same value at both.
func canonicalKey(id int, st *state) string {
	support := map[int]bool{}
	st.support(support)
	ids := make([]int, 0, len(support))
	for v := range support {
		ids = append(ids, v)
	}
	sort.Ints(ids)
	rank := make(map[int]int, len(ids))
	for r, v := range ids {
		rank[v] = r
	}
	var b strings.Builder
	fmt.Fprintf(&b, "me%d|", rank[id])
	st.render(&b, rank)
	return b.String()
}

// ClassOfSolo returns the class index of the solo view (a process that ran
// entirely alone each round). It panics if rounds = 0 complexes have no
// such notion distinct from the single facet.
func (c *Complex) ClassOfSolo() int {
	// The solo execution of process 0: every round's OSP begins with the
	// block {0}; its vertex appears in some facet. Find the vertex whose
	// class key mentions only rank 0.
	for _, v := range c.Vertices {
		if v.ID == 0 {
			// Solo keys contain no identity other than p0's rank 0.
			if soloKey(c.Rounds) == c.classKeys[v.Class] {
				return v.Class
			}
		}
	}
	panic("topology: solo class not found")
}

func soloKey(rounds int) string {
	inner := "p0"
	for k := 0; k < rounds; k++ {
		inner = "{0:" + inner + "}"
	}
	return "me0|" + inner
}

// HasVertexKey reports whether some vertex of the complex has the given
// concrete key (as produced by ReconstructKey); used to cross-validate
// the combinatorial complex against the executable iis package.
func (c *Complex) HasVertexKey(key string) bool {
	for _, v := range c.Vertices {
		if v.key == key {
			return true
		}
	}
	return false
}

// HasFacetKeys reports whether some facet's vertex keys are exactly the
// given keys (position i = process i).
func (c *Complex) HasFacetKeys(keys []string) bool {
	if len(keys) != c.N {
		return false
	}
	for _, facet := range c.Facets {
		match := true
		for i, v := range facet {
			if c.Vertices[v].key != keys[i] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// VertexKey returns the concrete key of vertex v (for diagnostics).
func (c *Complex) VertexKey(v int) string { return c.Vertices[v].key }

// ClassKey returns the canonical key of a class (for diagnostics).
func (c *Complex) ClassKey(cls int) string { return c.classKeys[cls] }

// ReconstructKey rebuilds the concrete vertex key of process `me` after
// `rounds` IIS rounds from observed participation sets: present(i, k)
// reports which processes appear in process i's round-k view (k in
// [0..rounds)). It mirrors the full-information state construction used
// by BuildIIS, so keys from real executions of the iis package can be
// matched against the combinatorial complex.
func ReconstructKey(me, n, rounds int, present func(proc, round int) []bool) string {
	var build func(proc, round int) *state
	build = func(proc, round int) *state {
		if round == 0 {
			return &state{base: true, id: proc}
		}
		mask := present(proc, round-1)
		view := &state{}
		for j := 0; j < n; j++ {
			if mask[j] {
				view.pairs = append(view.pairs, statePair{id: j, st: build(j, round-1)})
			}
		}
		return view
	}
	return concreteKey(me, build(me, rounds))
}
