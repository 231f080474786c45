package topology

import (
	"sort"
	"strconv"
	"strings"
)

// This file checks the structural properties of the protocol complex that
// the proof of Theorem 11 relies on: the complex of immediate-snapshot
// executions is a pseudomanifold (every ridge belongs to one or two
// facets) and is strongly connected (any two facets are linked by a chain
// of facets sharing ridges).

// ridgeKey identifies an (n-2)-dimensional face: a facet with one vertex
// removed.
func ridgeKey(facet []int, omit int) string {
	ids := make([]int, 0, len(facet)-1)
	for i, v := range facet {
		if i != omit {
			ids = append(ids, v)
		}
	}
	sort.Ints(ids)
	var b strings.Builder
	for i, v := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// IsPseudomanifold reports whether every ridge of the complex belongs to
// at most two facets (with boundary ridges belonging to exactly one).
func (c *Complex) IsPseudomanifold() bool {
	count := map[string]int{}
	for _, facet := range c.Facets {
		for omit := range facet {
			count[ridgeKey(facet, omit)]++
		}
	}
	for _, k := range count {
		if k > 2 {
			return false
		}
	}
	return true
}

// BoundaryRidges returns the number of ridges contained in exactly one
// facet (the boundary of the subdivided simplex).
func (c *Complex) BoundaryRidges() int {
	count := map[string]int{}
	for _, facet := range c.Facets {
		for omit := range facet {
			count[ridgeKey(facet, omit)]++
		}
	}
	boundary := 0
	for _, k := range count {
		if k == 1 {
			boundary++
		}
	}
	return boundary
}

// IsStronglyConnected reports whether the facet adjacency graph (facets
// sharing a ridge) is connected — the connectivity property used in the
// Theorem 11 argument to propagate solo decisions.
func (c *Complex) IsStronglyConnected() bool {
	if len(c.Facets) <= 1 {
		return true
	}
	byRidge := map[string][]int{}
	for f, facet := range c.Facets {
		for omit := range facet {
			key := ridgeKey(facet, omit)
			byRidge[key] = append(byRidge[key], f)
		}
	}
	adj := make([][]int, len(c.Facets))
	for _, fs := range byRidge {
		for i := 0; i < len(fs); i++ {
			for j := i + 1; j < len(fs); j++ {
				adj[fs[i]] = append(adj[fs[i]], fs[j])
				adj[fs[j]] = append(adj[fs[j]], fs[i])
			}
		}
	}
	seen := make([]bool, len(c.Facets))
	stack := []int{0}
	seen[0] = true
	visited := 1
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, g := range adj[f] {
			if !seen[g] {
				seen[g] = true
				visited++
				stack = append(stack, g)
			}
		}
	}
	return visited == len(c.Facets)
}
