// Package msgnet provides a synchronous message-passing substrate: n
// processes on the vertices of an undirected graph proceed in lockstep
// rounds, each round sending one message per incident edge and receiving
// the messages of its neighbors. Each round is one sequential pass over
// the active processes in ascending vertex order; the messages sent in a
// round are delivered at the start of the next.
//
// The paper situates GSB tasks against the classic distributed
// symmetry-breaking literature (leader election, renaming); this substrate
// hosts the baseline message-passing symmetry-breaking algorithms of
// package luby (maximal independent set, coloring) that the benchmarks
// compare against.
package msgnet

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Graph is an undirected graph on vertices 0..N-1.
type Graph struct {
	N   int
	adj [][]int
}

// NewGraph creates an empty graph on n vertices.
func NewGraph(n int) *Graph {
	if n < 1 {
		panic("msgnet: need n >= 1")
	}
	return &Graph{N: n, adj: make([][]int, n)}
}

// AddEdge inserts the undirected edge {a, b}. Self-loops and duplicate
// edges panic.
func (g *Graph) AddEdge(a, b int) {
	if a == b {
		panic(fmt.Sprintf("msgnet: self-loop at %d", a))
	}
	if a < 0 || a >= g.N || b < 0 || b >= g.N {
		panic(fmt.Sprintf("msgnet: edge (%d,%d) outside [0..%d)", a, b, g.N))
	}
	for _, x := range g.adj[a] {
		if x == b {
			panic(fmt.Sprintf("msgnet: duplicate edge (%d,%d)", a, b))
		}
	}
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
}

// Neighbors returns the sorted neighbor list of v.
func (g *Graph) Neighbors(v int) []int {
	out := append([]int(nil), g.adj[v]...)
	sort.Ints(out)
	return out
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns the maximum degree of the graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N; v++ {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// Ring returns the n-cycle (or a single edge for n=2, a vertex for n=1).
func Ring(n int) *Graph {
	g := NewGraph(n)
	if n == 2 {
		g.AddEdge(0, 1)
		return g
	}
	for v := 0; n >= 3 && v < n; v++ {
		g.AddEdge(v, (v+1)%n)
	}
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := NewGraph(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			g.AddEdge(a, b)
		}
	}
	return g
}

// GNP returns an Erdos-Renyi random graph: each edge present with
// probability p, decided by the caller-provided coin (seeded upstream).
func GNP(n int, p float64, coin func() float64) *Graph {
	g := NewGraph(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if coin() < p {
				g.AddEdge(a, b)
			}
		}
	}
	return g
}

// Node is the per-process handle available during a round.
type Node struct {
	ID        int   // vertex id (also the process identity here)
	Neighbors []int // sorted neighbor ids, shared across rounds: read-only
	Round     int   // current round number, starting at 0
}

// Proto is a synchronous-rounds protocol: at each round every active
// process computes the messages to send (one per neighbor, keyed by
// neighbor id) from its state and the messages received in the previous
// round (nil in round 0); it returns done=true when it has halted.
// Messages must be treated as immutable after sending. A process may send
// only to its neighbors.
type Proto interface {
	// Step runs one round. recv maps neighbor id to its message from the
	// previous round (only neighbors that sent are present); the map
	// belongs to the substrate and is valid only during the call. It
	// returns the messages to send this round and whether the process
	// halts after sending them.
	Step(node Node, recv map[int]any) (send map[int]any, done bool)
}

// Result reports a protocol execution.
type Result struct {
	Rounds int // rounds executed until all processes halted
}

// Run executes the protocol on the graph until every process has halted
// or maxRounds is reached (returning an error in the latter case). Each
// round steps the active processes one after another in ascending vertex
// order, on the caller's goroutine. With a nil adversary message delivery
// is synchronous and reliable; otherwise every round's sends pass through
// adv's fault queues (adversary.go), and an adv that fails Validate is an
// error. A send to a vertex that is not a neighbor is an error, and a
// panic in a process's Step propagates to the caller.
func Run(g *Graph, protos []Proto, maxRounds int, adv *NetAdversary) (*Result, error) {
	if adv != nil {
		if err := adv.Validate(); err != nil {
			return nil, err
		}
	}
	if len(protos) != g.N {
		return nil, fmt.Errorf("msgnet: %d protocols for %d vertices", len(protos), g.N)
	}
	nbrs := make([][]int, g.N)
	curr := make([]map[int]any, g.N) // curr[to][from]: delivered this round
	next := make([]map[int]any, g.N) // next[to][from]: sent this round
	active := make([]bool, g.N)
	for v := range nbrs {
		nbrs[v] = g.Neighbors(v)
		curr[v], next[v] = map[int]any{}, map[int]any{}
		active[v] = true
	}
	var faults *netFaults
	if adv != nil {
		faults = newNetFaults(nbrs, adv)
	}

	round, live := 0, g.N
	for ; live > 0; round++ {
		if round >= maxRounds {
			return nil, fmt.Errorf("msgnet: process %d still active after %d rounds", slices.Index(active, true), maxRounds)
		}
		for v, on := range active {
			if !on {
				continue
			}
			send, done := protos[v].Step(Node{ID: v, Neighbors: nbrs[v], Round: round}, curr[v])
			sent := 0
			for _, to := range nbrs[v] {
				if msg, ok := send[to]; ok {
					next[to][v] = msg
					sent++
				}
			}
			if sent != len(send) {
				return nil, fmt.Errorf("msgnet: process %d sent to non-neighbor %d", v, nonNeighbor(send, nbrs[v]))
			}
			if done {
				active[v] = false
				live--
			}
		}
		// Rotate mailboxes, routing this round's sends through the
		// adversary's fault queues when one is attached.
		if faults != nil {
			faults.deliver(next, curr)
		} else {
			curr, next = next, curr
		}
		for _, m := range next {
			clear(m)
		}
	}
	return &Result{Rounds: round}, nil
}

// nonNeighbor returns the smallest destination in send that is not in the
// sorted neighbor list nbrs.
func nonNeighbor(send map[int]any, nbrs []int) int {
	bad := math.MaxInt
	for to := range send {
		if _, ok := slices.BinarySearch(nbrs, to); !ok {
			bad = min(bad, to) //gsb:nondeterminism-ok a minimum does not depend on iteration order
		}
	}
	return bad
}
