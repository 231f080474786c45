// Package luby implements the classic randomized and deterministic
// message-passing symmetry-breaking baselines the paper's related work
// points to: Luby-style maximal independent set, randomized
// (Delta+1)-coloring, and deterministic Cole-Vishkin ring 3-coloring.
// They run on the synchronous rounds substrate of package msgnet and are
// compared against the shared-memory GSB protocols in the benchmarks.
package luby

import (
	"fmt"
	"math/rand"

	"repro/internal/msgnet"
	"repro/internal/runrand"
)

// syncGrace is the synchronizer linger period of a run under a message
// adversary: enough settle rounds that final acknowledgments survive
// moderate loss rates.
const syncGrace = 12

// run executes the baseline's protocols on g. The protocols are written
// for the reliable lockstep substrate, so under a non-nil adv they are
// wrapped with msgnet.Synchronize, which repairs loss by retransmission
// and absorbs delay and reordering. Executions stay deterministic per
// (seed, adversary) pair; maxRounds must be scaled up versus the
// fault-free runs because each simulated round costs at least one real
// exchange.
func run(g *msgnet.Graph, protos []msgnet.Proto, maxRounds int, adv *msgnet.NetAdversary) (*msgnet.Result, error) {
	if adv != nil {
		protos = msgnet.Synchronize(protos, syncGrace)
	}
	return msgnet.Run(g, protos, maxRounds, adv)
}

type misMsgKind int

const (
	misRand misMsgKind = iota
	misJoined
)

type misMsg struct {
	kind misMsgKind
	val  float64
	id   int
}

// misProto is one vertex of Luby's MIS algorithm. Even rounds: process
// neighbor decisions and broadcast a fresh random value; odd rounds: join
// the MIS when the own value is a strict local minimum (ties broken by
// id), announce, and halt. A vertex halts "out" when a neighbor joined.
type misProto struct {
	rng    *rand.Rand
	myRand float64
	inMIS  *bool
}

func (m *misProto) Step(node msgnet.Node, recv map[int]any) (map[int]any, bool) {
	if node.Round%2 == 0 {
		for _, raw := range recv {
			msg := raw.(misMsg)
			if msg.kind == misJoined {
				*m.inMIS = false
				return nil, true // a neighbor joined: halt out
			}
		}
		m.myRand = m.rng.Float64()
		out := make(map[int]any, len(node.Neighbors))
		for _, nb := range node.Neighbors {
			out[nb] = misMsg{kind: misRand, val: m.myRand, id: node.ID}
		}
		return out, false
	}
	// Odd round: compare with the random values of still-undecided
	// neighbors (only they sent).
	local := true
	for _, raw := range recv {
		msg := raw.(misMsg)
		if msg.kind != misRand {
			continue
		}
		if msg.val < m.myRand || (msg.val == m.myRand && msg.id < node.ID) {
			local = false //gsb:nondeterminism-ok an AND over the neighbors' values does not depend on iteration order
			break
		}
	}
	if !local {
		return nil, false
	}
	*m.inMIS = true
	out := make(map[int]any, len(node.Neighbors))
	for _, nb := range node.Neighbors {
		out[nb] = misMsg{kind: misJoined, id: node.ID}
	}
	return out, true
}

// MISResult reports a maximal-independent-set execution.
type MISResult struct {
	InMIS  []bool
	Rounds int
}

// MIS runs Luby's algorithm on g with a seeded generator and returns the
// computed set. maxRounds bounds the execution (the algorithm terminates
// in O(log n) phases with high probability). A non-nil adv runs it under
// that message adversary (see run): the set satisfies VerifyMIS exactly as
// in the fault-free execution, since faults cost rounds, not correctness.
func MIS(g *msgnet.Graph, seed int64, maxRounds int, adv *msgnet.NetAdversary) (*MISResult, error) {
	inMIS := make([]bool, g.N)
	protos := make([]msgnet.Proto, g.N)
	base := runrand.New(seed)
	for v := 0; v < g.N; v++ {
		protos[v] = &misProto{
			rng:   runrand.New(base.Int63()),
			inMIS: &inMIS[v],
		}
	}
	res, err := run(g, protos, maxRounds, adv)
	if err != nil {
		return nil, err
	}
	return &MISResult{InMIS: inMIS, Rounds: res.Rounds}, nil
}

// VerifyMIS checks independence and maximality.
func VerifyMIS(g *msgnet.Graph, inMIS []bool) error {
	if len(inMIS) != g.N {
		return fmt.Errorf("luby: result has %d entries for %d vertices", len(inMIS), g.N)
	}
	for v := 0; v < g.N; v++ {
		covered := inMIS[v]
		for _, nb := range g.Neighbors(v) {
			if inMIS[v] && inMIS[nb] {
				return fmt.Errorf("luby: adjacent vertices %d and %d both in MIS", v, nb)
			}
			covered = covered || inMIS[nb]
		}
		if !covered {
			return fmt.Errorf("luby: vertex %d neither in MIS nor dominated (not maximal)", v)
		}
	}
	return nil
}

type colorMsgKind int

const (
	colorCandidate colorMsgKind = iota
	colorFixed
)

type colorMsg struct {
	kind  colorMsgKind
	color int
	id    int
}

// colorProto is one vertex of the randomized (Delta+1)-coloring baseline:
// undecided vertices repeatedly propose a random color from their
// remaining palette; a proposal is kept unless a smaller-id neighbor
// proposed the same color this phase. Fixed vertices announce and halt.
type colorProto struct {
	rng       *rand.Rand
	palette   int
	taken     map[int]bool
	candidate int
	color     *int
}

func (c *colorProto) Step(node msgnet.Node, recv map[int]any) (map[int]any, bool) {
	if node.Round%2 == 0 {
		for _, raw := range recv {
			msg := raw.(colorMsg)
			if msg.kind == colorFixed {
				c.taken[msg.color] = true
			}
		}
		free := make([]int, 0, c.palette)
		for col := 1; col <= c.palette; col++ {
			if !c.taken[col] {
				free = append(free, col)
			}
		}
		if len(free) == 0 {
			panic(fmt.Sprintf("luby: vertex %d ran out of palette; Delta+1 colors must suffice", node.ID))
		}
		c.candidate = free[c.rng.Intn(len(free))]
		out := make(map[int]any, len(node.Neighbors))
		for _, nb := range node.Neighbors {
			out[nb] = colorMsg{kind: colorCandidate, color: c.candidate, id: node.ID}
		}
		return out, false
	}
	keep := true
	for _, raw := range recv {
		msg := raw.(colorMsg)
		if msg.kind == colorCandidate && msg.color == c.candidate && msg.id < node.ID {
			keep = false //gsb:nondeterminism-ok an AND over the neighbors' proposals does not depend on iteration order
			break
		}
	}
	if !keep {
		return nil, false
	}
	*c.color = c.candidate
	out := make(map[int]any, len(node.Neighbors))
	for _, nb := range node.Neighbors {
		out[nb] = colorMsg{kind: colorFixed, color: c.candidate, id: node.ID}
	}
	return out, true
}

// ColoringResult reports a graph-coloring execution.
type ColoringResult struct {
	Colors []int // 1-based colors
	Rounds int
}

// Coloring runs the randomized (Delta+1)-coloring baseline, under adv
// when it is non-nil (see run).
func Coloring(g *msgnet.Graph, seed int64, maxRounds int, adv *msgnet.NetAdversary) (*ColoringResult, error) {
	colors := make([]int, g.N)
	protos := make([]msgnet.Proto, g.N)
	base := runrand.New(seed)
	palette := g.MaxDegree() + 1
	for v := 0; v < g.N; v++ {
		protos[v] = &colorProto{
			rng:     runrand.New(base.Int63()),
			palette: palette,
			taken:   map[int]bool{},
			color:   &colors[v],
		}
	}
	res, err := run(g, protos, maxRounds, adv)
	if err != nil {
		return nil, err
	}
	return &ColoringResult{Colors: colors, Rounds: res.Rounds}, nil
}

// VerifyColoring checks properness and the palette bound (maxColors = 0
// skips the bound check). Colors are 1-based; 0 means uncolored.
func VerifyColoring(g *msgnet.Graph, colors []int, maxColors int) error {
	if len(colors) != g.N {
		return fmt.Errorf("luby: %d colors for %d vertices", len(colors), g.N)
	}
	for v := 0; v < g.N; v++ {
		if colors[v] < 1 {
			return fmt.Errorf("luby: vertex %d uncolored", v)
		}
		if maxColors > 0 && colors[v] > maxColors {
			return fmt.Errorf("luby: vertex %d has color %d > %d", v, colors[v], maxColors)
		}
		for _, nb := range g.Neighbors(v) {
			if colors[v] == colors[nb] {
				return fmt.Errorf("luby: edge (%d,%d) monochromatic (color %d)", v, nb, colors[v])
			}
		}
	}
	return nil
}
