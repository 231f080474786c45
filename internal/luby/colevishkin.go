package luby

import (
	"fmt"
	"math/bits"

	"repro/internal/msgnet"
)

// This file implements the deterministic Cole-Vishkin 3-coloring of an
// oriented ring: starting from colors equal to the vertex identities, the
// bit trick reduces the color space to [0..5] in O(log* n) rounds, and
// three final recoloring rounds eliminate colors 5, 4 and 3. It is the
// classic deterministic symmetry-breaking baseline; note that it breaks
// symmetry only because identities exist — exactly the paper's premise
// that identity-free symmetry breaking is impossible.

// cvSchedule computes the number of Cole-Vishkin iterations needed to
// bring n initial colors into [0..5] (all vertices know n, so the
// schedule is globally agreed upon).
func cvSchedule(n int) int {
	widthOf := func(colors int) int {
		if colors <= 1 {
			return 1
		}
		return bits.Len(uint(colors - 1))
	}
	rounds := 0
	w := widthOf(n)
	for w > 3 {
		// One iteration maps b-bit colors to colors 2i+bit with
		// i in [0..b-1], so the new width is len(2(b-1)+1).
		w = bits.Len(uint(2*(w-1))) + 0
		if w < 3 {
			w = 3
		}
		rounds++
	}
	// A last iteration inside width 3 maps into 2i+b with i in [0..2],
	// i.e. colors [0..5]; one extra round guarantees we are inside [0..5]
	// even when the width-3 space still uses colors 6 and 7.
	return rounds + 1
}

// cvProto is one ring vertex. Every round it broadcasts its current
// color; the round schedule (known to all from n) is: CV iterations,
// then three recolor rounds removing colors 5, 4, 3, then halt.
type cvProto struct {
	succ  int
	cv    int // number of CV iterations
	color *int
}

func (c *cvProto) Step(node msgnet.Node, recv map[int]any) (map[int]any, bool) {
	round := node.Round
	if round > 0 && round <= c.cv {
		// Apply one Cole-Vishkin step using the successor's color from the
		// previous round.
		succColor, ok := recv[c.succ].(int)
		if !ok {
			panic(fmt.Sprintf("luby: vertex %d missing successor color in round %d", node.ID, round))
		}
		*c.color = cvStep(*c.color, succColor)
	} else if round > c.cv && round <= c.cv+3 {
		// Recolor round k removes color 5, 4, 3 respectively.
		target := 5 - (round - c.cv - 1)
		if *c.color == target {
			used := map[int]bool{}
			for _, raw := range recv {
				used[raw.(int)] = true
			}
			for col := 0; col <= 2; col++ {
				if !used[col] {
					*c.color = col
					break
				}
			}
		}
	}
	if round == c.cv+3 {
		return nil, true
	}
	out := make(map[int]any, len(node.Neighbors))
	for _, nb := range node.Neighbors {
		out[nb] = *c.color
	}
	return out, false
}

// cvStep is the Cole-Vishkin bit trick: find the lowest bit position i at
// which own differs from succ, and return 2i + bit_i(own). Adjacent
// (distinct) colors map to distinct colors.
func cvStep(own, succ int) int {
	if own == succ {
		panic(fmt.Sprintf("luby: Cole-Vishkin invariant broken: equal colors %d", own))
	}
	diff := own ^ succ
	i := bits.TrailingZeros(uint(diff))
	return 2*i + (own>>i)&1
}

// RingThreeColor 3-colors the oriented n-ring deterministically with
// Cole-Vishkin; colors are returned 1-based (1..3) for consistency with
// VerifyColoring. A non-nil adv runs it under that message adversary (see
// run): cvProto panics when a successor color goes missing, which is
// exactly what the synchronizer rules out, so the coloring is the
// fault-free one and only the round count grows.
func RingThreeColor(n, maxRounds int, adv *msgnet.NetAdversary) (*ColoringResult, error) {
	if n == 1 {
		return &ColoringResult{Colors: []int{1}, Rounds: 0}, nil
	}
	g := msgnet.Ring(n)
	colors := make([]int, n)
	protos := make([]msgnet.Proto, n)
	cv := cvSchedule(n)
	for v := 0; v < n; v++ {
		colors[v] = v // initial color = identity
		protos[v] = &cvProto{succ: (v + 1) % n, cv: cv, color: &colors[v]}
	}
	res, err := run(g, protos, maxRounds, adv)
	if err != nil {
		return nil, err
	}
	out := make([]int, n)
	for v := range colors {
		if colors[v] < 0 || colors[v] > 2 {
			return nil, fmt.Errorf("luby: vertex %d finished with color %d outside [0..2]", v, colors[v])
		}
		out[v] = colors[v] + 1
	}
	return &ColoringResult{Colors: out, Rounds: res.Rounds}, nil
}
