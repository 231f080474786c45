package luby

import (
	"fmt"

	"repro/internal/msgnet"
	"repro/internal/runrand"
)

// This file runs the symmetry-breaking baselines under the message
// adversary (msgnet.NetAdversary): the protocols themselves are written
// for the reliable lockstep substrate, so they are wrapped with
// msgnet.Synchronize, which repairs loss by retransmission and absorbs
// delay and reordering. Executions stay deterministic per (seed,
// adversary) pair; maxRounds must be scaled up versus the fault-free
// runs because each simulated round costs at least one real exchange.

// syncGrace is the synchronizer linger period used by the *Under
// variants: enough settle rounds that final acknowledgments survive
// moderate loss rates.
const syncGrace = 12

// MISUnder runs Luby's MIS under a message adversary (nil behaves like
// MIS). The returned set satisfies VerifyMIS exactly as in the
// fault-free execution — faults cost rounds, not correctness.
func MISUnder(g *msgnet.Graph, seed int64, maxRounds int, adv *msgnet.NetAdversary) (*MISResult, error) {
	if adv == nil {
		return MIS(g, seed, maxRounds)
	}
	inMIS := make([]bool, g.N)
	protos := make([]msgnet.Proto, g.N)
	base := runrand.New(seed)
	for v := 0; v < g.N; v++ {
		protos[v] = &misProto{
			rng:   runrand.New(base.Int63()),
			inMIS: &inMIS[v],
		}
	}
	res, err := msgnet.RunAdversarial(g, msgnet.Synchronize(protos, syncGrace), maxRounds, adv)
	if err != nil {
		return nil, err
	}
	return &MISResult{InMIS: inMIS, Rounds: res.Rounds}, nil
}

// ColoringUnder runs the randomized (Delta+1)-coloring baseline under a
// message adversary (nil behaves like Coloring).
func ColoringUnder(g *msgnet.Graph, seed int64, maxRounds int, adv *msgnet.NetAdversary) (*ColoringResult, error) {
	if adv == nil {
		return Coloring(g, seed, maxRounds)
	}
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
	res, err := msgnet.RunAdversarial(g, msgnet.Synchronize(protos, syncGrace), maxRounds, adv)
	if err != nil {
		return nil, err
	}
	return &ColoringResult{Colors: colors, Rounds: res.Rounds}, nil
}

// RingThreeColorUnder runs Cole-Vishkin ring 3-coloring under a message
// adversary (nil behaves like RingThreeColor). cvProto panics when a
// successor color goes missing, which is exactly what the synchronizer
// wrapper rules out: the deterministic baseline survives loss, delay and
// reordering unchanged.
func RingThreeColorUnder(n, maxRounds int, adv *msgnet.NetAdversary) (*ColoringResult, error) {
	if adv == nil {
		return RingThreeColor(n, maxRounds)
	}
	if n == 1 {
		return &ColoringResult{Colors: []int{1}, Rounds: 0}, nil
	}
	g := msgnet.Ring(n)
	colors := make([]int, n)
	protos := make([]msgnet.Proto, n)
	cv := cvSchedule(n)
	for v := 0; v < n; v++ {
		colors[v] = v
		protos[v] = &cvProto{succ: (v + 1) % n, cv: cv, color: &colors[v]}
	}
	res, err := msgnet.RunAdversarial(g, msgnet.Synchronize(protos, syncGrace), maxRounds, adv)
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
