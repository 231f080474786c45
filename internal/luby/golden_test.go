package luby

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/msgnet"
	"repro/internal/stats"
)

// resultsGolden is the FNV-64a hash of every baseline output in
// TestResultsGolden. The msgnet round engine may change how it runs a
// round, never what a round computes: a new engine must reproduce this
// value bit for bit.
const resultsGolden = "56c385ebdc3148f6"

// TestResultsGolden hashes rounds, colors, MIS membership, errors and
// adversary event counts of Cole-Vishkin on rings of 2, 3, 17, 64 and 257
// vertices (fault-free and under 4 adversary seeds), and of MIS and
// Coloring, fault-free and under an adversary, on GNP graphs of 8, 32 and
// 96 vertices under 4 seeds each.
func TestResultsGolden(t *testing.T) {
	h := fnv.New64a()
	out := func(label string, rounds int, values any, err error) {
		fmt.Fprintf(h, "%s rounds=%d values=%v err=%v\n", label, rounds, values, err)
	}
	underStats := func(seed int64) (*msgnet.NetAdversary, func() int64) {
		adv := testAdv(seed)
		reg := stats.New()
		adv.Stats = reg
		return adv, func() int64 { return reg.Snapshot().Counter(msgnet.MetricAdversaryEvents) }
	}

	for _, n := range []int{2, 3, 17, 64, 257} {
		res, err := RingThreeColor(n, 1000, nil)
		writeColoring(out, fmt.Sprintf("cv n=%d", n), res, err)
		for seed := int64(1); seed <= 4; seed++ {
			adv, events := underStats(seed)
			res, err := RingThreeColor(n, 20000, adv)
			writeColoring(out, fmt.Sprintf("cv-under n=%d seed=%d", n, seed), res, err)
			fmt.Fprintf(h, "events=%d\n", events())
		}
	}

	for _, n := range []int{8, 32, 96} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := msgnet.GNP(n, 0.2, rng.Float64)
			label := fmt.Sprintf("n=%d seed=%d", n, seed)

			mis, err := MIS(g, seed, 10000, nil)
			writeMIS(out, "mis "+label, mis, err)
			col, err := Coloring(g, seed, 10000, nil)
			writeColoring(out, "coloring "+label, col, err)

			adv, events := underStats(seed)
			mis, err = MIS(g, seed, 20000, adv)
			writeMIS(out, "mis-under "+label, mis, err)
			fmt.Fprintf(h, "events=%d\n", events())

			adv, events = underStats(seed)
			col, err = Coloring(g, seed, 20000, adv)
			writeColoring(out, "coloring-under "+label, col, err)
			fmt.Fprintf(h, "events=%d\n", events())
		}
	}

	if got := fmt.Sprintf("%016x", h.Sum64()); got != resultsGolden {
		t.Fatalf("baseline results hash = %s, want %s", got, resultsGolden)
	}
}

type goldenWriter func(label string, rounds int, values any, err error)

func writeColoring(out goldenWriter, label string, res *ColoringResult, err error) {
	if err != nil {
		out(label, 0, nil, err)
		return
	}
	out(label, res.Rounds, res.Colors, nil)
}

func writeMIS(out goldenWriter, label string, res *MISResult, err error) {
	if err != nil {
		out(label, 0, nil, err)
		return
	}
	out(label, res.Rounds, res.InMIS, nil)
}
