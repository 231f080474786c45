// Luby MIS: the classic message-passing symmetry-breaking baselines the
// paper's related-work section points to, running on the synchronous
// rounds substrate: Luby's randomized maximal independent set, randomized
// (Delta+1)-coloring, and deterministic Cole-Vishkin ring 3-coloring
// (O(log* n) rounds). Contrast: these break symmetry with randomness or
// identities in a failure-free synchronous network, while GSB tasks break
// symmetry deterministically against asynchrony and crashes.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	// Luby MIS on a random graph.
	rng := rand.New(rand.NewSource(11))
	g := repro.GNP(40, 0.15, rng.Float64)
	res, err := repro.LubyMIS(g, 11, 100000, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := repro.VerifyMIS(g, res.InMIS); err != nil {
		log.Fatal(err)
	}
	size := 0
	for _, in := range res.InMIS {
		if in {
			size++
		}
	}
	fmt.Printf("Luby MIS on G(40, 0.15): |MIS| = %d, rounds = %d\n", size, res.Rounds)

	// Randomized (Delta+1)-coloring on the same graph.
	col, err := repro.LubyColoring(g, 13, 100000, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := repro.VerifyColoring(g, col.Colors, g.MaxDegree()+1); err != nil {
		log.Fatal(err)
	}
	used := map[int]bool{}
	for _, c := range col.Colors {
		used[c] = true
	}
	fmt.Printf("(Delta+1)-coloring: Delta = %d, colors used = %d, rounds = %d\n",
		g.MaxDegree(), len(used), col.Rounds)

	// Deterministic Cole-Vishkin 3-coloring of large rings: round counts
	// grow like log* n.
	fmt.Println("Cole-Vishkin ring 3-coloring (deterministic):")
	for _, n := range []int{8, 64, 4096, 1 << 20} {
		res, err := repro.RingThreeColor(n, 1000, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  n = %8d: %d rounds\n", n, res.Rounds)
	}
}
