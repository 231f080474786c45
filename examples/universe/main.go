// Universe: a guided tour of the GSB task universe. For a sweep of
// (n, m) families it reports how many tasks are distinct, which are
// trivial / wait-free solvable / provably unsolvable / open, and backs
// the "provably unsolvable" entries at small sizes with bounded-round
// impossibility certificates computed on the spot (IIS protocol complex +
// CDCL decision-map search).
package main

import (
	"fmt"

	"repro"
)

func main() {
	fmt.Println("The universe of <n,m,-,-> GSB task families")
	fmt.Println()
	fmt.Println("   n  m  feasible  distinct  trivial  solvable  unsolvable  unknown")
	for n := 3; n <= 10; n++ {
		for m := 2; m <= 4; m++ {
			if m > n {
				continue
			}
			family := repro.Family(n, m)
			distinct := len(repro.SynonymClasses(family))
			var trivial, solvable, unsolvable, unknown int
			for _, r := range repro.FamilyReport(n, m) {
				switch r.Status {
				case repro.StatusTrivial:
					trivial++
				case repro.StatusSolvable:
					solvable++
				case repro.StatusNotSolvable:
					unsolvable++
				default:
					unknown++
				}
			}
			fmt.Printf("  %2d %2d  %8d  %8d  %7d  %8d  %10d  %7d\n",
				n, m, len(family), distinct, trivial, solvable, unsolvable, unknown)
		}
	}

	fmt.Println()
	fmt.Println("Landmarks (Section 5):")
	for _, spec := range []repro.Spec{
		repro.Renaming(6, 11),    // trivial
		repro.Renaming(6, 10),    // solvable: gcd prime
		repro.WSB(6),             // solvable
		repro.WSB(8),             // unsolvable: prime power
		repro.PerfectRenaming(6), // universal, unsolvable
		repro.KSlot(8, 3),        // unsolvable via Theorem 10
	} {
		r := repro.Classify(spec)
		fmt.Printf("  %-16s %-26s %s\n", r.Spec, r.Status, r.Reason)
	}

	fmt.Println()
	fmt.Println("Fresh bounded-round impossibility certificates (computed now):")
	for _, c := range []struct {
		label  string
		spec   repro.Spec
		rounds int
	}{
		{"election, n=3", repro.Election(3), 2},
		{"WSB, n=3", repro.WSB(3), 2},
		{"perfect renaming, n=3", repro.PerfectRenaming(3), 2},
		{"election, n=5", repro.Election(5), 1},
	} {
		ok := true
		for r := 0; r <= c.rounds; r++ {
			if repro.BoundedRoundsCheck(c.spec, r) {
				ok = false
			}
		}
		verdict := "no comparison-based protocol exists"
		if !ok {
			verdict = "UNEXPECTED: a protocol exists"
		}
		fmt.Printf("  %-22s rounds 0..%d: %s\n", c.label, c.rounds, verdict)
	}
}
