// Command gsbclassify analyzes a symmetric <n,m,l,u>-GSB task: its
// feasibility, kernel set, anchoring, canonical representative,
// communication-free solvability (Theorem 9) and wait-free solvability
// status (Theorems 8-11). With -family it reports the whole <n,m,-,->
// family: Table 1 of the paper (the kernel vectors of every feasible
// task, canonical representatives marked), Figure 1 (the canonical
// representatives and the Hasse diagram of strict inclusion between
// their output-vector sets) and the family's solvability census. -dot
// prints Figure 1 as Graphviz instead, and -gcd prints the Theorem 10
// arithmetic table. The defaults reproduce the paper's n=6, m=3 figures.
//
// Usage:
//
//	gsbclassify -n 6 -m 3 -l 1 -u 4
//	gsbclassify -n 6 -m 3 -family
//	gsbclassify -n 6 -m 3 -dot | dot -Tsvg > figure1.svg
//	gsbclassify -gcd 48
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
)

func main() {
	n := flag.Int("n", 6, "number of processes")
	m := flag.Int("m", 3, "number of output values")
	l := flag.Int("l", 1, "lower bound per value")
	u := flag.Int("u", 4, "upper bound per value")
	family := flag.Bool("family", false, "print Table 1 and Figure 1 for the <n,m,-,-> family, then classify it")
	dot := flag.Bool("dot", false, "print Figure 1 for the <n,m,-,-> family as Graphviz DOT")
	gcd := flag.Int("gcd", 0, "print the Theorem 10 gcd table up to this n")
	flag.Parse()

	if *gcd > 0 {
		fmt.Print(repro.GCDTableText(*gcd))
		return
	}
	if *n < 1 || *m < 1 {
		fmt.Fprintln(os.Stderr, "gsbclassify: need n,m >= 1")
		os.Exit(2)
	}
	if *dot {
		fmt.Print(repro.Figure1DOT(*n, *m))
		return
	}
	if *family {
		fmt.Print(repro.Table1(*n, *m))
		fmt.Println()
		fmt.Print(repro.Figure1Text(*n, *m))
		fmt.Println()
		fmt.Print(repro.SolvabilityText(*n, *m))
		return
	}
	if *l < 0 || *u < *l {
		fmt.Fprintln(os.Stderr, "gsbclassify: need 0 <= l <= u")
		os.Exit(2)
	}
	spec := repro.NewSym(*n, *m, *l, *u)
	fmt.Printf("task: %v\n", spec)
	if !spec.Feasible() {
		fmt.Println("  infeasible (Lemma 1: needs m*l <= n <= m*u)")
		return
	}
	ks := spec.KernelSet()
	parts := make([]string, len(ks))
	for i, k := range ks {
		parts[i] = k.String()
	}
	fmt.Printf("  kernel set: {%s}\n", strings.Join(parts, ","))
	fmt.Printf("  l-anchored: %v, u-anchored: %v\n", spec.LAnchored(), spec.UAnchored())
	fmt.Printf("  canonical representative: %v\n", spec.Canonical())
	if delta, ok := repro.NoCommBuild(spec); ok {
		fmt.Printf("  communication-free: yes, e.g. delta = %v\n", delta)
	} else {
		fmt.Println("  communication-free: no (Theorem 9)")
	}
	report := repro.Classify(spec)
	fmt.Printf("  wait-free status: %v\n", report.Status)
	fmt.Printf("  reason: %s\n", report.Reason)
}
