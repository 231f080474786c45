// Command gsbexperiments runs the full reproduction suite — every table,
// figure and theorem validation (README.md, "Paper versus measured",
// lists where they depart from the paper) — and prints a consolidated
// report. It is the one-shot regeneration entry point:
//
//	go run ./cmd/gsbexperiments            # quick profile
//	go run ./cmd/gsbexperiments -full      # larger sweeps (slower)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
)

func main() {
	full := flag.Bool("full", false, "run the larger, slower sweeps")
	workers := flag.Int("workers", 0, "exploration worker goroutines (0 = GOMAXPROCS)")
	por := flag.Bool("por", false, "partial-order reduction for the exhaustive exploration experiment (one schedule per commuting-step class)")
	model := flag.String("model", "", "restrict the model-matrix experiment to one memory model (empty = all registered; see docs/models.md)")
	adversary := flag.String("adversary", "", "restrict the model-matrix experiment to one crash adversary (empty = all registered)")
	flag.Parse()

	if _, err := repro.MemModelByName(*model); err != nil {
		fmt.Fprintf(os.Stderr, "gsbexperiments: %v\n", err)
		os.Exit(2)
	}
	if _, err := repro.AdversaryByName(*adversary); err != nil {
		fmt.Fprintf(os.Stderr, "gsbexperiments: %v\n", err)
		os.Exit(2)
	}
	var matrixModels, matrixAdvs []string
	if *model != "" {
		matrixModels = []string{*model}
	}
	if *adversary != "" {
		matrixAdvs = []string{*adversary}
	}

	fmt.Println("== Table 1: kernels of the <6,3,-,-> family ==")
	fmt.Print(repro.Table1(6, 3))

	fmt.Println("\n== Figure 1: canonical tasks and strict inclusion ==")
	fmt.Print(repro.Figure1Text(6, 3))

	fmt.Println("\n== Figure 2 / Theorem 12: (n+1)-renaming from the (n-1)-slot task ==")
	ns := []int{3, 5, 8}
	runs := 200
	if *full {
		ns = []int{3, 4, 5, 6, 8, 10, 12}
		runs = 1000
	}
	rows, err := repro.Figure2Experiment(ns, runs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbexperiments: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(repro.Figure2Text(rows))

	fmt.Println("\n== Exhaustive exploration: Figure 2 under every failure-free schedule ==")
	exploreNs := []int{2, 3}
	crashRuns := 200
	if *full {
		crashRuns = 2000
	}
	reduction := repro.ReductionNone
	if *por {
		reduction = repro.ReductionSleepSets
		exploreNs = append(exploreNs, 4) // reachable only with reduction
	}
	exploreRows, err := repro.ExploreExperiment(exploreNs, *workers, crashRuns, reduction)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbexperiments: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(repro.ExploreText(exploreRows))

	fmt.Println("\n== Statistical sampling: Figure 2 beyond the exhaustive/POR ceiling ==")
	// Slot renaming at n >= 5 is out of reach for every enumerating mode
	// (the n=5 tree has ~10^12 interleavings and >10^8 trace classes);
	// seeded sampling turns those sizes into measurable rows: all runs
	// verified, with distinct-trace-class coverage per batch.
	sampleNs := []int{5, 8}
	sampleRuns := 300
	if *full {
		sampleNs = []int{5, 6, 7, 8}
		sampleRuns = 2000
	}
	walkRows, err := repro.SampleExperiment(sampleNs, *workers, sampleRuns, repro.SampleWalk, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbexperiments: %v\n", err)
		os.Exit(1)
	}
	pctRows, err := repro.SampleExperiment(sampleNs, *workers, sampleRuns, repro.SamplePCT, 3)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbexperiments: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(repro.SampleText(append(walkRows, pctRows...)))

	fmt.Println("\n== Model matrix: memory models x adversaries as an experimental axis ==")
	matrixSample, matrixCrash := 8000, 60
	if *full {
		matrixSample, matrixCrash = 20000, 200
	}
	matrix, err := repro.ModelMatrixExperiment(*workers, matrixSample, matrixCrash, matrixModels, matrixAdvs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbexperiments: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(repro.ModelMatrixText(matrix))

	fmt.Println("\n== Theorem 8: universality of perfect renaming ==")
	nMax := 6
	if *full {
		nMax = 8
	}
	total, failures := 0, 0
	for n := 2; n <= nMax; n++ {
		for m := 1; m <= n; m++ {
			for _, spec := range repro.Family(n, m) {
				spec := spec
				total++
				_, err := repro.RunVerified(spec, repro.DefaultIDs(n), repro.NewRandomPolicy(int64(total)),
					func(n int) repro.Solver {
						return repro.NewUniversalConstruction(spec, repro.NewTASRenaming("TAS", n))
					})
				if err != nil {
					failures++
					fmt.Printf("  FAIL %v: %v\n", spec, err)
				}
			}
		}
	}
	fmt.Printf("  %d feasible symmetric specs solved from perfect renaming, %d failures\n", total, failures)

	fmt.Println("\n== Theorem 9: communication-free solvability ==")
	agree := 0
	disagree := 0
	for n := 2; n <= 8; n++ {
		for m := 1; m <= 2*n-1; m++ {
			for _, spec := range repro.Family(n, m) {
				if spec.Symmetric() {
					solvable := repro.NoCommSolvable(spec)
					if delta, ok := repro.NoCommBuild(spec); ok != solvable {
						disagree++
					} else if ok {
						if err := repro.NoCommVerify(spec, delta); err != nil {
							disagree++
							continue
						}
						agree++
					} else {
						agree++
					}
				}
			}
		}
	}
	fmt.Printf("  characterization vs constructive solver: %d agree, %d disagree\n", agree, disagree)

	fmt.Println("\n== Theorem 10: binomial gcd classification ==")
	maxN := 16
	if *full {
		maxN = 48
	}
	fmt.Print(repro.GCDTableText(maxN))

	fmt.Println("\n== Theorem 11: bounded-round impossibility certificates ==")
	certs := []struct {
		name   string
		spec   repro.Spec
		rounds int
	}{
		{"election n=2", repro.Election(2), 3},
		{"election n=3", repro.Election(3), 2},
		{"election n=4", repro.Election(4), 1},
		{"perfect renaming n=3", repro.PerfectRenaming(3), 2},
		{"WSB n=3", repro.WSB(3), 2},
		{"WSB n=4", repro.WSB(4), 1},
	}
	for _, c := range certs {
		for r := 0; r <= c.rounds; r++ {
			if repro.BoundedRoundsCheck(c.spec, r) {
				fmt.Printf("  UNEXPECTED: %s solvable at %d rounds\n", c.name, r)
			}
		}
		fmt.Printf("  %-22s: no comparison-based protocol in <= %d IIS rounds\n", c.name, c.rounds)
	}
	fmt.Println("  positive controls:")
	for _, c := range []struct {
		name   string
		spec   repro.Spec
		rounds int
	}{
		{"3-renaming n=2", repro.Renaming(2, 3), 1},
		{"6-renaming n=3", repro.Renaming(3, 6), 1},
	} {
		if !repro.BoundedRoundsCheck(c.spec, c.rounds) {
			fmt.Printf("  UNEXPECTED: %s NOT solvable at %d rounds\n", c.name, c.rounds)
		} else {
			fmt.Printf("  %-22s: decision map found at %d round(s)\n", c.name, c.rounds)
		}
	}

	fmt.Println("\n== Solvability census of the <n,m,-,-> universe ==")
	fmt.Print(repro.SolvabilityText(6, 3))

	fmt.Println("\n== Baselines: message-passing symmetry breaking ==")
	for _, n := range []int{64, 4096} {
		res, err := repro.RingThreeColor(n, 1000, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gsbexperiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  Cole-Vishkin ring %d: 3-colored in %d rounds\n", n, res.Rounds)
	}
	// The same deterministic baseline under the message adversary: the
	// synchronizer repairs loss/delay/reordering by retransmission, so the
	// coloring is unchanged and only the round count grows.
	netAdv := &repro.NetAdversary{Seed: 7, LossProb: 0.15, DelayProb: 0.1, ReorderProb: 0.1}
	advRes, err := repro.RingThreeColor(64, 4000, netAdv)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbexperiments: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("  Cole-Vishkin ring 64 under loss=%.2f delay=%.2f reorder=%.2f: 3-colored in %d rounds\n",
		netAdv.LossProb, netAdv.DelayProb, netAdv.ReorderProb, advRes.Rounds)
	if failures > 0 || disagree > 0 {
		os.Exit(1)
	}
}
