// Package repro is a complete Go implementation of the framework of
// "The Universe of Symmetry Breaking Tasks" (Imbs, Rajsbaum, Raynal,
// PI-1965 / PODC 2011): generalized symmetry breaking (GSB) tasks, the
// wait-free shared-memory model they live in, executable protocols for
// every construction in the paper, and machine-checked validations of its
// theorems.
//
// This root package is the public facade: it re-exports the task algebra,
// the execution engine, the protocols and the analysis tools from the
// internal packages. Examples under examples/ and the command-line tools
// under cmd/ are written exclusively against this facade.
//
// # Quick start
//
//	spec := repro.WSB(6) // weak symmetry breaking for 6 processes
//	res, err := repro.RunVerified(spec, repro.DefaultIDs(6), repro.NewRandomPolicy(1),
//	    func(n int) repro.Solver {
//	        return repro.NewWSBFromRenaming(n, repro.NewBoxSolver(
//	            repro.NewTaskBox("r", repro.Renaming(n, 2*n-2), 1)))
//	    })
//
// To model-check a protocol instead of sampling one schedule, explore the
// complete failure-free schedule tree (or a randomized crash sweep) on a
// parallel worker pool, configured by ExploreOptions:
//
//	count, err := repro.ExploreVerified(ctx, spec, repro.DefaultIDs(n),
//	    repro.ExploreOptions{Workers: 8, MaxRuns: 1 << 20}, build)
//
// See README.md for the architecture overview, the exploration-engine
// tuning guide, and (section "Paper versus measured") where the
// reproduction departs from the paper.
package repro
