// Package harness regenerates the paper's evaluation artifacts — Table 1
// (kernel vectors of the <6,3,-,-> family), Figure 1 (the inclusion order
// of canonical tasks) and the Figure 2 experiment (slot-task renaming) —
// as text and DOT, for the golden tests and the cmd/ tools.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/campaign"
	"repro/internal/gsb"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/solvability"
	"repro/internal/tasks"
)

// Table1 renders the kernel-vector table of the <n,m,-,-> family in the
// layout of the paper's Table 1: one column per kernel vector of the
// loosest task (descending lexicographic order), one row per feasible
// (l,u) pair (decreasing u, increasing l), an x where the kernel vector
// belongs to the task, and a "canonical" marker on canonical rows.
func Table1(n, m int) string {
	family := gsb.Family(n, m)
	if len(family) == 0 {
		return fmt.Sprintf("no feasible <%d,%d,-,-> tasks\n", n, m)
	}
	columns := family[0].KernelSet() // loosest task has every kernel vector
	var b strings.Builder
	fmt.Fprintf(&b, "Kernels of <%d,%d,l,u>-GSB tasks\n", n, m)
	fmt.Fprintf(&b, "%-16s %-9s", "task", "canonical")
	for _, k := range columns {
		fmt.Fprintf(&b, " %-*s", len(k.String()), k)
	}
	b.WriteByte('\n')
	for _, spec := range family {
		name := spec.String()
		canonical := ""
		if spec.IsCanonical() {
			canonical = "yes"
		}
		fmt.Fprintf(&b, "%-16s %-9s", name, canonical)
		members := map[string]bool{}
		for _, k := range spec.KernelSet() {
			members[k.Key()] = true
		}
		for _, k := range columns {
			mark := ""
			if members[k.Key()] {
				mark = "x"
			}
			fmt.Fprintf(&b, " %-*s", len(k.String()), center(mark, len(k.String())))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func center(s string, width int) string {
	if len(s) >= width {
		return s
	}
	left := (width - len(s)) / 2
	return strings.Repeat(" ", left) + s
}

// Figure1Text renders the canonical tasks of the <n,m,-,-> family and the
// Hasse diagram of strict inclusion ("A -> B" means S(B) is strictly
// contained in S(A), i.e. B is harder).
func Figure1Text(n, m int) string {
	reps := gsb.CanonicalFamily(n, m)
	edges := gsb.Hasse(reps)
	var b strings.Builder
	fmt.Fprintf(&b, "Canonical <%d,%d,-,-> GSB tasks, ordered by strict inclusion\n", n, m)
	for _, r := range reps {
		flags := []string{}
		if r.LAnchored() {
			flags = append(flags, "l-anchored")
		}
		if r.UAnchored() {
			flags = append(flags, "u-anchored")
		}
		fmt.Fprintf(&b, "  %s  kernel %s  %s\n", r, kernelString(r), strings.Join(flags, " "))
	}
	b.WriteString("edges (A -> B means A strictly includes B):\n")
	lines := make([]string, 0, len(edges))
	for _, e := range edges {
		lines = append(lines, fmt.Sprintf("  %s -> %s", e.From, e.To))
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

func kernelString(s gsb.Spec) string {
	ks := s.KernelSet()
	parts := make([]string, len(ks))
	for i, k := range ks {
		parts[i] = k.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Figure1DOT renders the Hasse diagram in Graphviz DOT format.
func Figure1DOT(n, m int) string {
	reps := gsb.CanonicalFamily(n, m)
	edges := gsb.Hasse(reps)
	var b strings.Builder
	b.WriteString("digraph gsb {\n  rankdir=LR;\n")
	for _, r := range reps {
		shape := "ellipse"
		if r.LUAnchored() {
			shape = "doubleoctagon"
		}
		fmt.Fprintf(&b, "  %q [shape=%s];\n", r.String(), shape)
	}
	for _, e := range edges {
		fmt.Fprintf(&b, "  %q -> %q;\n", e.From.String(), e.To.String())
	}
	b.WriteString("}\n")
	return b.String()
}

// Figure2Row is one data point of the Figure 2 experiment: the slot-task
// renaming protocol run at size n over many seeds.
type Figure2Row struct {
	N         int
	Runs      int
	AllValid  bool
	MaxName   int
	MeanSteps float64
}

// Figure2Experiment runs the Figure 2 algorithm (slot-task renaming) for
// each n with `runs` seeded-random schedules and verifies every output
// against the <n,n+1,0,1>-GSB task.
func Figure2Experiment(ns []int, runs int) ([]Figure2Row, error) {
	var rows []Figure2Row
	for _, n := range ns {
		row, err := figure2Sweep(n, runs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// figure2Sweep runs one n-row of the Figure 2 experiment on a single
// reusable runner: each seed re-arms it with a fresh policy instead of
// respawning n process coroutines and reallocating the run state per run.
func figure2Sweep(n, runs int) (Figure2Row, error) {
	spec, slots := gsb.Renaming(n, n+1), gsb.KSlot(n, n-1)
	row := Figure2Row{N: n, Runs: runs, AllValid: true}
	totalSteps := 0
	runner := sched.NewRunner(n, sched.DefaultIDs(n), nil, sched.WithMaxSteps(tasks.DefaultRunMaxSteps), sched.WithReuse())
	defer runner.Close()
	for seed := int64(0); seed < int64(runs); seed++ {
		runner.Reset(sched.NewRandom(seed))
		res, err := runner.Run(tasks.Body(tasks.NewSlotRenaming("F2", n, mem.NewTaskBox("KS", slots, seed))))
		if err == nil {
			err = tasks.VerifyResult(spec, res)
		}
		if err != nil {
			return row, fmt.Errorf("harness: n=%d seed=%d: %w", n, seed, err)
		}
		totalSteps += res.Steps
		for i, name := range res.Outputs {
			if res.Decided[i] && name > row.MaxName {
				row.MaxName = name
			}
		}
	}
	row.MeanSteps = float64(totalSteps) / float64(runs)
	return row, nil
}

// Figure2Text renders the Figure 2 experiment rows.
func Figure2Text(rows []Figure2Row) string {
	var b strings.Builder
	b.WriteString("Figure 2: (n+1)-renaming from the (n-1)-slot task\n")
	b.WriteString("    n   runs  valid  max-name  mean-steps\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %3d  %5d  %-5v  %8d  %10.1f\n", r.N, r.Runs, r.AllValid, r.MaxName, r.MeanSteps)
	}
	return b.String()
}

// ExploreRow is one line of the exhaustive-exploration experiment: the
// Figure 2 protocol at size n model-checked over every failure-free
// schedule (or every Mazurkiewicz trace class under partial-order
// reduction), plus a randomized crash-injection sweep, both on the
// parallel exploration engine.
type ExploreRow struct {
	N         int
	Schedules int // failure-free schedules (trace classes under POR), all verified
	CrashRuns int // randomized crash-injected runs, all verified
	Workers   int
	Reduction sched.Reduction
}

// ExploreExperiment model-checks the Figure 2 algorithm ((n+1)-renaming
// from the (n-1)-slot task) against its task for each n: exhaustively
// over the complete failure-free schedule tree — pruned to one schedule
// per commuting-step equivalence class when reduction is enabled — then
// under crashRuns seeded crash-injection runs, using workers exploration
// goroutines (0 means GOMAXPROCS). This upgrades the seeded sampling of
// Figure2Experiment to a proof over every adversary schedule at small n;
// partial-order reduction extends the reachable n.
func ExploreExperiment(ns []int, workers, crashRuns int, reduction sched.Reduction) ([]ExploreRow, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var rows []ExploreRow
	for _, n := range ns {
		spec, build, err := campaign.SelectProtocol("slot-renaming", n, 1)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		opts := sched.ExploreOptions{Workers: workers, Reduction: reduction}
		schedules, err := tasks.ExploreVerified(context.Background(), spec, sched.DefaultIDs(n), opts, build)
		if err != nil {
			return nil, fmt.Errorf("harness: exhaustive exploration n=%d: %w", n, err)
		}
		opts.CrashRuns = crashRuns
		opts.CrashProb = 0.05
		opts.Reduction = sched.ReductionNone // sweep mode ignores reduction
		sweeps, err := tasks.ExploreVerified(context.Background(), spec, sched.DefaultIDs(n), opts, build)
		if err != nil {
			return nil, fmt.Errorf("harness: crash sweep n=%d: %w", n, err)
		}
		rows = append(rows, ExploreRow{N: n, Schedules: schedules, CrashRuns: sweeps, Workers: opts.Workers, Reduction: reduction})
	}
	return rows, nil
}

// ExploreText renders the exhaustive-exploration experiment rows.
func ExploreText(rows []ExploreRow) string {
	var b strings.Builder
	b.WriteString("Exhaustive exploration: Figure 2 verified under every failure-free schedule\n")
	b.WriteString("    n  schedules  crash-runs  workers  reduction\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %3d  %9d  %10d  %7d  %s\n", r.N, r.Schedules, r.CrashRuns, r.Workers, r.Reduction)
	}
	return b.String()
}

// SampleRow is one line of the statistical-sampling experiment: the
// Figure 2 protocol at a size n beyond the reach of exhaustive
// exploration (even partial-order reduced), sampled with a seeded batch
// and measured by distinct-trace-class coverage.
type SampleRow struct {
	N       int
	Mode    sched.SampleMode
	Depth   int // PCT bug depth; 0 in walk mode
	Runs    int // sampled runs, all verified
	Classes int // distinct Mazurkiewicz trace classes observed
	Workers int
}

// Coverage is the distinct-class fraction Classes/Runs (1 means every
// run found a new class: the space is far from saturated).
func (r SampleRow) Coverage() float64 {
	if r.Runs == 0 {
		return 0
	}
	return float64(r.Classes) / float64(r.Runs)
}

// SampleExperiment statistically samples the Figure 2 algorithm
// ((n+1)-renaming from the (n-1)-slot task) for each n: runs seeded
// schedules drawn by mode (depth is the PCT bug-depth knob, 0 for the
// default), verified against the task, with measured class coverage.
// This opens the sizes the exploration experiment cannot reach — the
// slot-renaming tree at n=5 already has ~10^12 interleavings and beyond
// 10^8 trace classes, where ExploreExperiment's exhaustive and reduced
// walks are both infeasible — trading enumeration for a per-run PCT
// bug-depth guarantee and a coverage measurement.
func SampleExperiment(ns []int, workers, runs int, mode sched.SampleMode, depth int) ([]SampleRow, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var rows []SampleRow
	for _, n := range ns {
		spec, build, err := campaign.SelectProtocol("slot-renaming", n, 1)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		opts := sched.ExploreOptions{Workers: workers, SampleRuns: runs, SampleMode: mode, Depth: depth, Seed: 1}
		rep, err := tasks.SampleVerified(context.Background(), spec, sched.DefaultIDs(n), opts, build)
		if err != nil {
			return nil, fmt.Errorf("harness: sampling n=%d mode=%v: %w", n, mode, err)
		}
		rows = append(rows, SampleRow{N: n, Mode: mode, Depth: rep.Depth, Runs: rep.Runs, Classes: rep.Classes, Workers: workers})
	}
	return rows, nil
}

// SampleText renders the statistical-sampling experiment rows.
func SampleText(rows []SampleRow) string {
	var b strings.Builder
	b.WriteString("Statistical sampling: Figure 2 at sizes beyond exhaustive exploration\n")
	b.WriteString("    n  mode  depth    runs  classes  coverage  workers\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %3d  %-4s  %5d  %6d  %7d  %8.3f  %7d\n", r.N, r.Mode, r.Depth, r.Runs, r.Classes, r.Coverage(), r.Workers)
	}
	return b.String()
}

// SolvabilityText renders the classification of a family (used by
// cmd/gsbclassify).
func SolvabilityText(n, m int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Wait-free solvability of the <%d,%d,-,-> family\n", n, m)
	for _, r := range solvability.FamilyReport(n, m) {
		fmt.Fprintf(&b, "  %-16s -> %-28s (%s)\n", r.Spec, r.Status, r.Reason)
	}
	return b.String()
}

// GCDTableText renders the Theorem 10 arithmetic table.
func GCDTableText(maxN int) string {
	var b strings.Builder
	b.WriteString("Theorem 10 arithmetic: gcd{C(n,i) : 1<=i<=n/2}\n")
	b.WriteString("    n  gcd  prime-set  n-is-prime-power  WSB/(2n-2)-renaming\n")
	for _, row := range solvability.GCDTable(maxN) {
		status := "solvable"
		if !row.Prime {
			status = "NOT solvable"
		}
		fmt.Fprintf(&b, "  %3d  %3d  %-9v  %-16v  %s\n", row.N, row.GCD, row.Prime, row.PrimePower, status)
	}
	return b.String()
}
