// Command gsbbench measures the exploration engine and writes a
// machine-readable report (BENCH_sched.json) so the performance
// trajectory — schedule counts, runs per second, the partial-order
// reduction factor and the reduced walks' runs per class — is tracked
// across PRs. CI runs it in the benchmark
// smoke step via `make bench`.
//
// Usage:
//
//	gsbbench [-out BENCH_sched.json] [-workers 0] [-full] [-profiles DIR]
//	gsbbench -out BENCH_ci.json -compare BENCH_sched.json
//
// -profiles DIR writes a pprof CPU profile per entry into DIR (file
// names derive from the entry identity; each entry records its own in
// the report's "profile" field), so every benchmark run leaves behind
// the data to answer "where did the time go" — inspect one with
// `go tool pprof gsbbench DIR/NAME.pprof`. `make bench` regenerates the
// committed baseline profiles under profiles/ alongside BENCH_sched.json.
//
// The default profile finishes in seconds; -full adds the larger
// explorations that partial-order reduction makes newly reachable
// (slot-renaming n=4, the <7,3> oracle-box instance).
//
// -compare turns the run into a regression gate against a baseline
// report (the committed BENCH_sched.json): after measuring, each entry
// is matched to the baseline entry with the same name/mode/reduction and
// the run fails if throughput dropped more than -max-drop (default 25%),
// if allocs-per-run grew beyond -max-allocs-growth, or if a
// deterministic column (schedule or class count, runs per class)
// changed at all — determinism drift is a correctness regression, not
// noise. Baseline entries with no current counterpart fail the gate too
// (a vanished benchmark is a silent hole in coverage). A legitimate
// change to the measured set or counts means regenerating the baseline
// with `make bench`.
//
// When the gate fails on a performance regression the run also explains
// it: for each regressed entry whose CPU profile exists both under
// -baseline-profiles (default: the committed profiles/) and the current
// -profiles directory, it prints the top -explain-top per-function
// flat-time deltas between the two profiles, naming the suspect hot
// path. The table is `go tool pprof`'s (see pprofDiff), so explaining
// needs the Go toolchain on PATH; gsbbench runs under `go run` anyway.
// `gsbbench -explain BASE.pprof,CUR.pprof` prints the same table
// standalone for any two profiles.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro"
)

// Entry is one measurement: a protocol model-checked under one engine
// configuration.
type Entry struct {
	Name    string `json:"name"`
	Task    string `json:"task"`
	N       int    `json:"n"`
	Workers int    `json:"workers"`
	// Mode distinguishes statistical sampling entries ("sample-walk",
	// "sample-pct") from the enumerating ones (empty: exhaustive or
	// reduced per the Reduction field).
	Mode      string `json:"mode,omitempty"`
	Reduction string `json:"reduction,omitempty"`
	// Schedules is the number of schedules verified: every interleaving
	// without reduction, one per commuting-step equivalence class with.
	Schedules  int     `json:"schedules"`
	ElapsedSec float64 `json:"elapsed_sec"`
	// RunsPerSec is verified schedules per second of wall clock — the
	// end-to-end verification throughput. Under reduction the engine
	// additionally executes pruned probe runs that are excluded from
	// the numerator, so the figure is not raw executed-run throughput
	// and is only comparable within the same reduction mode.
	RunsPerSec float64 `json:"runs_per_sec"`
	// ReductionFactor is exhaustive schedules / reduced schedules for
	// the same protocol, when both are known (0 otherwise).
	ReductionFactor float64 `json:"reduction_factor,omitempty"`
	// RunsPerClass is, under reduction, the engine runs executed (verified
	// schedules plus aborted sleep-set probes, gsb_runs_total) per
	// verified class. It is a pure function of the walk — the same on
	// every host and at every worker count — so the gate holds it exact.
	RunsPerClass float64 `json:"runs_per_class,omitempty"`
	// Budget marks a budget-bounded throughput row: the exploration was
	// cut off after this many runs (the full tree is infeasible), so
	// Schedules equals the budget and RunsPerSec is the figure of merit.
	Budget int `json:"budget,omitempty"`
	// AllocsPerRun is the whole-pipeline heap-allocation rate of the
	// measurement: total mallocs (engine + policy + protocol
	// construction) divided by counted schedules. Like RunsPerSec, under
	// reduction the numerator includes the allocations of pruned probe
	// runs that the denominator excludes, so the figure is comparable
	// only within the same reduction mode. The runner's own steady-state
	// contribution is pinned at zero by the runner-steady-state gauge
	// entry; this end-to-end figure tracks everything riding on it.
	AllocsPerRun float64 `json:"allocs_per_run,omitempty"`
	// AllocsPerStep is reported by the runner-steady-state gauge entry:
	// steady-state heap allocations per scheduler step on a reused
	// runner. The pinned bound keeps it at (numerically) zero, so zero
	// is omitted like the other optional columns and the gauge's verdict
	// lives in the entry's presence and its Error field.
	AllocsPerStep float64 `json:"allocs_per_step,omitempty"`
	// Classes and Coverage are the sampling coverage columns: distinct
	// Mazurkiewicz trace classes hit by the batch, and Classes/Runs.
	Classes  int     `json:"classes,omitempty"`
	Coverage float64 `json:"coverage,omitempty"`
	PCTDepth int     `json:"pct_depth,omitempty"`
	// Profile is the file name of this measurement's pprof CPU profile
	// inside the -profiles directory (`go tool pprof <binary> <profile>`).
	Profile string `json:"profile,omitempty"`
	Error   string `json:"error,omitempty"`
}

// reportSchema versions the Report document.
const reportSchema = "gsb-bench/v1"

// Report is the top-level BENCH_sched.json document.
type Report struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Host names the machine the timings come from: OS/architecture,
	// logical CPUs and, where the OS reports it, the CPU model.
	Host    string  `json:"host,omitempty"`
	Full    bool    `json:"full"`
	Entries []Entry `json:"entries"`
}

// hostDescription returns the Report's Host: GOOS/GOARCH, the logical
// CPU count and the first "model name" of /proc/cpuinfo when readable.
func hostDescription() string {
	host := fmt.Sprintf("%s/%s, %d CPUs", runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return host
	}
	for _, line := range strings.Split(string(info), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return host + ", " + strings.TrimSpace(val)
		}
	}
	return host
}

type benchCase struct {
	name     string
	n        int
	spec     repro.Spec
	build    func(n int) repro.Solver
	fullOnly bool // exhaustive mode is infeasible; run reduced only
	// analytic is the exhaustive schedule count when it is known in
	// closed form (every process takes a fixed number of steps, making
	// the tree an exact multinomial); used for the reduction factor of
	// fullOnly cases, whose exhaustive walk cannot be executed.
	analytic int
	// exhaustBudget > 0 adds a budget-bounded exhaustive throughput row
	// for a fullOnly case: the walk is cut off after this many runs and
	// measured for runs/sec, the engine-throughput trajectory number.
	exhaustBudget int
}

// mallocs reads the cumulative heap-allocation count (monotonic; GC does
// not decrease it), for allocs-per-run deltas around a measurement.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// multinomialSteps returns the number of interleavings of n processes
// taking k steps each: (nk)! / (k!)^n.
func multinomialSteps(n, k int) int {
	total := 1
	placed := 0
	for p := 0; p < n; p++ {
		// Multiply C(placed+k, k) into the running product.
		for i := 1; i <= k; i++ {
			placed++
			total = total * placed / i // exact: product of consecutive ints divisible by i!
		}
	}
	return total
}

func cases(full bool) []benchCase {
	cs := []benchCase{slotCase(2), slotCase(3)}
	boxCase := func(n int) benchCase {
		spec := repro.Hardest(n, 3)
		c := benchCase{
			name:     fmt.Sprintf("box-%d-3", n),
			n:        n,
			spec:     spec,
			build:    func(n int) repro.Solver { return repro.NewBoxSolver(repro.NewTaskBox("B", spec, 1)) },
			fullOnly: true,
			analytic: multinomialSteps(n, 2), // box invoke + decide per process
		}
		if n == 6 {
			// The <6,3> exhaustive row: the full 7,484,400-schedule tree
			// is infeasible in a smoke run, so measure raw engine
			// throughput over a fixed budget of its runs instead.
			c.exhaustBudget = 100000
		}
		return c
	}
	cs = append(cs, boxCase(6))
	if full {
		c := slotCase(4)
		c.fullOnly = true
		c.analytic = multinomialSteps(4, 4) // invoke, write, snapshot, decide
		cs = append(cs, c, boxCase(7))
	}
	return cs
}

// slotCase is the Figure 2 slot-renaming protocol at size n as
// registered under "slot-renaming", the standard sampling showcase
// (n >= 5 is beyond every enumerating mode).
func slotCase(n int) benchCase {
	spec, build, err := repro.SelectProtocol("slot-renaming", n, 1)
	if err != nil {
		panic(err)
	}
	return benchCase{name: fmt.Sprintf("slot-renaming-%d", n), n: n, spec: spec, build: build}
}

// sampleCases are the statistical-sampling measurements: instances whose
// schedule tree no enumerating mode completes, measured as sampled
// runs/sec plus trace-class coverage.
func sampleCases(full bool) []benchCase {
	cs := []benchCase{slotCase(6)}
	if full {
		cs = append(cs, slotCase(8))
	}
	return cs
}

func measureSample(c benchCase, workers, runs int, mode repro.SampleMode, depth int) Entry {
	opts := repro.ExploreOptions{Workers: workers, Seed: 1, SampleRuns: runs, SampleMode: mode, Depth: depth}
	rep, elapsed, allocs, reps, err := repeatMeasure("seeded batch report", func() (repro.SampleReport, error) {
		return repro.SampleVerified(context.Background(), c.spec, repro.DefaultIDs(c.n), opts, c.build)
	})
	e := Entry{
		Name:       c.name,
		Task:       c.spec.String(),
		N:          c.n,
		Workers:    workers,
		Mode:       "sample-" + mode.String(),
		Schedules:  rep.Runs,
		Classes:    rep.Classes,
		Coverage:   rep.Coverage(),
		PCTDepth:   rep.Depth,
		ElapsedSec: elapsed.Seconds(),
	}
	if elapsed > 0 {
		e.RunsPerSec = float64(rep.Runs*reps) / elapsed.Seconds()
	}
	if rep.Runs > 0 {
		e.AllocsPerRun = float64(allocs) / float64(rep.Runs*reps)
	}
	if err != nil {
		e.Error = err.Error()
	}
	return e
}

func measure(c benchCase, workers int, reduction repro.Reduction) Entry {
	return measureOpts(c, workers, exploreOpts(workers, reduction), false)
}

func exploreOpts(workers int, reduction repro.Reduction) repro.ExploreOptions {
	return repro.ExploreOptions{Workers: workers, MaxRuns: 1 << 22, Reduction: reduction}
}

// addRunsPerClass fills a measured reduced entry's RunsPerClass from one
// more walk, untimed, with the engine counters attached. It runs outside
// profiled, so the committed CPU profiles hold the timed walks only.
func addRunsPerClass(e *Entry, c benchCase, workers int, reduction repro.Reduction) {
	if e.Error != "" || e.Schedules == 0 {
		return
	}
	reg := repro.NewStatsRegistry()
	opts := exploreOpts(workers, reduction)
	opts.Stats = reg
	if _, err := repro.ExploreVerified(context.Background(), c.spec, repro.DefaultIDs(c.n), opts, c.build); err != nil {
		e.Error = err.Error()
		return
	}
	e.RunsPerClass = float64(reg.Snapshot().Counter("gsb_runs_total")) / float64(e.Schedules)
}

// minMeasure is the smallest wall-clock window a throughput figure may
// be derived from. A micro instance (slot renaming at n=2 verifies 8
// reduced schedules in a couple of milliseconds) is dominated by
// scheduler noise in a single sample and flakes the -compare gate;
// measurements finishing sooner are repeated — identical configuration,
// deterministic counts checked for drift — and aggregated.
const minMeasure = 250 * time.Millisecond

// maxMeasureReps bounds the repetition loop for degenerate measurements
// whose elapsed time stays near zero.
const maxMeasureReps = 1000

// repeatMeasure times once, and repeats it until the repetitions span
// minMeasure (at most maxMeasureReps of them). Every repetition must
// return what the first did: the measured counts are deterministic. It
// returns the first result, the summed wall time and heap allocations,
// and the number of repetitions.
func repeatMeasure[T comparable](what string, once func() (T, error)) (first T, elapsed time.Duration, allocs uint64, reps int, err error) {
	timed := func() (T, time.Duration, uint64, error) {
		m0 := mallocs()
		start := time.Now()
		v, err := once()
		d := time.Since(start)
		return v, d, mallocs() - m0, err
	}
	first, elapsed, allocs, err = timed()
	for reps = 1; err == nil && elapsed < minMeasure && reps < maxMeasureReps; reps++ {
		v, d, a, verr := timed()
		if verr != nil {
			return first, elapsed, allocs, reps, verr
		}
		if v != first {
			return first, elapsed, allocs, reps, fmt.Errorf("%s drifted across repetitions: %v then %v", what, first, v)
		}
		elapsed += d
		allocs += a
	}
	return first, elapsed, allocs, reps, err
}

// measureBudgeted measures raw exhaustive engine throughput over a fixed
// run budget of a tree too large to finish; hitting the budget is the
// expected outcome, not an error.
func measureBudgeted(c benchCase, workers int) Entry {
	e := measureOpts(c, workers, repro.ExploreOptions{Workers: workers, MaxRuns: c.exhaustBudget}, true)
	e.Budget = c.exhaustBudget
	return e
}

func measureOpts(c benchCase, workers int, opts repro.ExploreOptions, budgeted bool) Entry {
	count, elapsed, allocs, reps, err := repeatMeasure("schedule count", func() (int, error) {
		count, err := repro.ExploreVerified(context.Background(), c.spec, repro.DefaultIDs(c.n), opts, c.build)
		if budgeted && errors.Is(err, repro.ErrExplorationBudget) {
			err = nil
		}
		return count, err
	})
	e := Entry{
		Name:       c.name,
		Task:       c.spec.String(),
		N:          c.n,
		Workers:    workers,
		Reduction:  opts.Reduction.String(),
		Schedules:  count,
		ElapsedSec: elapsed.Seconds(),
	}
	if elapsed > 0 {
		e.RunsPerSec = float64(count*reps) / elapsed.Seconds()
	}
	if count > 0 {
		e.AllocsPerRun = float64(allocs) / float64(count*reps)
	}
	if err != nil {
		e.Error = err.Error()
	}
	return e
}

// maxSteadyAllocsPerStep is the pinned bound on the reused runner's
// steady-state heap allocations per scheduler step. The hot path is
// designed (and unit-tested, sched.TestReusedRunnerAllocsPerStep) to
// allocate nothing at all; the gauge fails the bench run — and with it
// CI's bench-smoke step — if a regression pushes it above this slack.
const maxSteadyAllocsPerStep = 0.05

// measureRunnerGauge measures the runner's own steady-state allocation
// rate: a reused runner re-executing a fixed allocation-free body, with
// total mallocs counted across the batch. This isolates the runner from
// the exploration engine and protocol constructors that the allocs/run
// column of the other entries includes.
func measureRunnerGauge() Entry {
	const n, k, runs = 4, 8, 2000
	counter := 0
	op := func() any { counter++; return nil }
	body := func(p *repro.Proc) {
		for i := 0; i < k; i++ {
			p.Exec("inc", op)
		}
		p.Decide(1)
	}
	runner := repro.NewRunner(n, repro.DefaultIDs(n), repro.NewRoundRobinPolicy(), repro.WithReuse())
	defer runner.Close()
	batch := func(count int) (steps int) {
		for i := 0; i < count; i++ {
			res, err := runner.Run(body)
			if err != nil {
				panic(err)
			}
			steps += res.Steps
		}
		return steps
	}
	batch(5) // warm-up: buffers reach steady state
	runtime.GC()
	m0 := mallocs()
	start := time.Now()
	steps := batch(runs)
	elapsed := time.Since(start)
	m1 := mallocs()

	e := Entry{
		Name:          "runner-steady-state",
		Task:          fmt.Sprintf("counter x%d", k),
		N:             n,
		Workers:       1,
		Mode:          "allocs-gauge",
		Schedules:     runs,
		ElapsedSec:    elapsed.Seconds(),
		AllocsPerRun:  float64(m1-m0) / float64(runs),
		AllocsPerStep: float64(m1-m0) / float64(steps),
	}
	if elapsed > 0 {
		e.RunsPerSec = float64(runs) / elapsed.Seconds()
	}
	if e.AllocsPerStep > maxSteadyAllocsPerStep {
		e.Error = fmt.Sprintf("steady-state allocs/step %.4f exceeds the pinned bound %.2f", e.AllocsPerStep, maxSteadyAllocsPerStep)
	}
	return e
}

// profileSlug is the pprof file name of one measurement: the same
// identity components as entryKey, joined into a filesystem-safe name
// ("slot-renaming-2.sleep-sets.pprof", "box-6-3.none.budget100000.pprof").
func profileSlug(name, mode, reduction string, budget int) string {
	parts := []string{name}
	if mode != "" {
		parts = append(parts, mode)
	}
	if reduction != "" {
		parts = append(parts, reduction)
	}
	if budget > 0 {
		parts = append(parts, fmt.Sprintf("budget%d", budget))
	}
	slug := strings.Join(parts, ".")
	slug = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, slug)
	return slug + ".pprof"
}

// profiled runs one measurement under a CPU profile written to
// dir/<slug> (dir empty: no profiling). Measurements run sequentially,
// so the process-wide profiler is free each time; a profiling error
// marks the entry failed rather than silently dropping the profile.
func profiled(dir, slug string, measure func() Entry) Entry {
	if dir == "" {
		return measure()
	}
	path := filepath.Join(dir, slug)
	f, err := os.Create(path)
	if err == nil {
		err = pprof.StartCPUProfile(f)
		if err != nil {
			f.Close()
		}
	}
	if err != nil {
		e := measure()
		if e.Error == "" {
			e.Error = fmt.Sprintf("cpu profile: %v", err)
		}
		return e
	}
	e := measure()
	pprof.StopCPUProfile()
	if cerr := f.Close(); cerr != nil && e.Error == "" {
		e.Error = fmt.Sprintf("cpu profile: %v", cerr)
	}
	e.Profile = slug
	return e
}

// entryKey identifies an entry across reports: the measurement's name
// and configuration, excluding machine-dependent fields (worker count
// follows GOMAXPROCS, so it is part of the environment, not the
// measurement identity).
func entryKey(e Entry) string {
	return fmt.Sprintf("%s|%s|%s|%d", e.Name, e.Mode, e.Reduction, e.Budget)
}

// compareReports gates the current report against a baseline: returns
// the list of regressions (empty means the gate passes). Throughput may
// drop up to maxDrop (relative); allocs-per-run may grow up to
// maxAllocsGrowth (relative, plus half an allocation of absolute slack
// for counter noise); deterministic columns — schedule and class counts,
// and runs per class where the baseline records it — must match
// exactly. The runner-steady-state gauge entry is excluded: its own
// pinned bound already gates it, in absolute terms.
//
// regressed pairs up the performance failures — (baseline, current) for
// each throughput-drop or allocs-growth failure — so the caller can
// explain them by diffing the two entries' CPU profiles.
func compareReports(cur, base Report, maxDrop, maxAllocsGrowth float64) (failures, notes []string, regressed [][2]Entry) {
	current := make(map[string]Entry, len(cur.Entries))
	for _, e := range cur.Entries {
		if e.Mode == "allocs-gauge" {
			continue
		}
		current[entryKey(e)] = e
	}
	for _, b := range base.Entries {
		if b.Mode == "allocs-gauge" {
			continue
		}
		key := entryKey(b)
		c, ok := current[key]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in the baseline but not measured now (coverage hole)", key))
			continue
		}
		delete(current, key)
		if c.Schedules != b.Schedules {
			failures = append(failures, fmt.Sprintf("%s: schedule count %d, baseline %d (determinism drift)", key, c.Schedules, b.Schedules))
		}
		if c.Classes != b.Classes {
			failures = append(failures, fmt.Sprintf("%s: class count %d, baseline %d (determinism drift)", key, c.Classes, b.Classes))
		}
		if b.RunsPerClass > 0 && c.RunsPerClass != b.RunsPerClass {
			failures = append(failures, fmt.Sprintf("%s: %.4g runs per class, baseline %.4g (determinism drift)", key, c.RunsPerClass, b.RunsPerClass))
		}
		perf := false
		if b.RunsPerSec > 0 && c.RunsPerSec < b.RunsPerSec*(1-maxDrop) {
			failures = append(failures, fmt.Sprintf("%s: %.0f runs/s, down %.0f%% from the baseline's %.0f (limit %.0f%%)",
				key, c.RunsPerSec, 100*(1-c.RunsPerSec/b.RunsPerSec), b.RunsPerSec, 100*maxDrop))
			perf = true
		}
		if c.AllocsPerRun > b.AllocsPerRun*(1+maxAllocsGrowth)+0.5 {
			failures = append(failures, fmt.Sprintf("%s: %.1f allocs/run, up from the baseline's %.1f (limit +%.0f%%)",
				key, c.AllocsPerRun, b.AllocsPerRun, 100*maxAllocsGrowth))
			perf = true
		}
		if perf {
			regressed = append(regressed, [2]Entry{b, c})
		}
	}
	for key := range current {
		notes = append(notes, fmt.Sprintf("%s: new entry with no baseline (regenerate the baseline to start tracking it)", key))
	}
	sort.Strings(failures)
	sort.Strings(notes)
	sort.Slice(regressed, func(i, j int) bool { return entryKey(regressed[i][1]) < entryKey(regressed[j][1]) })
	return failures, notes, regressed
}

// pprofDiff returns `go tool pprof`'s table of the top per-function
// flat-time shifts from the base CPU profile to the current one. The
// current profile is first scaled to the base profile's total
// (-normalize), so a row is a change in share, not in run length:
// "300ns 30.00% ... hotStep" reads "hotStep's flat time grew by 30% of
// the base total". Symbolization is off because the profiles already
// carry function names.
func pprofDiff(basePath, curPath string, top int) (string, error) {
	// pprof fetches an argument that is not an existing file as a URL;
	// a missing profile must fail here instead.
	for _, path := range []string{basePath, curPath} {
		if _, err := os.Stat(path); err != nil {
			return "", err
		}
	}
	out, err := exec.Command("go", "tool", "pprof", "-symbolize=none", "-top", "-normalize",
		fmt.Sprintf("-nodecount=%d", top), "-diff_base", basePath, curPath).Output()
	var exit *exec.ExitError
	if errors.As(err, &exit) && len(exit.Stderr) > 0 {
		return "", fmt.Errorf("go tool pprof: %s", bytes.TrimSpace(exit.Stderr))
	}
	if err != nil {
		return "", fmt.Errorf("go tool pprof: %w", err)
	}
	return string(out), nil
}

// explainRegressions prints a per-function flat-time delta table for
// each performance regression whose baseline and current CPU profiles
// both exist on disk — the part of the gate that names the suspect hot
// path instead of just the regressed number. A missing or unreadable
// profile downgrades to a note; the gate already failed.
func explainRegressions(w io.Writer, regressed [][2]Entry, baselineDir, curDir string, top int) {
	for _, pair := range regressed {
		b, c := pair[0], pair[1]
		key := entryKey(c)
		if b.Profile == "" || c.Profile == "" || baselineDir == "" || curDir == "" {
			fmt.Fprintf(w, "gsbbench: %s: no profile pair to explain the regression with (run with -profiles against committed baselines)\n", key)
			continue
		}
		table, err := pprofDiff(filepath.Join(baselineDir, b.Profile), filepath.Join(curDir, c.Profile), top)
		if err != nil {
			fmt.Fprintf(w, "gsbbench: %s: cannot explain the regression: %v\n", key, err)
			continue
		}
		fmt.Fprintf(w, "gsbbench: %s: top-%d flat-time shifts, baseline profile vs current:\n%s", key, top, table)
	}
}

// explainPair is the standalone -explain mode: pair is
// "BASE.pprof,CUR.pprof", and the pprofDiff table goes to w under a
// heading naming both profiles.
func explainPair(w io.Writer, pair string, top int) error {
	basePath, curPath, ok := strings.Cut(pair, ",")
	if !ok {
		return fmt.Errorf("want BASE.pprof,CUR.pprof, got %q", pair)
	}
	table, err := pprofDiff(basePath, curPath, top)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "top-%d flat-time shifts, %s vs %s:\n%s", top, basePath, curPath, table)
	return nil
}

// readBaseline loads a -compare baseline report, refusing one written
// under another schema.
func readBaseline(path string) (Report, error) {
	var base Report
	bf, err := os.ReadFile(path)
	if err != nil {
		return base, fmt.Errorf("baseline: %w", err)
	}
	if err := json.Unmarshal(bf, &base); err != nil {
		return base, fmt.Errorf("baseline %s: %w", path, err)
	}
	if base.Schema != reportSchema {
		return base, fmt.Errorf("baseline %s has schema %q, this build writes %q (regenerate the baseline)", path, base.Schema, reportSchema)
	}
	return base, nil
}

// matchBaselineProcs runs the measurements at the baseline's GOMAXPROCS
// (and so, by default, its worker count): allocs/run under sleep sets
// and runs/sec both move with the core count, so a gate comparing runs
// made at different counts would flag the host, not the change. A
// baseline without the field leaves the setting alone.
func matchBaselineProcs(base Report) {
	if base.GOMAXPROCS > 0 && base.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		fmt.Printf("gsbbench: GOMAXPROCS %d, the baseline's\n", base.GOMAXPROCS)
		runtime.GOMAXPROCS(base.GOMAXPROCS)
	}
}

func main() {
	out := flag.String("out", "BENCH_sched.json", "output path for the JSON report")
	workers := flag.Int("workers", 0, "exploration worker goroutines (0 = GOMAXPROCS)")
	full := flag.Bool("full", false, "include the larger explorations (slower)")
	compare := flag.String("compare", "", "baseline report to regression-gate against (fail on throughput drops, allocs growth, or count drift)")
	maxDrop := flag.Float64("max-drop", 0.25, "with -compare, the largest tolerated relative runs/sec drop")
	maxAllocsGrowth := flag.Float64("max-allocs-growth", 0.02, "with -compare, the largest tolerated relative allocs-per-run growth (the noise floor on 'any increase fails')")
	profiles := flag.String("profiles", "", "directory for per-entry pprof CPU profiles (created if missing; empty = no profiling)")
	baselineProfiles := flag.String("baseline-profiles", "profiles", "with -compare, the directory holding the baseline report's committed pprof profiles (for regression explanations)")
	explainTop := flag.Int("explain-top", 10, "how many per-function flat-time deltas a regression explanation prints")
	explain := flag.String("explain", "", "standalone mode: BASE.pprof,CUR.pprof — print the per-function flat-time deltas between two profiles and exit")
	flag.Parse()

	if *explain != "" {
		if err := explainPair(os.Stdout, *explain, *explainTop); err != nil {
			fmt.Fprintf(os.Stderr, "gsbbench: -explain: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var base Report
	if *compare != "" {
		var err error
		if base, err = readBaseline(*compare); err != nil {
			fmt.Fprintf(os.Stderr, "gsbbench: %v\n", err)
			os.Exit(1)
		}
		matchBaselineProcs(base)
	}
	if *profiles != "" {
		if err := os.MkdirAll(*profiles, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "gsbbench: -profiles: %v\n", err)
			os.Exit(1)
		}
	}
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	rep := Report{
		Schema:     reportSchema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Host:       hostDescription(),
		Full:       *full,
	}
	for _, c := range cases(*full) {
		reduced := profiled(*profiles, profileSlug(c.name, "", repro.ReductionSleepSets.String(), 0),
			func() Entry { return measure(c, w, repro.ReductionSleepSets) })
		addRunsPerClass(&reduced, c, w, repro.ReductionSleepSets)
		if !c.fullOnly {
			exhaustive := profiled(*profiles, profileSlug(c.name, "", repro.ReductionNone.String(), 0),
				func() Entry { return measure(c, w, repro.ReductionNone) })
			if exhaustive.Error == "" && reduced.Error == "" && reduced.Schedules > 0 {
				reduced.ReductionFactor = float64(exhaustive.Schedules) / float64(reduced.Schedules)
			}
			rep.Entries = append(rep.Entries, exhaustive)
		} else if c.analytic > 0 && reduced.Error == "" && reduced.Schedules > 0 {
			reduced.ReductionFactor = float64(c.analytic) / float64(reduced.Schedules)
		}
		if c.fullOnly && c.exhaustBudget > 0 {
			// Raw exhaustive engine throughput over a fixed budget of a
			// tree too big to finish (the runs/sec trajectory row).
			budgeted := profiled(*profiles, profileSlug(c.name, "", repro.ReductionNone.String(), c.exhaustBudget),
				func() Entry { return measureBudgeted(c, w) })
			rep.Entries = append(rep.Entries, budgeted)
			fmt.Printf("  %-18s n=%d %-12s %8d schedules  %8.0f runs/s  %6.1f allocs/run (budget)\n",
				c.name, c.n, budgeted.Reduction, budgeted.Schedules, budgeted.RunsPerSec, budgeted.AllocsPerRun)
		}
		rep.Entries = append(rep.Entries, reduced)
		fmt.Printf("  %-18s n=%d %-12s %8d schedules  %8.0f runs/s  %6.1f allocs/run  factor %.0fx  %.2f runs/class\n",
			c.name, c.n, reduced.Reduction, reduced.Schedules, reduced.RunsPerSec, reduced.AllocsPerRun, reduced.ReductionFactor, reduced.RunsPerClass)
	}
	// The runner's steady-state allocation gauge: pinned at zero
	// allocs/step; exceeding the bound fails the bench run (and CI).
	gauge := profiled(*profiles, profileSlug("runner-steady-state", "allocs-gauge", "", 0), measureRunnerGauge)
	rep.Entries = append(rep.Entries, gauge)
	fmt.Printf("  %-18s n=%d %-12s %8d runs       %8.0f runs/s  %.4f allocs/step (bound %.2f)\n",
		gauge.Name, gauge.N, gauge.Mode, gauge.Schedules, gauge.RunsPerSec, gauge.AllocsPerStep, maxSteadyAllocsPerStep)
	// Statistical sampling: runs/sec plus trace-class coverage on the
	// instances the enumerating modes cannot complete.
	sampleRuns := 2000
	if *full {
		sampleRuns = 10000
	}
	for _, c := range sampleCases(*full) {
		for _, mode := range []repro.SampleMode{repro.SampleWalk, repro.SamplePCT} {
			e := profiled(*profiles, profileSlug(c.name, "sample-"+mode.String(), "", 0),
				func() Entry { return measureSample(c, w, sampleRuns, mode, 0) })
			rep.Entries = append(rep.Entries, e)
			fmt.Printf("  %-18s n=%d %-12s %8d runs       %8.0f runs/s  %d classes (%.2f coverage)\n",
				c.name, c.n, e.Mode, e.Schedules, e.RunsPerSec, e.Classes, e.Coverage)
		}
	}
	// Any failed measurement — exhaustive or reduced — fails the run, so
	// CI's bench step gates on it rather than burying it in the artifact.
	failed := false
	for _, e := range rep.Entries {
		if e.Error != "" {
			label := e.Reduction
			if label == "" {
				label = e.Mode
			}
			fmt.Fprintf(os.Stderr, "gsbbench: %s (%s): %s\n", e.Name, label, e.Error)
			failed = true
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbbench: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "gsbbench: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "gsbbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d entries)\n", *out, len(rep.Entries))

	if *compare != "" {
		failures, notes, regressed := compareReports(rep, base, *maxDrop, *maxAllocsGrowth)
		for _, n := range notes {
			fmt.Printf("  note: %s\n", n)
		}
		if len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintf(os.Stderr, "gsbbench: regression vs %s: %s\n", *compare, f)
			}
			explainRegressions(os.Stderr, regressed, *baselineProfiles, *profiles, *explainTop)
			os.Exit(1)
		}
		fmt.Printf("no regressions vs %s (max runs/sec drop %.0f%%, max allocs growth %.0f%%)\n", *compare, 100**maxDrop, 100**maxAllocsGrowth)
	}
	if failed {
		os.Exit(1)
	}
}
