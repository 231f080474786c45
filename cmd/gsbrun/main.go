// Command gsbrun executes one of the repository's wait-free protocols
// under a seeded adversarial scheduler and prints the run: the decided
// output vector, crash pattern, step counts and verification verdict.
// With -explore it instead model-checks the protocol over every
// failure-free schedule (or a randomized crash sweep when -crash > 0)
// using the parallel exploration engine; with -sample it statistically
// samples the schedule space — the mode for instances whose tree is
// beyond even partial-order-reduced exhaustion — and reports
// distinct-trace-class coverage.
//
// Usage:
//
//	gsbrun [-protocol slot-renaming] [-n 6] [-seed 1] [-crash 0.02] [-runs 1]
//	gsbrun -explore [-por] [-workers 8] [-maxruns 1000000] [-protocol slot-renaming] [-n 4]
//	gsbrun -sample 10000 [-pct-depth 3] [-workers 8] [-protocol slot-renaming] [-n 8]
//	gsbrun -json ...          # machine-readable NDJSON records on stdout
//
// -por enables partial-order reduction: the exploration executes one
// schedule per equivalence class of commuting shared-memory steps (ops on
// distinct objects, and read-only pairs on the same object, commute)
// instead of every interleaving, with identical verdicts.
//
// -sample N executes N seeded runs drawn by a uniform random walk over
// the pending set; -pct-depth d switches the sampler to PCT
// (probabilistic concurrency testing: random priorities plus d-1 seeded
// priority-change points, detecting a depth-d bug with probability >=
// 1/(n*k^(d-1)) per run). Batches are reproducible from -seed at any
// worker count, and a failing run is reported with a derived seed that
// replays it.
//
// -model selects the memory model mediating register and snapshot
// semantics (atomic, regular, safe, stale-snapshot; docs/models.md) and
// applies in every mode; -adversary selects the crash-sweep strategy
// (uniform-crash, t-resilient, adaptive) and needs -explore -crash > 0.
// Unknown names are usage errors listing the registered set.
//
// Protocols:
//
//	renaming       snapshot-based adaptive (2n-1)-renaming
//	grid           Moir-Anderson splitter-grid renaming (n(n+1)/2 names)
//	slot-renaming  Figure 2: (n+1)-renaming from an (n-1)-slot object
//	wsb            WSB from a (2n-2)-renaming oracle
//	renaming-wsb   (2n-2)-renaming from a WSB oracle
//	election       election from perfect renaming (TAS row)
//	universal      <n,3,1,n>-GSB via Theorem 8 from perfect renaming
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"repro"
)

// recordSchema versions the -json record format, so downstream consumers
// (the bench compare gate, campaign tooling, dashboards) can detect
// format drift instead of misparsing silently. Bump on any incompatible
// field change.
const recordSchema = "gsbrun/v1"

// record is the machine-readable result of one gsbrun invocation mode
// (-json): one record per sampled/explored batch, or one per run in
// seeded-run mode.
type record struct {
	Schema   string `json:"schema"`
	Protocol string `json:"protocol"`
	Task     string `json:"task"`
	Mode     string `json:"mode"` // run | explore | crash-sweep | sample-walk | sample-pct
	N        int    `json:"n"`
	Seed     int64  `json:"seed"`
	Workers  int    `json:"workers,omitempty"`
	// Model and Adversary name the execution model (docs/models.md);
	// absent means the defaults (atomic registers, uniform crashes).
	Model     string `json:"model,omitempty"`
	Adversary string `json:"adversary,omitempty"`
	// Schedules is the number of schedules/runs verified (trace classes
	// under -por; sampled runs under -sample).
	Schedules int `json:"schedules"`
	// Classes and Coverage report sampling's distinct-trace-class
	// coverage (classes hit, and classes/runs).
	Classes  int     `json:"classes,omitempty"`
	Coverage float64 `json:"coverage,omitempty"`
	PCTDepth int     `json:"pct_depth,omitempty"`
	OK       bool    `json:"ok"`
	// Violation carries the verdict of a failed batch, including the
	// violating schedule (explore) or the failing run (sample/sweep).
	// FailedRun/FailedSeed are pointers so that a failure at run index
	// 0 (or a derived seed of 0) still serializes: absent fields mean
	// "no per-run failure info", never "run 0".
	Violation  string `json:"violation,omitempty"`
	FailedRun  *int   `json:"failed_run,omitempty"`
	FailedSeed *int64 `json:"failed_seed,omitempty"`
	// Seeded-run mode only.
	Outputs []int `json:"outputs,omitempty"`
	Crashed []int `json:"crashed,omitempty"`
	Steps   int   `json:"steps,omitempty"`
}

func emitJSON(rec record) error {
	rec.Schema = recordSchema
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func main() {
	protocol := flag.String("protocol", "slot-renaming", "protocol to run")
	n := flag.Int("n", 6, "number of processes")
	seed := flag.Int64("seed", 1, "scheduler seed")
	crash := flag.Float64("crash", 0, "per-decision crash probability (up to n-1 crashes)")
	runs := flag.Int("runs", 1, "number of seeded runs (seeds seed..seed+runs-1); with -explore -crash, the crash-sweep run count")
	trace := flag.Bool("trace", false, "print the step timeline of each run")
	explore := flag.Bool("explore", false, "model-check the protocol over every failure-free schedule instead of sampling")
	workers := flag.Int("workers", 0, "exploration worker goroutines (0 = GOMAXPROCS); only with -explore/-sample")
	maxRuns := flag.Int("maxruns", 1<<20, "exploration run budget; only with -explore")
	por := flag.Bool("por", false, "partial-order reduction: explore one schedule per commuting-step equivalence class; only with -explore")
	porMemo := flag.Bool("por-memo", false, "the unfiltered sleep-set walk: the same schedules as -por, more runs; only with -explore")
	sample := flag.Int("sample", 0, "statistically sample this many seeded schedules (uniform random walk) and report trace-class coverage")
	pctDepth := flag.Int("pct-depth", 0, "with -sample, use the PCT sampler with this bug depth (d-1 priority-change points; 0 = random walk)")
	jsonOut := flag.Bool("json", false, "emit a machine-readable NDJSON result record per batch/run instead of text")
	model := flag.String("model", "", "memory model for register/snapshot semantics (see docs/models.md; default atomic)")
	adversary := flag.String("adversary", "", "crash adversary strategy for crash sweeps (see docs/models.md; default uniform-crash)")
	flag.Parse()

	if *n < 2 {
		fmt.Fprintln(os.Stderr, "gsbrun: need n >= 2")
		os.Exit(2)
	}
	// Registry names are validated eagerly so a typo is a usage error
	// with the registered names listed, not a late engine failure.
	if _, err := repro.MemModelByName(*model); err != nil {
		fmt.Fprintf(os.Stderr, "gsbrun: %v\n", err)
		os.Exit(2)
	}
	if _, err := repro.AdversaryByName(*adversary); err != nil {
		fmt.Fprintf(os.Stderr, "gsbrun: %v\n", err)
		os.Exit(2)
	}
	if *adversary != "" && !(*explore && *crash > 0) {
		fmt.Fprintln(os.Stderr, "gsbrun: -adversary selects a crash-sweep strategy and needs -explore -crash > 0")
		os.Exit(2)
	}
	// Explicitly naming a default is the same as not naming it: the
	// records (and campaign option hashes) of default runs stay
	// byte-identical to the pre-registry engine.
	if *model == repro.ModelAtomic {
		*model = ""
	}
	if *adversary == repro.AdversaryUniformCrash {
		*adversary = ""
	}
	reduction := repro.ReductionNone
	if *por {
		reduction = repro.ReductionSleepSets
	}
	if *porMemo {
		reduction = repro.ReductionSleepMemo
	}
	if *pctDepth > 0 && *sample <= 0 {
		fmt.Fprintln(os.Stderr, "gsbrun: -pct-depth needs -sample N")
		os.Exit(2)
	}
	if *sample > 0 && (*explore || *crash > 0 || *por || *porMemo || flagSet("maxruns")) {
		fmt.Fprintln(os.Stderr, "gsbrun: -sample conflicts with -explore/-crash/-por/-por-memo/-maxruns (pick one mode)")
		os.Exit(2)
	}
	if *sample > 0 {
		if err := sampleProtocol(*protocol, *n, *seed, *workers, *sample, *pctDepth, *model, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "gsbrun: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *explore {
		// -runs defaults to 1 for seeded runs; for a crash sweep an
		// unset -runs means a 1000-run sweep, but an explicit value —
		// even 1 — is honored.
		sweepRuns := *runs
		if !flagSet("runs") && *crash > 0 {
			sweepRuns = 1000
		}
		// Probability/budget validation happens inside the exploration
		// engine (ExploreOptions.Validate), so a bad -crash surfaces as
		// an error here rather than a panic in a worker goroutine.
		if err := exploreProtocol(*protocol, *n, *seed, *crash, *workers, *maxRuns, sweepRuns, reduction, *model, *adversary, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "gsbrun: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if math.IsNaN(*crash) || *crash < 0 || *crash > 1 {
		// The seeded-run path constructs the crash policy directly, so
		// validate here; the constructor panics on a bad probability.
		fmt.Fprintf(os.Stderr, "gsbrun: -crash %v outside [0, 1]\n", *crash)
		os.Exit(2)
	}
	for s := *seed; s < *seed+int64(*runs); s++ {
		if err := runOnce(*protocol, *n, s, *crash, *model, *trace, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "gsbrun: %v\n", err)
			os.Exit(1)
		}
	}
}

// flagSet reports whether the named flag was set explicitly.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// selectProtocol maps a -protocol name to its task spec and constructor:
// the registry shared with cmd/gsbcampaign (repro.SelectProtocol).
func selectProtocol(protocol string, n int, seed int64) (repro.Spec, func(n int) repro.Solver, error) {
	return repro.SelectProtocol(protocol, n, seed)
}

// sampleProtocol statistically samples the protocol's schedule space:
// sampleRuns seeded runs drawn by a uniform random walk, or by PCT when
// pctDepth > 0, each verified against the task, with distinct-trace-class
// coverage in the report.
func sampleProtocol(protocol string, n int, seed int64, workers, sampleRuns, pctDepth int, model string, jsonOut bool) error {
	spec, build, err := selectProtocol(protocol, n, seed)
	if err != nil {
		return err
	}
	mode := repro.SampleWalk
	if pctDepth > 0 {
		mode = repro.SamplePCT
	}
	opts := repro.ExploreOptions{Workers: workers, Seed: seed, SampleRuns: sampleRuns, SampleMode: mode, Depth: pctDepth, Model: model}
	rep, err := repro.SampleVerified(context.Background(), spec, repro.DefaultIDs(n), opts, build)
	if jsonOut {
		rec := record{
			Protocol:  protocol,
			Task:      spec.String(),
			Mode:      "sample-" + rep.Mode.String(),
			N:         n,
			Seed:      seed,
			Workers:   workers,
			Model:     model,
			Schedules: rep.Runs,
			Classes:   rep.Classes,
			Coverage:  rep.Coverage(),
			PCTDepth:  rep.Depth,
			OK:        err == nil,
		}
		if err != nil {
			rec.Violation = err.Error()
			if rep.FailedRun >= 0 {
				rec.FailedRun = &rep.FailedRun
				rec.FailedSeed = &rep.FailedSeed
			}
		}
		if jerr := emitJSON(rec); jerr != nil {
			return jerr
		}
		return err
	}
	if err != nil {
		return fmt.Errorf("after %d sampled runs (%d distinct trace classes): %w", rep.Runs, rep.Classes, err)
	}
	fmt.Printf("protocol=%s task=%v sampled %d schedules (%v", protocol, spec, rep.Runs, rep.Mode)
	if rep.Mode == repro.SamplePCT {
		fmt.Printf(", depth %d over a %d-step horizon", rep.Depth, rep.Horizon)
	}
	fmt.Printf(")\n")
	fmt.Printf("  %d runs verified against %v\n", rep.Runs, spec)
	fmt.Printf("  coverage: %d distinct trace classes (%.1f%% of runs found a new class)\n", rep.Classes, 100*rep.Coverage())
	return nil
}

// exploreProtocol model-checks the protocol: exhaustively over every
// failure-free schedule (one representative per commuting-step
// equivalence class under -por), or as a randomized crash sweep when
// crash > 0.
func exploreProtocol(protocol string, n int, seed int64, crash float64, workers, maxRuns, runs int, reduction repro.Reduction, model, adversary string, jsonOut bool) error {
	spec, build, err := selectProtocol(protocol, n, seed)
	if err != nil {
		return err
	}
	opts := repro.ExploreOptions{Workers: workers, MaxRuns: maxRuns, Seed: seed, Reduction: reduction, Model: model, Adversary: adversary}
	mode := "every failure-free schedule"
	recMode := "explore"
	if reduction != repro.ReductionNone {
		mode = fmt.Sprintf("every failure-free schedule (%v reduction)", reduction)
	}
	if crash > 0 {
		if runs < 1 {
			return fmt.Errorf("crash sweep needs -runs >= 1, got %d", runs)
		}
		opts.CrashRuns = runs
		opts.CrashProb = crash
		mode = fmt.Sprintf("%d crash-injected runs (p=%v)", runs, crash)
		recMode = "crash-sweep"
	}
	count, err := repro.ExploreVerified(context.Background(), spec, repro.DefaultIDs(n), opts, build)
	if jsonOut {
		rec := record{
			Protocol:  protocol,
			Task:      spec.String(),
			Mode:      recMode,
			N:         n,
			Seed:      seed,
			Workers:   workers,
			Model:     model,
			Adversary: adversary,
			Schedules: count,
			OK:        err == nil,
		}
		if err != nil {
			rec.Violation = err.Error()
		}
		if jerr := emitJSON(rec); jerr != nil {
			return jerr
		}
		return err
	}
	if err != nil {
		return fmt.Errorf("after %d schedules: %w", count, err)
	}
	fmt.Printf("protocol=%s task=%v explored %s\n", protocol, spec, mode)
	fmt.Printf("  %d schedules verified against %v\n", count, spec)
	return nil
}

func runOnce(protocol string, n int, seed int64, crash float64, model string, trace, jsonOut bool) error {
	spec, build, err := selectProtocol(protocol, n, seed)
	if err != nil {
		return err
	}
	var policy repro.Policy
	if crash > 0 {
		policy = repro.NewRandomCrashPolicy(seed, crash, n-1)
	} else {
		policy = repro.NewRandomPolicy(seed)
	}
	m, err := repro.MemModelByName(model)
	if err != nil {
		return err
	}
	res, err := repro.RunVerified(spec, repro.DefaultIDs(n), policy, build, repro.WithModel(m))
	if jsonOut {
		rec := record{
			Protocol: protocol,
			Task:     spec.String(),
			Mode:     "run",
			N:        n,
			Seed:     seed,
			Model:    model,
			OK:       err == nil,
		}
		if err != nil {
			rec.Violation = err.Error()
		} else {
			rec.Schedules = 1
			rec.Outputs = res.Outputs
			rec.Steps = res.Steps
			for i, c := range res.Crashed {
				if c {
					rec.Crashed = append(rec.Crashed, i)
				}
			}
		}
		if jerr := emitJSON(rec); jerr != nil {
			return jerr
		}
		return err
	}
	if err != nil {
		return err
	}
	fmt.Printf("protocol=%s task=%v seed=%d steps=%d\n", protocol, spec, seed, res.Steps)
	fmt.Printf("  outputs: %v\n", res.Outputs)
	crashed := []int{}
	for i, c := range res.Crashed {
		if c {
			crashed = append(crashed, i)
		}
	}
	if len(crashed) > 0 {
		fmt.Printf("  crashed processes: %v (undecided outputs print as 0)\n", crashed)
	}
	if trace {
		fmt.Print(repro.Timeline(n, res.Schedule))
		fmt.Print(repro.ScheduleSummary(n, res.Schedule))
	}
	fmt.Printf("  verification: ok\n")
	return nil
}
