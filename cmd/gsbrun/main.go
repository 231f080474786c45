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
// Every verification mode (-explore, -explore -crash, -sample) is
// resolved as a campaign request (gsbcampaign start -mode exhaustive |
// por | por-memo | crash | walk | pct), so the protocol, options and
// their validation are the campaign library's.
//
// Exit codes: 0 verified, 1 violation or operational error, 2 usage: an
// invalid flag value, or a flag the selected mode does not read, exits 2
// in every mode, before anything runs.
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
	trace := flag.Bool("trace", false, "print the step timeline of each run; only in seeded-run mode")
	explore := flag.Bool("explore", false, "model-check the protocol over every failure-free schedule instead of sampling")
	workers := flag.Int("workers", 0, "exploration worker goroutines (0 = GOMAXPROCS); only with -explore/-sample")
	maxRuns := flag.Int("maxruns", 1<<20, "exploration run budget; only with -explore")
	por := flag.Bool("por", false, "partial-order reduction: explore one schedule per commuting-step equivalence class; only with -explore, without -crash")
	porMemo := flag.Bool("por-memo", false, "the unfiltered sleep-set walk: the same schedules as -por, more runs; only with -explore, without -crash")
	sample := flag.Int("sample", 0, "statistically sample this many seeded schedules (uniform random walk) and report trace-class coverage")
	pctDepth := flag.Int("pct-depth", 0, "with -sample, use the PCT sampler with this bug depth (d-1 priority-change points; 0 = random walk)")
	jsonOut := flag.Bool("json", false, "emit a machine-readable NDJSON result record per batch/run instead of text")
	model := flag.String("model", "", "memory model for register/snapshot semantics (see docs/models.md; default atomic)")
	adversary := flag.String("adversary", "", "crash adversary strategy for crash sweeps (see docs/models.md; default uniform-crash)")
	flag.Parse()

	if *pctDepth != 0 && *sample == 0 {
		usageError("-pct-depth needs -sample N")
	}
	if *sample != 0 && (*explore || *crash != 0 || *por || *porMemo || flagSet("maxruns")) {
		usageError("-sample conflicts with -explore/-crash/-por/-por-memo/-maxruns (pick one mode)")
	}
	// A flag the selected mode never reads is a usage error, not ignored.
	seeded := !*explore && *sample == 0
	for _, f := range []struct {
		name  string
		read  bool   // the selected mode reads the flag
		needs string // the modes that do
	}{
		{"por", *explore && *crash == 0, "-explore without -crash"},
		{"por-memo", *explore && *crash == 0, "-explore without -crash"},
		{"maxruns", *explore, "-explore"},
		{"workers", !seeded, "-explore or -sample"},
		{"trace", seeded, "a seeded run (no -explore or -sample)"},
		{"runs", seeded || *crash != 0, "a seeded run or -explore -crash"},
	} {
		if !f.read && flagSet(f.name) {
			usageError(fmt.Sprintf("-%s needs %s", f.name, f.needs))
		}
	}
	if *adversary != "" && !(*explore && *crash != 0) {
		usageError("-adversary selects a crash-sweep strategy and needs -explore -crash > 0")
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
	if seeded {
		runSeeded(*protocol, *n, *seed, *runs, *crash, *model, *trace, *jsonOut)
		return
	}

	// Every verification mode is a campaign request: the request
	// resolves the protocol and the engine options and validates both.
	req := repro.CampaignRequest{Protocol: *protocol, N: *n, Seed: *seed, Model: *model, Adversary: *adversary}
	switch {
	case *sample != 0 && *pctDepth != 0:
		req.Mode, req.Runs, req.PCTDepth = "pct", *sample, *pctDepth
	case *sample != 0:
		req.Mode, req.Runs = "walk", *sample
	case *crash != 0:
		// -runs defaults to 1 for seeded runs; for a crash sweep an
		// unset -runs means a 1000-run sweep, but an explicit value —
		// even 1 — is honored.
		req.Mode, req.Runs, req.CrashProb = "crash", *runs, *crash
		if !flagSet("runs") {
			req.Runs = 1000
		}
	case *porMemo:
		req.Mode = "por-memo"
	case *por:
		req.Mode = "por"
	default:
		req.Mode = "exhaustive"
	}
	if *explore {
		req.MaxRuns = *maxRuns
	}
	cfg, err := req.Config(0, 1, "")
	if err != nil {
		usageError(err.Error())
	}
	cfg.Opts.Workers = *workers
	if err := verify(req, cfg, *jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "gsbrun: %v\n", err)
		os.Exit(1)
	}
}

// usageError reports an invalid flag value and exits 2.
func usageError(msg string) {
	fmt.Fprintf(os.Stderr, "gsbrun: %s\n", msg)
	os.Exit(2)
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

// verify runs the verification a resolved request describes — a
// sampling batch in the walk and pct modes, an exploration or crash
// sweep otherwise — and reports it as one record (-json) or as text.
func verify(req repro.CampaignRequest, cfg repro.CampaignConfig, jsonOut bool) error {
	opts, spec := cfg.Opts, cfg.Spec
	rec := record{
		Protocol: req.Protocol, Task: spec.String(), N: req.N, Seed: req.Seed,
		Workers: opts.Workers, Model: req.Model, Adversary: req.Adversary,
	}
	var err error
	var failed string    // what a text-mode failure reports as done
	var summary []string // text-mode report lines
	switch req.Mode {
	case "walk", "pct":
		var rep repro.SampleReport
		rep, err = repro.SampleVerified(context.Background(), spec, repro.DefaultIDs(req.N), opts, cfg.Build)
		rec.Mode = "sample-" + rep.Mode.String()
		rec.Schedules, rec.Classes, rec.Coverage, rec.PCTDepth = rep.Runs, rep.Classes, rep.Coverage(), rep.Depth
		if err != nil && rep.FailedRun >= 0 {
			rec.FailedRun, rec.FailedSeed = &rep.FailedRun, &rep.FailedSeed
		}
		failed = fmt.Sprintf("%d sampled runs (%d distinct trace classes)", rep.Runs, rep.Classes)
		how := rep.Mode.String()
		if req.Mode == "pct" {
			how += fmt.Sprintf(", depth %d over a %d-step horizon", rep.Depth, rep.Horizon)
		}
		summary = []string{
			fmt.Sprintf("sampled %d schedules (%s)", rep.Runs, how),
			fmt.Sprintf("%d runs verified against %v", rep.Runs, spec),
			fmt.Sprintf("coverage: %d distinct trace classes (%.1f%% of runs found a new class)", rep.Classes, 100*rep.Coverage()),
		}
	default:
		rec.Schedules, err = repro.ExploreVerified(context.Background(), spec, repro.DefaultIDs(req.N), opts, cfg.Build)
		rec.Mode = "explore"
		how := "every failure-free schedule"
		switch req.Mode {
		case "crash":
			rec.Mode = "crash-sweep"
			how = fmt.Sprintf("%d crash-injected runs (p=%v)", req.Runs, req.CrashProb)
		case "por", "por-memo":
			how += fmt.Sprintf(" (%v reduction)", opts.Reduction)
		}
		failed = fmt.Sprintf("%d schedules", rec.Schedules)
		summary = []string{"explored " + how, fmt.Sprintf("%d schedules verified against %v", rec.Schedules, spec)}
	}
	if jsonOut {
		rec.OK = err == nil
		if err != nil {
			rec.Violation = err.Error()
		}
		if jerr := emitJSON(rec); jerr != nil {
			return jerr
		}
		return err
	}
	if err != nil {
		return fmt.Errorf("after %s: %w", failed, err)
	}
	fmt.Printf("protocol=%s task=%v %s\n", req.Protocol, spec, summary[0])
	for _, line := range summary[1:] {
		fmt.Printf("  %s\n", line)
	}
	return nil
}

// runSeeded executes the seeded runs seed..seed+runs-1. The protocol,
// model and crash probability are checked before the first run, so an
// invalid value is a usage error as in every other mode.
func runSeeded(protocol string, n int, seed int64, runs int, crash float64, model string, trace, jsonOut bool) {
	if n < 2 {
		usageError("need n >= 2")
	}
	if runs < 1 {
		usageError(fmt.Sprintf("-runs %d: need at least one run", runs))
	}
	if math.IsNaN(crash) || crash < 0 || crash > 1 {
		// The seeded-run path constructs the crash policy directly; the
		// constructor panics on a bad probability.
		usageError(fmt.Sprintf("-crash %v outside [0, 1]", crash))
	}
	if _, err := repro.MemModelByName(model); err != nil {
		usageError(err.Error())
	}
	if _, _, err := repro.SelectProtocol(protocol, n, seed); err != nil {
		usageError(err.Error())
	}
	for s := seed; s < seed+int64(runs); s++ {
		if err := runOnce(protocol, n, s, crash, model, trace, jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "gsbrun: %v\n", err)
			os.Exit(1)
		}
	}
}

func runOnce(protocol string, n int, seed int64, crash float64, model string, trace, jsonOut bool) error {
	spec, build, err := repro.SelectProtocol(protocol, n, seed)
	if err != nil {
		return err
	}
	m, err := repro.MemModelByName(model)
	if err != nil {
		return err
	}
	var policy repro.Policy
	if crash > 0 {
		policy = repro.NewRandomCrashPolicy(seed, crash, n-1)
	} else {
		policy = repro.NewRandomPolicy(seed)
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
