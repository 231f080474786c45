// Package sample is the statistical sampling subsystem of the engine:
// instead of enumerating the schedule tree, it executes a fixed number of
// independently seeded runs drawn by a sampler — a uniform random walk
// (sched.SampleWalk) or probabilistic concurrency testing
// (sched.SamplePCT) — and reports schedule-space coverage as the number
// of distinct Mazurkiewicz trace classes among the verified runs.
//
// Both samplers ride the seeded-run pool (sched.SeededSlice): run i's
// schedule is a pure function of sched.DeriveRunSeed(Seed, i), so every
// report is reproducible at any worker count, any failing run is
// replayable from its derived seed alone, and batches checkpoint, resume
// and shard exactly. ResumableBatch is the subsystem's one execution path
// (Init, Slice, Finalize): Explore, the one-shot entry point, is one
// unbounded slice of it, and tasks.ExploreVerified dispatches there when
// sched.ExploreOptions.SampleRuns is set.
//
// A failing run's error is a *RunError in the process that ran it, so
// Explore always returns one. A state restored from a checkpoint keeps
// only the error's text: Finalize over it returns an error with the
// same text, not a *RunError.
package sample

import (
	"context"
	"fmt"

	"repro/internal/sched"
)

// Report is the outcome of a sampling batch. All fields are deterministic
// given the options (worker count included): the set of schedules is a
// pure function of Seed, and classes are counted over the runs up to and
// including the reported one, which is itself interleaving-independent.
type Report struct {
	Mode  sched.SampleMode
	Depth int // PCT bug depth used; 0 in walk mode
	// Horizon is the step horizon over which PCT priority-change points
	// were drawn — measured by a deterministic probe run (round-robin
	// schedule), falling back to the step budget if the probe fails.
	// 0 in walk mode.
	Horizon int
	// Runs is the number of runs executed and verified: SampleRuns on
	// success, the failing run's 1-based index on failure.
	Runs int
	// Classes is the number of distinct Mazurkiewicz trace classes
	// among those runs (Foata canonical-trace hash over the
	// OpIndependent commutation relation) — the batch's measured
	// schedule-space coverage, as opposed to its raw run count.
	Classes int
	// FailedRun is the smallest failing run index, -1 when every run
	// verified. FailedSeed is that run's derived policy seed: rebuild
	// the run's policy from it (sched.NewRandom in walk mode, NewPCT
	// with the report's Depth and Horizon in PCT mode) to replay the
	// violating schedule exactly.
	FailedRun  int
	FailedSeed int64
}

// Coverage is the distinct-class fraction of the batch: Classes/Runs.
// Values near 1 mean nearly every run found a new trace class (the
// sampled space is far from saturated); values near 0 mean the batch is
// revisiting classes and Classes approaches the true class count.
func (r Report) Coverage() float64 {
	if r.Runs == 0 {
		return 0
	}
	return float64(r.Classes) / float64(r.Runs)
}

// RunError is the failure of one sampled run: the property violation (or
// runner error) of the smallest failing run index. It wraps the
// underlying error and carries everything needed to replay the run.
type RunError struct {
	Mode      sched.SampleMode
	Run       int   // run index within the batch
	Seed      int64 // derived policy seed (sched.DeriveRunSeed)
	Violation bool  // property violation (vs. a runner error)
	Err       error
}

// Error implements error.
func (e *RunError) Error() string {
	if e.Violation {
		return fmt.Sprintf("sample: %v run %d (seed %d) violates property: %v", e.Mode, e.Run, e.Seed, e.Err)
	}
	return fmt.Sprintf("sample: %v run %d (seed %d): %v", e.Mode, e.Run, e.Seed, e.Err)
}

// Unwrap implements errors.Unwrap.
func (e *RunError) Unwrap() error { return e.Err }

// Explore executes opts.SampleRuns sampled failure-free schedules of the
// protocol over the seeded-run pool (opts.Workers goroutines), invoking
// check on each completed run, and reports distinct-trace-class coverage.
// opts.SampleMode picks the sampler (SampleWalk or SamplePCT, with
// opts.Depth the PCT bug-depth knob); run i is scheduled by a policy
// seeded with sched.DeriveRunSeed(opts.Seed, i), so the batch is
// reproducible at any worker count.
//
// On a failing run the returned error is a *RunError for the smallest
// failing index (interleaving-independent, mirroring the crash sweep) and
// the report's FailedRun/FailedSeed identify the replayable run; the
// report is returned alongside the error with the coverage measured over
// the runs up to and including the failing one.
//
// Explore is one unbounded ResumableBatch slice followed by its Finalize,
// the path a checkpointed sampling campaign takes in bounded slices.
func Explore(ctx context.Context, n int, ids []int, opts sched.ExploreOptions, build func() sched.Body, check func(*sched.Result) error) (Report, error) {
	r := &ResumableBatch{N: n, IDs: ids, Opts: opts, Build: build, Check: check}
	st, err := r.Init(0, 1)
	if err == nil {
		st, _, err = r.Slice(ctx, st, 0)
	}
	if err != nil {
		return Report{Mode: opts.SampleMode, FailedRun: -1}, err
	}
	return r.Finalize(ctx, st)
}

// ProbeHorizon measures the protocol's run length under a deterministic
// round-robin schedule in the batch's memory model, for drawing PCT
// change points over a realistic step range: drawing over the worst-case
// step budget (sched.DefaultMaxSteps by default) would land almost every
// change point past the end of the run and silently degrade PCT to plain
// priority scheduling, and measuring under another model than the runs
// execute in would leave the tail of every run without a change point.
// It is deterministic, which is what lets every shard of a campaign
// measure it independently and agree.
func ProbeHorizon(n int, ids []int, maxSteps int, model sched.MemModel, build func() sched.Body) int {
	runner := sched.NewRunner(n, ids, sched.NewRoundRobin(), sched.WithMaxSteps(maxSteps), sched.WithModel(model))
	res, err := runner.Run(build())
	if err != nil || res.Steps < 1 {
		return maxSteps
	}
	return res.Steps
}
