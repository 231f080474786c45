package tasks

import (
	"context"
	"fmt"

	"repro/internal/gsb"
	"repro/internal/sched"
)

// ExploreVerified model-checks a protocol against its task specification:
// it runs build under every failure-free schedule (or, when
// opts.CrashRuns > 0, under a randomized crash-injection sweep; or, when
// opts.SampleRuns > 0, under a statistical sampling batch — see
// SampleVerified, to which it dispatches) using the parallel exploration
// engine, and verifies each run's outputs against spec — complete runs
// must produce a legal output vector, runs with crashes a legal
// completable prefix. It returns the number of schedules explored (for a
// sampling batch: runs executed; use SampleVerified directly for the
// coverage report).
//
// build is called once per run and must allocate fresh shared objects;
// with opts.Workers != 1 runs execute concurrently, which every protocol
// constructor in this repository supports (none share state across
// instances). A nil ctx means context.Background().
func ExploreVerified(ctx context.Context, spec gsb.Spec, ids []int, opts sched.ExploreOptions, build func(n int) Solver) (int, error) {
	if opts.SampleRuns > 0 {
		rep, err := SampleVerified(ctx, spec, ids, opts, build)
		return rep.Runs, err
	}
	n := spec.N()
	return sched.Explore(ctx, n, ids, opts,
		func() sched.Body { return Body(build(n)) },
		func(res *sched.Result) error { return VerifyResult(spec, res) })
}

// VerifyResult applies the RunVerified acceptance rule to one recorded
// run: spec.Verify on the full output vector of crash-free runs,
// spec.VerifyPartial on the decided prefix otherwise. It is the per-run
// check every verification mode in this repository shares — exploration,
// sampling, crash sweeps, and the campaign subsystem's resumable forms
// of all three.
func VerifyResult(spec gsb.Spec, res *sched.Result) error {
	crashed := false
	for _, c := range res.Crashed {
		crashed = crashed || c
	}
	if !crashed {
		out, derr := res.DecidedVector()
		if derr != nil {
			return fmt.Errorf("tasks: %w", derr)
		}
		if verr := spec.Verify(out); verr != nil {
			return fmt.Errorf("tasks: output %v violates %v: %w", out, spec, verr)
		}
		return nil
	}
	if verr := spec.VerifyPartial(res.Outputs, res.Decided); verr != nil {
		return fmt.Errorf("tasks: partial outputs violate %v: %w", spec, verr)
	}
	return nil
}
