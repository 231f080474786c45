package tasks

import (
	"context"

	"repro/internal/gsb"
	"repro/internal/sample"
	"repro/internal/sched"
)

// SampleVerified statistically samples a protocol against its task
// specification: it executes opts.SampleRuns failure-free schedules drawn
// by the opts.SampleMode sampler (uniform random walk, or PCT with the
// opts.Depth bug-depth knob) on the seeded-run worker pool, verifies each
// run's outputs against spec, and reports distinct-trace-class coverage.
// This is the mode for instances whose schedule tree is beyond even the
// partial-order-reduced exhaustive walk: no enumeration guarantee, but a
// measured fraction of the schedule space and, with PCT, the per-run
// 1/(n*k^(Depth-1)) bug-detection guarantee.
//
// The batch is deterministic given opts.Seed (same schedules at any
// worker count); a violation reports the smallest failing run index with
// a derived seed that replays it. build is called once per run and must
// allocate fresh shared objects, exactly as for ExploreVerified.
func SampleVerified(ctx context.Context, spec gsb.Spec, ids []int, opts sched.ExploreOptions, build func(n int) Solver) (sample.Report, error) {
	n := spec.N()
	return sample.Explore(ctx, n, ids, opts,
		func() sched.Body { return Body(build(n)) },
		func(res *sched.Result) error { return VerifyResult(spec, res) })
}
