package sched

import (
	"context"
	"fmt"
)

// ExploreCrashes runs a randomized crash-injection sweep behind the same
// worker-pool API as the exhaustive exploration: opts.CrashRuns runs, each
// scheduled by the registered adversary's crash policy (opts.Adversary,
// uniform-crash by default) seeded deterministically from
// opts.Seed and the run index (DeriveRunSeed), distributed over
// opts.Workers goroutines by the seeded-run pool: one unbounded
// SeededSlice settled by FinalizeSeeded, the path a checkpointed crash
// campaign takes in bounded slices. check sees every completed run,
// including runs with crashed processes (Result.Crashed reports which).
//
// On success the returned count is exactly opts.CrashRuns. On failure the
// reported run is the one with the smallest index whose property check
// (or execution) failed — independent of worker interleaving — and the
// count is that run's 1-based index. On cancellation the count is the
// number of runs that actually executed. Explore dispatches here when
// opts.CrashRuns > 0.
func ExploreCrashes(ctx context.Context, n int, ids []int, opts ExploreOptions, build func() Body, check func(*Result) error) (int, error) {
	if err := opts.Validate(); err != nil {
		return 0, err
	}
	if opts.CrashRuns <= 0 {
		return 0, fmt.Errorf("sched: crash sweep needs CrashRuns > 0 (got %d)", opts.CrashRuns)
	}
	st, _, err := SeededSlice(ctx, n, ids, opts, opts.CrashRuns,
		CrashSweepPolicies(n, opts), build, CrashSweepCheck(n, opts, check), nil, 0)
	if err != nil {
		return 0, err
	}
	count, _, err := FinalizeSeeded(ctx, opts.CrashRuns, st)
	return count, err
}

// CrashSweepPolicies returns the per-run policy constructor of a crash
// sweep under opts: run i is scheduled by the registered adversary's
// policy (opts.Adversary; uniform-crash — RandomCrash — by default)
// seeded with DeriveRunSeed(opts.Seed, i). The campaign subsystem uses
// it to resume a sweep through the seeded-run pool (SeededSlice) with
// exactly the policies ExploreCrashes would construct: every adversary's
// state is a pure function of the run index, so resuming reconstructs it
// without serializing policy internals.
func CrashSweepPolicies(n int, opts ExploreOptions) func(run int) Policy {
	opts = opts.withDefaults(n)
	return adversaryFor(opts).policies(n, opts)
}

// CrashSweepCheck returns the per-run visit function of a crash sweep:
// run errors and property violations are wrapped with the run index and
// its derived (replayable) seed, exactly as ExploreCrashes reports them.
func CrashSweepCheck(n int, opts ExploreOptions, check func(*Result) error) func(run int, res *Result, err error) error {
	opts = opts.withDefaults(n)
	return func(i int, res *Result, err error) error {
		if err != nil {
			return fmt.Errorf("sched: crash sweep run %d (seed %d): %w", i, DeriveRunSeed(opts.Seed, i), err)
		}
		if check == nil {
			return nil
		}
		if cerr := check(res); cerr != nil {
			return fmt.Errorf("sched: crash sweep run %d (seed %d) violates property: %w", i, DeriveRunSeed(opts.Seed, i), cerr)
		}
		return nil
	}
}
