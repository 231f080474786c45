package sched

import "fmt"

// CrashSweepPolicies returns the per-run policy constructor of a crash
// sweep under opts: run i is scheduled by the registered adversary's
// policy (opts.Adversary; uniform-crash — RandomCrash — by default)
// seeded with DeriveRunSeed(opts.Seed, i). The campaign subsystem uses
// it to resume a sweep through the seeded-run pool (SeededSlice) with
// exactly the policies Explore would construct: every adversary's
// state is a pure function of the run index, so resuming reconstructs it
// without serializing policy internals.
func CrashSweepPolicies(n int, opts ExploreOptions) func(run int) Policy {
	opts = opts.withDefaults(n)
	return adversaryFor(opts).policies(n, opts)
}

// CrashSweepCheck returns the per-run visit function of a crash sweep:
// run errors and property violations are wrapped with the run index and
// its derived (replayable) seed, exactly as Explore reports them.
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
