package sched

import "errors"

// This file is a "model checker lite": it enumerates EVERY failure-free
// schedule of a deterministic protocol (the tree of adversary choices)
// and checks a property on each complete run. Protocols are deterministic
// given the schedule, so stateless re-execution with a scripted prefix
// explores the full tree. Crash choices are excluded from the exhaustive
// tree — the crash-free schedule space is already exponential — and are
// covered instead by the randomized crash sweep mode of Explore (set
// ExploreOptions.CrashRuns), which distributes seeded crash-injected runs
// over the same worker pool.
//
// The engine itself lives in explore_parallel.go and its prefix-replay
// policy in por.go (one policy for every Reduction); the single-goroutine
// reference implementation that the engine is differentially tested
// against is the test-only package schedtest.

// ErrExplorationBudget is returned when the schedule tree exceeds the
// caller's run budget.
var ErrExplorationBudget = errors.New("sched: exploration budget exhausted")

// ErrScheduleDiverged is returned (wrapped) by Runner.Run when a
// prefix-replay policy finds that the scripted process has no pending
// step: the protocol behaved differently than it did when the prefix was
// recorded, i.e. it is not a deterministic function of the schedule.
// Exploration and sampling surface it as a per-run failure instead of a
// panic, so one non-deterministic protocol cannot kill a worker pool.
var ErrScheduleDiverged = errors.New("sched: schedule replay diverged (non-deterministic protocol?)")
