package sched

import (
	"errors"
	"fmt"
)

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
// The exhaustive engine itself lives in explore_parallel.go; this file
// keeps the prefix-replay policy and the single-goroutine reference
// implementation that the parallel engine is differentially tested
// against.

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

// explorePolicy replays a fixed prefix of choices, then always picks the
// smallest pending process, recording every decision point's pending set.
type explorePolicy struct {
	prefix  []int
	choices []int   // process chosen at each decision
	pending [][]int // pending set observed at each decision
}

// Next implements Policy.
func (e *explorePolicy) Next(pending []int, _ int) Decision {
	step := len(e.choices)
	var pick int
	if step < len(e.prefix) {
		pick = e.prefix[step]
		found := false
		for _, p := range pending {
			if p == pick {
				found = true
				break
			}
		}
		if !found {
			return Decision{Abort: true, Err: fmt.Errorf("%w: exploration prefix chose %d but pending is %v", ErrScheduleDiverged, pick, pending)}
		}
	} else {
		pick = pending[0]
	}
	e.choices = append(e.choices, pick)
	e.pending = append(e.pending, append([]int(nil), pending...))
	return Decision{Proc: pick}
}

// runChoices implements explorerPolicy.
func (e *explorePolicy) runChoices() []int { return e.choices }

// branchItems implements explorerPolicy (exhaustive mode: no sleep sets).
func (e *explorePolicy) branchItems() []frontierItem {
	bs := e.branches()
	out := make([]frontierItem, len(bs))
	for i, b := range bs {
		out[i] = frontierItem{choices: b}
	}
	return out
}

// branches returns the unexplored sibling prefixes of a completed (or
// aborted) run: for every decision point at or past the replayed prefix,
// one new prefix per pending process larger than the one chosen (the
// chosen process is always the smallest pending).
func (e *explorePolicy) branches() [][]int {
	var out [][]int
	for i := len(e.prefix); i < len(e.choices); i++ {
		chosen := e.choices[i]
		for _, alt := range e.pending[i] {
			if alt <= chosen {
				continue
			}
			branch := make([]int, i+1)
			copy(branch, e.choices[:i])
			branch[i] = alt
			out = append(out, branch)
		}
	}
	return out
}

// ExploreSequential is the historical LIFO-stack depth-first exploration,
// kept as the reference implementation: the parallel engine is
// differentially tested and benchmarked against it. It runs the protocol
// under every failure-free schedule and invokes check on each completed
// run, returning the number of schedules explored; maxRuns bounds the
// exploration (ErrExplorationBudget beyond it) and maxSteps each run.
// Unlike Explore it stops at the first violation it meets, so build and
// check are invoked exactly once per schedule in DFS order. It
// deliberately constructs a fresh Runner per run — unlike the parallel
// engine, whose workers reuse one runner each via Reset — so the
// differential tests double as a reuse-versus-fresh equivalence check.
//
// The protocol must be deterministic given the schedule (true for every
// protocol in this repository; randomized protocols would make prefix
// replay diverge, which is detected and reported as ErrScheduleDiverged).
func ExploreSequential(n int, ids []int, maxRuns, maxSteps int, build func() Body, check func(*Result) error) (int, error) {
	stack := [][]int{{}}
	runs := 0
	for len(stack) > 0 {
		if runs >= maxRuns {
			return runs, fmt.Errorf("%w (after %d runs)", ErrExplorationBudget, runs)
		}
		prefix := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		policy := &explorePolicy{prefix: prefix}
		runner := NewRunner(n, ids, policy, WithMaxSteps(maxSteps))
		res, err := runner.Run(build())
		if err != nil {
			return runs, fmt.Errorf("sched: exploration run with prefix %v: %w", prefix, err)
		}
		runs++
		if err := check(res); err != nil {
			return runs, fmt.Errorf("sched: schedule %v violates property: %w", policy.choices, err)
		}
		stack = append(stack, policy.branches()...)
	}
	return runs, nil
}
