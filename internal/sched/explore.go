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
// smallest pending process, recording every post-prefix decision point's
// pending set. Like porPolicy, one per exploration worker is re-armed by
// reset for every frontier item and records into reused arenas.
type explorePolicy struct {
	prefix  []int
	choices []int // process chosen at each decision
	// Decision j past the prefix saw pending set pend[lo:at[j]], with
	// lo = at[j-1] (0 for j = 0).
	at   []int
	pend []int

	slab  prefixSlab
	items []frontierItem // branchItems' reused result
}

// reset re-arms the policy for a run scripted by prefix (exhaustive mode
// has no sleep sets, so sleep0 is ignored).
//
//gsb:hotpath
func (e *explorePolicy) reset(prefix, _ []int) {
	e.prefix = prefix
	e.choices, e.at, e.pend = e.choices[:0], e.at[:0], e.pend[:0]
}

// Next implements Policy.
//
//gsb:hotpath
func (e *explorePolicy) Next(pending []int, _ int) Decision {
	step := len(e.choices)
	if step < len(e.prefix) {
		pick := e.prefix[step]
		if !containsSorted(pending, pick) {
			return Decision{Abort: true, Err: fmt.Errorf("%w: exploration prefix chose %d but pending is %v", ErrScheduleDiverged, pick, pending)}
		}
		e.choices = append(e.choices, pick) //gsb:alloc-ok reused e.choices, reset to [:0] per run
		return Decision{Proc: pick}
	}
	e.choices = append(e.choices, pending[0]) //gsb:alloc-ok reused e.choices, reset to [:0] per run
	e.pend = append(e.pend, pending...)       //gsb:alloc-ok reused e.pend arena, reset to [:0] per run
	e.at = append(e.at, len(e.pend))          //gsb:alloc-ok reused e.at arena, reset to [:0] per run
	return Decision{Proc: pending[0]}
}

// runChoices implements explorerPolicy.
//
//gsb:hotpath
func (e *explorePolicy) runChoices() []int { return e.choices }

// branchItems implements explorerPolicy: the unexplored sibling prefixes
// of a completed (or aborted) run — for every decision point past the
// replayed prefix, one new prefix per pending process larger than the one
// chosen (the chosen process is always the smallest pending). Exhaustive
// mode has no sleep sets. The returned slice is reused by the next call;
// the prefixes are carved from the policy's slab and are immutable.
//
//gsb:hotpath
func (e *explorePolicy) branchItems() []frontierItem {
	out := e.items[:0]
	lo := 0
	for j, hi := range e.at {
		i := len(e.prefix) + j
		pending := e.pend[lo:hi]
		lo = hi
		for _, alt := range pending[1:] {
			branch := e.slab.carve(i + 1)
			copy(branch, e.choices[:i])
			branch[i] = alt
			out = append(out, frontierItem{choices: branch}) //gsb:alloc-ok reused e.items, steady state after the widest run
		}
	}
	e.items = out
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

		policy := &explorePolicy{}
		policy.reset(prefix, nil)
		runner := NewRunner(n, ids, policy, WithMaxSteps(maxSteps))
		res, err := runner.Run(build())
		if err != nil {
			return runs, fmt.Errorf("sched: exploration run with prefix %v: %w", prefix, err)
		}
		runs++
		if err := check(res); err != nil {
			return runs, fmt.Errorf("sched: schedule %v violates property: %w", policy.choices, err)
		}
		for _, b := range policy.branchItems() {
			stack = append(stack, b.choices)
		}
	}
	return runs, nil
}
