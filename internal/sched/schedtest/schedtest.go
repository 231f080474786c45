// Package schedtest holds the reference oracle the exploration engine is
// differentially tested and benchmarked against. Only tests import it, so
// no binary links it (make lint checks this).
//
// The oracle shares nothing with the engine but the Runner: it has its
// own depth-first prefix-replay policy written against the exported
// Policy API, one goroutine, a LIFO stack instead of the sharded
// frontier, and a fresh Runner per run instead of one reused runner per
// worker. An engine bug in the policy, the frontier or runner reuse
// therefore cannot hide by also appearing in its reference.
package schedtest

import (
	"fmt"
	"slices"

	"repro/internal/sched"
)

// dfsPolicy replays a fixed prefix of choices, then always grants the
// smallest pending process, recording the pending set of every decision
// past the prefix.
type dfsPolicy struct {
	prefix  []int
	choices []int   // process chosen at each decision
	pending [][]int // pending set at each decision past the prefix
}

// Next implements sched.Policy.
func (d *dfsPolicy) Next(pending []int, _ int) sched.Decision {
	if step := len(d.choices); step < len(d.prefix) {
		pick := d.prefix[step]
		if !slices.Contains(pending, pick) {
			return sched.Decision{Abort: true, Err: fmt.Errorf("%w: exploration prefix chose %d but pending is %v", sched.ErrScheduleDiverged, pick, pending)}
		}
		d.choices = append(d.choices, pick)
		return sched.Decision{Proc: pick}
	}
	d.pending = append(d.pending, slices.Clone(pending))
	d.choices = append(d.choices, pending[0])
	return sched.Decision{Proc: pending[0]}
}

// ExploreSequential is the LIFO-stack depth-first exploration of every
// failure-free schedule. It runs the protocol under each schedule and
// invokes check on each completed run, returning the number of schedules
// explored; maxRuns bounds the exploration (sched.ErrExplorationBudget
// beyond it) and maxSteps each run. Unlike sched.Explore it stops at the
// first violation it meets, so build and check are invoked exactly once
// per schedule in DFS order.
//
// The protocol must be deterministic given the schedule; a diverging
// replay is reported as sched.ErrScheduleDiverged.
func ExploreSequential(n int, ids []int, maxRuns, maxSteps int, build func() sched.Body, check func(*sched.Result) error) (int, error) {
	stack := [][]int{{}}
	runs := 0
	for len(stack) > 0 {
		if runs >= maxRuns {
			return runs, fmt.Errorf("%w (after %d runs)", sched.ErrExplorationBudget, runs)
		}
		prefix := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		policy := &dfsPolicy{prefix: prefix}
		res, err := sched.NewRunner(n, ids, policy, sched.WithMaxSteps(maxSteps)).Run(build())
		if err != nil {
			return runs, fmt.Errorf("schedtest: exploration run with prefix %v: %w", prefix, err)
		}
		runs++
		if err := check(res); err != nil {
			return runs, fmt.Errorf("schedtest: schedule %v violates property: %w", policy.choices, err)
		}
		// One branch per pending process larger than the one chosen (the
		// smallest), at every decision past the prefix.
		for j, pending := range policy.pending {
			i := len(prefix) + j
			for _, alt := range pending[1:] {
				stack = append(stack, append(slices.Clone(policy.choices[:i]), alt))
			}
		}
	}
	return runs, nil
}
