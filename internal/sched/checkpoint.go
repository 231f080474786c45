package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// This file is the checkpoint layer of the exhaustive/POR engine: the
// discovery pass runs in bounded slices, and between slices its entire
// state — the unexplored frontier (with sleep sets), the run counters and
// the best failure — is a plain serializable value. The key invariant
// making this exact rather than approximate: the sleep-set walk keeps no
// cross-subtree state outside the frontier items themselves (each item
// carries its own sleep set), so the set of runs executed from a frontier
// F is a pure function of F, never of how the engine arrived at F.
// Processing any subset of F and collecting the remainder therefore
// commutes with worker interleaving, process death and machine boundaries
// alike — which is what lets a campaign resume after a kill, and lets
// disjoint partitions of F run as shards on different machines and be
// merged.
//
// This is the engine's only execution path: the one-shot Explore is one
// unbounded Slice plus Finalize, a campaign is a sequence of bounded
// slices plus Finalize, and a shard merge is Finalize over the shard
// states. A failure restored from a checkpoint carries only its rendered
// message (error chains do not serialize), and the counting pass that
// fixes the schedule count below a violation runs in Finalize from the
// root rather than being checkpointed — it is read-only, pruned by the
// settled bound, and much cheaper than discovery.

// ExploreState is the serializable discovery-pass state of the
// exhaustive/partial-order-reduced exploration engine: everything needed
// to continue (or merge) an exploration is in this value. The zero value
// is not meaningful; use RootExploreState for a fresh exploration.
type ExploreState struct {
	// Frontier is the unexplored work: one entry per schedule prefix
	// whose subtree has not been walked, sorted lexicographically (the
	// order is cosmetic — any permutation resumes to the same outcome).
	Frontier []FrontierState `json:"frontier"`
	// Claimed counts run-budget slots consumed so far (schedules plus,
	// under reduction, pruned probe runs); MaxRuns is enforced against
	// it across resumes.
	Claimed int64 `json:"claimed"`
	// Completed counts verified schedules (trace classes under
	// reduction).
	Completed int64 `json:"completed"`
	// Failure is the lexicographically smallest failed run seen so far,
	// nil while every run has verified.
	Failure *FailureState `json:"failure,omitempty"`
}

// FrontierState is one serialized frontier item: a schedule prefix and,
// under partial-order reduction, the sleep set at the node it reaches.
type FrontierState struct {
	Choices []int `json:"choices"`
	Sleep   []int `json:"sleep,omitempty"`
}

// FailureState is a serialized exploration failure. Only the rendered
// message survives serialization; a restored failure compares equal to
// the original by text, not by errors.Is identity. The explorer records
// its smallest failure as this value and never modifies one once
// recorded, so the states it returns share it.
type FailureState struct {
	Choices []int  `json:"choices"`
	Message string `json:"message"`
	err     error  // live error when the failure happened in this process
}

// Err returns the failure's error: the original error value when the
// failure was recorded in this process, or an opaque error carrying the
// checkpointed message after a restore.
func (f *FailureState) Err() error {
	if f.err != nil {
		return f.err
	}
	return errors.New(f.Message)
}

// RootExploreState is the initial state of a fresh exploration: the
// frontier holds only the root (unconstrained) prefix.
func RootExploreState() *ExploreState {
	return &ExploreState{Frontier: []FrontierState{{Choices: []int{}}}}
}

// done reports whether discovery has drained: no frontier left to walk.
func (s *ExploreState) done() bool { return len(s.Frontier) == 0 }

// ResumableExplorer drives the exhaustive/POR engine in bounded slices
// with serializable state between them — the campaign subsystem's view of
// the engine. N, IDs, Opts, Build and Check play exactly the roles they
// do for Explore; Opts must describe an enumerating mode (SampleRuns and
// CrashRuns are rejected — those modes resume via the seeded-run pool,
// see SeededSlice).
type ResumableExplorer struct {
	N     int
	IDs   []int
	Opts  ExploreOptions
	Build func() Body
	Check func(*Result) error
}

func (r *ResumableExplorer) validate() (ExploreOptions, error) {
	if err := r.Opts.Validate(); err != nil {
		return r.Opts, err
	}
	if r.Opts.SampleRuns > 0 || r.Opts.CrashRuns > 0 {
		return r.Opts, fmt.Errorf("sched: resumable exploration is the enumerating engine; sampling and crash sweeps resume via SeededSlice")
	}
	return r.Opts.withDefaults(r.N), nil
}

// Slice advances the discovery pass from state by at most sliceRuns
// claimed runs (0 means no slice bound), returning the advanced state and
// whether discovery is complete. A nil state means RootExploreState().
//
// Slice returns early — with the state of the work done so far, complete
// and resumable — when ctx is canceled: frontier items already popped by
// a worker are processed to completion (their results counted, their
// branches pushed), un-popped items are collected back into the state,
// so nothing is lost or double-counted. A slice of sliceRuns runs claims
// exactly that many run-budget slots unless discovery drains first. The only error conditions are invalid options
// and an exhausted MaxRuns budget. The budget is terminal rather than
// resumable: the error comes with the collected state, whose Claimed then
// exceeds MaxRuns, and Finalize settles it into the budget verdict.
func (r *ResumableExplorer) Slice(ctx context.Context, state *ExploreState, sliceRuns int) (*ExploreState, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts, err := r.validate()
	if err != nil {
		return state, false, err
	}
	if state == nil {
		state = RootExploreState()
	}
	if state.done() {
		return state, true, nil
	}

	e := newExplorer(ctx, r.N, r.IDs, opts, r.Build, r.Check, nil)
	e.claimed.Store(state.Claimed)
	e.completed.Store(state.Completed)
	e.best = state.Failure
	for i, it := range state.Frontier {
		e.pushTo(i%len(e.shards), frontierItem{
			choices: append([]int(nil), it.Choices...),
			sleep:   append([]int(nil), it.Sleep...),
		})
	}
	e.sliceRuns = int64(sliceRuns)
	e.runWorkers()

	next := e.collectState()
	if e.budgetHit.Load() {
		return next, false, fmt.Errorf("%w (after %d runs)", ErrExplorationBudget, opts.MaxRuns)
	}
	return next, next.done(), nil
}

// collectState snapshots an explorer whose workers have exited into a
// serializable state. The frontier is sorted lexicographically so the
// serialized form is a deterministic function of its contents.
func (e *explorer) collectState() *ExploreState {
	st := &ExploreState{
		Claimed:   e.claimed.Load(),
		Completed: e.completed.Load(),
		Failure:   e.best,
	}
	for _, s := range e.shards {
		s.mu.Lock()
		for _, it := range s.items {
			st.Frontier = append(st.Frontier, FrontierState{Choices: it.choices, Sleep: it.sleep})
		}
		s.mu.Unlock()
	}
	sort.Slice(st.Frontier, func(i, j int) bool {
		return lexLess(st.Frontier[i].Choices, st.Frontier[j].Choices)
	})
	if st.Frontier == nil {
		st.Frontier = []FrontierState{}
	}
	return st
}

// Finalize turns one or more completed discovery states — the one state
// of a one-shot Explore or a single campaign, or the per-shard states of a
// sharded one — into the (count, err) verdict: the number of verified
// schedules (trace classes under reduction), and on failure the
// lexicographically smallest violation with the count of schedules up to
// and including it, recomputed by a counting pass against the settled
// global bound. This is the engine's only
// counting pass.
//
// It is an error to finalize a state whose frontier has not drained,
// except for the two terminal stops of a slice: a state whose Claimed
// exceeds MaxRuns settles as budget exhaustion (count MaxRuns, or the
// verified schedules under reduction), and when ctx is canceled an
// undrained state settles as the cancellation.
func (r *ResumableExplorer) Finalize(ctx context.Context, states ...*ExploreState) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts, err := r.validate()
	if err != nil {
		return 0, err
	}
	if len(states) == 0 {
		return 0, fmt.Errorf("sched: finalize needs at least one exploration state")
	}
	var (
		completed int64
		best      *FailureState
		budgetHit bool
		canceled  bool
	)
	for i, st := range states {
		if st == nil {
			return 0, fmt.Errorf("sched: finalize of shard %d: nil exploration state", i)
		}
		switch {
		case st.Claimed > int64(opts.MaxRuns):
			budgetHit = true
		case st.done():
		case ctx.Err() != nil:
			canceled = true
		default:
			return 0, fmt.Errorf("sched: finalize of shard %d: discovery has not drained (%d frontier items left)", i, len(st.Frontier))
		}
		completed += st.Completed
		if st.Failure != nil && (best == nil || lexLess(st.Failure.Choices, best.Choices)) {
			best = st.Failure
		}
	}
	if best == nil {
		switch {
		case budgetHit:
			count := opts.MaxRuns
			if opts.Reduction != ReductionNone {
				// Under reduction the claimed budget slots include pruned
				// probe runs; report only the schedules actually verified.
				count = int(completed)
			}
			return count, fmt.Errorf("%w (after %d runs)", ErrExplorationBudget, opts.MaxRuns)
		case canceled:
			return int(completed), fmt.Errorf("sched: exploration canceled: %w", ctx.Err())
		}
		return int(completed), nil
	}
	// The counting pass: re-walk the tree pruned against the settled
	// lexicographic bound. If discovery drained without exhausting
	// MaxRuns, the recount — which visits a subset of discovery's
	// prefixes — cannot exhaust it either, so the count is exact;
	// otherwise the truncation is surfaced on the returned error. It
	// re-runs schedules discovery already counted, so it publishes no
	// stats: the observed totals describe the verification work, not the
	// bookkeeping replay.
	opts.Stats = nil
	recount := newExplorer(ctx, r.N, r.IDs, opts, r.Build, nil, best.Choices)
	recount.pushTo(0, frontierItem{choices: []int{}})
	recount.runWorkers()
	count := int(recount.countBelow.Load()) + 1
	ferr := best.Err()
	if budgetHit || recount.budgetHit.Load() {
		ferr = fmt.Errorf("%w (schedule count truncated: %w)", ferr, ErrExplorationBudget)
	} else if cerr := ctx.Err(); cerr != nil {
		ferr = fmt.Errorf("%w (schedule count truncated: exploration canceled: %w)", ferr, cerr)
	}
	return count, ferr
}

// SeedShards deterministically splits a fresh exploration into m shard
// states whose independent walks union to exactly the single-process walk:
// it expands the tree single-threaded in depth-first order for a fixed
// number of runs (a pure function of m), then deals the resulting frontier
// round-robin — in lexicographic order — across the shards. The
// expansion's own results (counted schedules, any failure) are attributed
// to shard 0 — and so is its stats output: every shard re-runs the same
// deterministic expansion, so shards other than 0 expand with Opts.Stats
// stripped and the summed shard totals equal an unsharded run's. Shards
// beyond the frontier size receive empty (immediately complete) states.
//
// Each shard of a campaign calls SeedShards itself and keeps only its
// partition: the expansion is deterministic, so coordination-free.
func (r *ResumableExplorer) SeedShards(ctx context.Context, m int) ([]*ExploreState, error) {
	if m < 1 {
		return nil, fmt.Errorf("sched: shard count must be >= 1 (got %d)", m)
	}
	if m == 1 {
		return []*ExploreState{RootExploreState()}, nil
	}
	seed := *r
	seed.Opts.Workers = 1 // single-threaded: the expansion order is the DFS order
	seedRuns := 16 * m
	st, _, err := seed.Slice(ctx, nil, seedRuns)
	if err != nil {
		return nil, fmt.Errorf("sched: shard seeding: %w", err)
	}
	states := make([]*ExploreState, m)
	for i := range states {
		states[i] = &ExploreState{Frontier: []FrontierState{}}
	}
	// Shard 0 carries the expansion's results; the frontier (already
	// lex-sorted by collectState) is dealt round-robin so every shard
	// gets a mix of shallow and deep prefixes.
	states[0].Claimed = st.Claimed
	states[0].Completed = st.Completed
	states[0].Failure = st.Failure
	for j, it := range st.Frontier {
		s := states[j%m]
		s.Frontier = append(s.Frontier, it)
	}
	return states, nil
}
