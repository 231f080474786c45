package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// This file is the seeded-run pool: the worker-pool driver shared by every
// statistical mode of the engine — the crash-injection sweep
// (crashsweep.go) and the schedule samplers of internal/sample. Each run
// is scheduled by a policy derived deterministically from a sweep seed and
// the run index, so a sweep of any size is reproducible, any single run is
// replayable from its derived seed alone, and the aggregate outcome (the
// smallest failing run index) is independent of worker interleaving.

// DeriveRunSeed derives the per-run policy seed of run i of a seeded
// sweep: a splitmix64-style mix of the sweep seed and the run index.
// Sweeps are reproducible (same seed, same i, same derived seed — and,
// with a deterministic policy, the same schedule at any worker count) and
// runs are decorrelated (nearby indices yield unrelated streams).
//
// This is the single definition of seed→schedule reproducibility: the
// crash sweep, the random-walk sampler and the PCT sampler all seed their
// per-run policies through it, so a failing run reported by any of them
// can be replayed by reconstructing the same policy from the derived
// seed.
func DeriveRunSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// SampleMode selects the statistical sampler run by the sample subsystem
// when ExploreOptions.SampleRuns > 0 (see internal/sample).
type SampleMode int

const (
	// SampleWalk is the uniform random walk: every decision picks
	// uniformly at random among the pending processes, seeded per run
	// via DeriveRunSeed. Schedules are sampled from the leaf
	// distribution of the pending-choice tree (not uniformly over
	// schedules), which in practice spreads probability over many
	// Mazurkiewicz trace classes per run batch.
	SampleWalk SampleMode = iota
	// SamplePCT is probabilistic concurrency testing (Burckhardt et al.):
	// random process priorities plus Depth-1 seeded priority-change
	// points, always granting the highest-priority pending process. A
	// bug of depth d is found with probability >= 1/(n*k^(d-1)) per run
	// (n processes, k steps), a guarantee uniform walks do not give.
	SamplePCT
)

// String implements fmt.Stringer.
func (m SampleMode) String() string {
	switch m {
	case SampleWalk:
		return "walk"
	case SamplePCT:
		return "pct"
	default:
		return fmt.Sprintf("SampleMode(%d)", int(m))
	}
}

func (m SampleMode) valid() bool {
	return m == SampleWalk || m == SamplePCT
}

// SeededState is the serializable state of a (possibly sharded) seeded
// batch: shard Shard of Of owns the global run indices Shard, Shard+Of,
// Shard+2*Of, …, and has executed the first Next of them. Because local
// indices are claimed strictly in order and every claimed pre-failure
// index is executed before a slice returns, (Shard, Of, Next, Failure)
// is an exact resume point: re-running from it executes exactly the runs
// an uninterrupted batch would have. The zero value of Shard/Of means
// shard 0 of 1 (the whole batch).
type SeededState struct {
	Shard int   `json:"shard"`
	Of    int   `json:"of"`
	Next  int64 `json:"next"`
	// Completed counts runs executed to completion (equal to Next except
	// after a failure, where claimed-but-skipped indices are not run).
	Completed int64 `json:"completed"`
	// Failure is the smallest failing run of the shard, nil while every
	// run has verified.
	Failure *SeededFailure `json:"failure,omitempty"`
}

// SeededFailure is a serialized seeded-run failure: the global run index
// and the rendered error. As with FailureState, only the message survives
// serialization.
type SeededFailure struct {
	Run     int    `json:"run"`
	Message string `json:"message"`
	err     error
}

// Err returns the failure's error: the original value when recorded in
// this process, or an opaque error with the checkpointed message.
func (f *SeededFailure) Err() error {
	if f.err != nil {
		return f.err
	}
	return errors.New(f.Message)
}

// normalized returns the state with zero-valued sharding defaulted to
// shard 0 of 1.
func (s *SeededState) normalized() *SeededState {
	if s == nil {
		s = &SeededState{}
	}
	if s.Of <= 0 {
		s = &SeededState{Shard: s.Shard, Of: 1, Next: s.Next, Completed: s.Completed, Failure: s.Failure}
	}
	return s
}

// localTotal is the number of global indices < total owned by the shard.
func (s *SeededState) localTotal(total int) int64 {
	if total <= s.Shard {
		return 0
	}
	return int64((total-s.Shard-1)/s.Of + 1)
}

// SeededDone reports whether the batch described by state is complete for
// a batch of total runs: the shard's index space is exhausted, or a
// failure has settled the outcome (indices are claimed in order, so no
// later run can precede it).
func (s *SeededState) SeededDone(total int) bool {
	s = s.normalized()
	return s.Failure != nil || s.Next >= s.localTotal(total)
}

// SeededSlice advances a seeded batch of total runs from state by at most
// sliceRuns runs (0 means no slice bound) over a pool of opts.Workers
// goroutines: run i of the shard's index space is scheduled by
// policyFor(globalIndex) against a fresh build() instance, and
// visit(globalIndex, res, err) sees its outcome. It returns the advanced
// state and whether the batch is complete (see SeededDone). A nil state
// means shard 0 of 1 from the beginning. The crash sweep and the
// statistical samplers are both built on this driver, and FinalizeSeeded
// settles its states into their verdict.
//
// visit is called concurrently from the workers (at most once per run
// index) and must be safe for concurrent use; a non-nil error it returns
// marks run i failed. The state keeps the failure with the smallest
// index — independent of worker interleaving, because indices are
// claimed in order and later runs cannot precede an already-recorded
// smaller failure.
//
// Like ResumableExplorer.Slice, a pause (ctx canceled) returns early
// with an exact resume point: runs already claimed finish, no new ones
// start. The returned error reports only invalid arguments;
// per-run failures live in the state's Failure field, which settles the
// batch (SeededDone) without being an error of the pool itself.
func SeededSlice(ctx context.Context, n int, ids []int, opts ExploreOptions, total int,
	policyFor func(run int) Policy, build func() Body, visit func(run int, res *Result, err error) error,
	state *SeededState, sliceRuns int) (*SeededState, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.Validate(); err != nil {
		return state, false, err
	}
	if total <= 0 {
		return state, false, fmt.Errorf("sched: seeded run pool needs runs > 0 (got %d)", total)
	}
	state = state.normalized()
	if state.Shard < 0 || state.Shard >= state.Of {
		return state, false, fmt.Errorf("sched: seeded shard %d outside [0, %d)", state.Shard, state.Of)
	}
	if state.SeededDone(total) {
		return state, true, nil
	}
	opts = opts.withDefaults(n)

	localTotal := state.localTotal(total)
	sliceEnd := localTotal
	if sliceRuns > 0 && state.Next+int64(sliceRuns) < sliceEnd {
		sliceEnd = state.Next + int64(sliceRuns)
	}
	met := newEngineMetrics(opts.Stats)
	model := memModelFor(opts)

	var (
		next      atomic.Int64
		completed atomic.Int64 // runs executed during this slice
		mu        sync.Mutex
		best      = state.Failure // smallest failure; never modified once recorded
		wg        sync.WaitGroup
	)
	next.Store(state.Next)
	record := func(g int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if best == nil || g < best.Run {
			best = &SeededFailure{Run: g, Message: err.Error(), err: err}
		}
	}
	failedBefore := func(g int) bool {
		mu.Lock()
		defer mu.Unlock()
		return best != nil && g > best.Run
	}

	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		//gsb:nondeterminism-ok audited worker pool: runs are claimed by atomic index and every result is a pure function of DeriveRunSeed(Seed, i), so interleaving cannot change the report
		go func() {
			defer wg.Done()
			// One reusable runner per worker: Reset re-arms it with run
			// i's derived policy, so the steady-state per-run cost is the
			// policy, the protocol instance, and nothing else.
			runner := NewRunner(n, ids, nil, WithMaxSteps(opts.MaxSteps), WithReuse(), WithModel(model))
			defer runner.Close()
			for {
				if ctx.Err() != nil {
					return
				}
				k := next.Add(1) - 1
				if k >= sliceEnd {
					return
				}
				g := state.Shard + int(k)*state.Of
				if failedBefore(g) {
					// An earlier run already failed; later runs cannot
					// change the reported outcome. Indices are claimed in
					// order, so returning drains the pool.
					return
				}
				runner.Reset(policyFor(g))
				res, err := runner.Run(build())
				completed.Add(1)
				met.runs.Inc()
				if err == nil {
					// Crashes on a completed run are adversary-injected
					// (samplers never crash, so this counts 0 for them);
					// errored runs crash-unwind everyone, which is cleanup,
					// not an adversary event.
					for _, c := range res.Crashed {
						if c {
							met.advEvents.Inc()
						}
					}
				}
				if verr := visit(g, res, err); verr != nil {
					record(g, verr)
				}
			}
		}()
	}
	wg.Wait()

	// The executed local indices are contiguous from state.Next: a worker
	// that claims an index always runs it unless a stop condition that is
	// a pure function of the index fired (end of batch, slice bound, an
	// earlier failure) — ctx is checked before claiming, never
	// after. The watermark therefore never overshoots an unexecuted run.
	claimed := next.Load()
	if claimed > sliceEnd {
		claimed = sliceEnd
	}
	out := &SeededState{
		Shard:     state.Shard,
		Of:        state.Of,
		Next:      claimed,
		Completed: state.Completed + completed.Load(),
		Failure:   best,
	}
	return out, out.SeededDone(total), nil
}

// FinalizeSeeded settles the states of a seeded batch of total runs — the
// one state of an unsharded batch, or the complete shard set of a sharded
// one — into the batch verdict. On a failure, failedRun is the smallest
// failing global run index across the states, count its 1-based index and
// err that run's error; when every run verified, count is total,
// failedRun -1 and err nil. This is the single settle rule of the seeded
// modes: Explore's crash sweep, the sampling batches, and campaign
// finalize and merge all run through it.
//
// States must be the complete shard set — one per shard of the same Of,
// each complete (SeededDone) — or the result is an error. The exception
// is a canceled ctx: unfinished states then settle as the cancellation,
// with count the number of runs that actually executed.
func FinalizeSeeded(ctx context.Context, total int, states ...*SeededState) (count, failedRun int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(states) == 0 {
		return 0, -1, fmt.Errorf("sched: finalize needs at least one seeded state")
	}
	seen := make([]bool, len(states))
	var (
		best       *SeededFailure
		completed  int64
		unfinished bool
	)
	for i, st := range states {
		if st == nil {
			return 0, -1, fmt.Errorf("sched: finalize: seeded state %d is nil", i)
		}
		st = st.normalized()
		if st.Of != len(states) {
			return 0, -1, fmt.Errorf("sched: finalize: state %d is shard %d of %d, but %d states were given", i, st.Shard, st.Of, len(states))
		}
		if st.Shard < 0 || st.Shard >= st.Of || seen[st.Shard] {
			return 0, -1, fmt.Errorf("sched: finalize: duplicate or out-of-range shard %d", st.Shard)
		}
		seen[st.Shard] = true
		if !st.SeededDone(total) {
			if ctx.Err() == nil {
				return 0, -1, fmt.Errorf("sched: finalize: shard %d has not completed (next run %d)", st.Shard, st.Next)
			}
			unfinished = true
		}
		completed += st.Completed
		if f := st.Failure; f != nil && (best == nil || f.Run < best.Run) {
			best = f
		}
	}
	if unfinished {
		// Report runs that actually executed, not claimed run indices: a
		// worker that claimed an index and then saw the cancellation (or
		// the end-of-batch sentinel) exited without running it.
		return int(completed), -1, fmt.Errorf("sched: seeded run pool canceled: %w", ctx.Err())
	}
	if best != nil {
		return best.Run + 1, best.Run, best.Err()
	}
	return total, -1, nil
}
