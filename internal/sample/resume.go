package sample

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/sched"
)

// MetricClasses is the sampling subsystem's observability counter (see
// docs/metrics.md): distinct Mazurkiewicz trace classes discovered by
// this shard. Each shard counts its own first sightings, so per-shard
// values sum to at least — not exactly — the merged distinct-class count
// (two shards can each discover the same class); merged reports recompute
// the exact figure from the coverage maps.
const MetricClasses = "gsb_classes_total"

// This file is the checkpoint layer of the sampling subsystem: a sampling
// batch advances in bounded slices over the resumable seeded-run pool
// (sched.SeededSlice), and between slices its state — the next run index,
// the per-run trace-class hashes backing the coverage figure, and the
// smallest failing run — is a plain serializable value. Because run i's
// schedule is a pure function of DeriveRunSeed(Seed, i), a resumed (or
// sharded) batch executes exactly the runs the uninterrupted batch would
// have: kill/resume and shard/merge both preserve the report bit for bit.

// BatchState is the serializable state of one shard of a sampling batch.
type BatchState struct {
	// Depth and Horizon are the PCT parameters fixed at batch start
	// (zero in walk mode). Horizon is measured once by a deterministic
	// probe run, so every shard agrees on it without coordination; it is
	// carried in the state so a resume does not depend on the probe
	// staying cheap.
	Depth   int `json:"depth,omitempty"`
	Horizon int `json:"horizon,omitempty"`
	// Pool is the seeded-run pool position: shard/of, next local index,
	// executed-run count, and the shard's smallest failing run — its only
	// failure record. The failure's error is the run's *RunError while
	// the process that recorded it runs, and an error with the same text
	// after a restore.
	Pool sched.SeededState `json:"pool"`
	// Classes is the coverage tracker's full state: each trace class the
	// shard has seen, with the smallest run that produced it.
	Classes *ClassSet `json:"classes"`
}

// ResumableBatch drives a sampling batch in bounded slices with
// serializable state between them. N, IDs, Opts, Build and Check play
// exactly the roles they do for Explore; Opts must select a sampling mode
// (SampleRuns > 0).
type ResumableBatch struct {
	N     int
	IDs   []int
	Opts  sched.ExploreOptions
	Build func() sched.Body
	Check func(*sched.Result) error
}

func (r *ResumableBatch) validate() error {
	if err := r.Opts.Validate(); err != nil {
		return err
	}
	if r.Opts.SampleRuns <= 0 {
		return fmt.Errorf("sample: resumable batch needs SampleRuns > 0 (got %d)", r.Opts.SampleRuns)
	}
	return nil
}

func (r *ResumableBatch) maxSteps() int {
	if r.Opts.MaxSteps > 0 {
		return r.Opts.MaxSteps
	}
	return sched.DefaultMaxSteps(r.N)
}

// Init returns the initial state of shard `shard` of `of`: an empty
// coverage map, the shard's position at the start of its index space,
// and — in PCT mode — the measured depth/horizon parameters.
func (r *ResumableBatch) Init(shard, of int) (*BatchState, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	if of < 1 || shard < 0 || shard >= of {
		return nil, fmt.Errorf("sample: shard %d of %d outside [0, of)", shard, of)
	}
	st := &BatchState{
		Pool:    sched.SeededState{Shard: shard, Of: of},
		Classes: new(ClassSet),
	}
	if r.Opts.SampleMode == sched.SamplePCT {
		st.Depth = r.Opts.Depth
		if st.Depth <= 0 {
			st.Depth = DefaultDepth
		}
		model, err := sched.MemModelByName(r.Opts.Model)
		if err != nil {
			return nil, err
		}
		st.Horizon = ProbeHorizon(r.N, r.IDs, r.maxSteps(), model, r.Build)
	}
	return st, nil
}

// policyFor returns the per-run policy constructor for the batch's mode,
// identical to the one Explore uses.
func (r *ResumableBatch) policyFor(st *BatchState) (func(int) sched.Policy, error) {
	switch r.Opts.SampleMode {
	case sched.SampleWalk:
		return func(i int) sched.Policy {
			return sched.NewRandom(sched.DeriveRunSeed(r.Opts.Seed, i))
		}, nil
	case sched.SamplePCT:
		depth, horizon := st.Depth, st.Horizon
		return func(i int) sched.Policy {
			return NewPCT(sched.DeriveRunSeed(r.Opts.Seed, i), r.N, depth, horizon)
		}, nil
	default:
		return nil, fmt.Errorf("sample: unknown SampleMode(%d)", int(r.Opts.SampleMode))
	}
}

// Slice advances the batch from state by at most sliceRuns runs (0 means
// no bound), recording coverage and the smallest failing run into the
// returned state, and reports whether the shard's batch is complete. Pause
// semantics are those of sched.SeededSlice: runs already claimed finish,
// and the returned state is an exact resume point. The input state's
// class set is reused (not copied) by the returned state.
func (r *ResumableBatch) Slice(ctx context.Context, state *BatchState, sliceRuns int) (*BatchState, bool, error) {
	if err := r.validate(); err != nil {
		return state, false, err
	}
	if state == nil {
		return state, false, fmt.Errorf("sample: nil batch state (use Init)")
	}
	policyFor, err := r.policyFor(state)
	if err != nil {
		return state, false, err
	}
	if state.Classes == nil {
		state.Classes = new(ClassSet)
	}

	var mu sync.Mutex // guards state.Classes
	classes := r.Opts.Stats.Counter(MetricClasses, "Distinct Mazurkiewicz trace classes discovered by sampling (per-shard first sightings).")

	// Class hashing reuses level buckets: each worker goroutine takes a
	// hasher from the pool for the duration of one visit.
	hashers := sync.Pool{New: func() any { return new(sched.TraceHasher) }}

	// visit returns run i's *RunError; the pool keeps the smallest one.
	visit := func(i int, res *sched.Result, err error) error {
		runErr := func(violates bool, inner error) error {
			return &RunError{Mode: r.Opts.SampleMode, Run: i, Seed: sched.DeriveRunSeed(r.Opts.Seed, i), Violation: violates, Err: inner}
		}
		if err != nil {
			return runErr(false, err)
		}
		// Record coverage before checking, so the failing run's own
		// class is part of the reported coverage. Keep the smallest run
		// index per class: the minimum is interleaving-independent.
		hasher := hashers.Get().(*sched.TraceHasher)
		h := hasher.Hash(res.Schedule, sched.OpIndependent)
		hashers.Put(hasher)
		mu.Lock()
		fresh := state.Classes.record(h, i)
		mu.Unlock()
		if fresh {
			classes.Inc()
		}
		if r.Check != nil {
			if cerr := r.Check(res); cerr != nil {
				return runErr(true, cerr)
			}
		}
		return nil
	}

	pool, done, err := sched.SeededSlice(ctx, r.N, r.IDs, r.Opts, r.Opts.SampleRuns,
		policyFor, r.Build, visit, &state.Pool, sliceRuns)
	if err != nil {
		return state, false, err
	}
	next := &BatchState{
		Depth:   state.Depth,
		Horizon: state.Horizon,
		Pool:    *pool,
		Classes: state.Classes,
	}
	return next, done, nil
}

// Finalize merges shard states into the batch's Report and verdict — the
// one state of a one-shot Explore or a single campaign, or the shard
// states of a sharded one: the coverage figure counts distinct trace
// classes over the runs up to and including the smallest failing one (all
// runs, when every shard verified), and a failure is reported as that
// smallest run's error from the pool (see BatchState.Pool). States must
// be the complete shard set of one batch, all complete, with matching
// PCT parameters; the settle rule itself (shard-set checks, smallest
// failure, cancellation of unfinished states under a canceled ctx) is
// sched.FinalizeSeeded's.
func (r *ResumableBatch) Finalize(ctx context.Context, states ...*BatchState) (Report, error) {
	rep := Report{Mode: r.Opts.SampleMode, FailedRun: -1}
	if err := r.validate(); err != nil {
		return rep, err
	}
	if len(states) == 0 {
		return rep, fmt.Errorf("sample: finalize needs at least one batch state")
	}
	pools := make([]*sched.SeededState, len(states))
	for i, st := range states {
		if st == nil {
			return rep, fmt.Errorf("sample: finalize: state %d is nil", i)
		}
		if st.Depth != states[0].Depth || st.Horizon != states[0].Horizon {
			return rep, fmt.Errorf("sample: finalize: shard %d PCT parameters (depth %d, horizon %d) differ from shard 0's (depth %d, horizon %d)",
				st.Pool.Shard, st.Depth, st.Horizon, states[0].Depth, states[0].Horizon)
		}
		pools[i] = &st.Pool
	}
	rep.Depth, rep.Horizon = states[0].Depth, states[0].Horizon

	count, best, err := sched.FinalizeSeeded(ctx, r.Opts.SampleRuns, pools...)
	rep.Runs = count
	rep.Classes = classesBelow(states, count)
	if best >= 0 {
		rep.FailedRun, rep.FailedSeed = best, sched.DeriveRunSeed(r.Opts.Seed, best)
	}
	return rep, err
}

// classesBelow counts the distinct trace classes first seen by a run
// below count, across the shard states.
func classesBelow(states []*BatchState, count int) int {
	classes := make(map[uint64]struct{})
	for _, st := range states {
		if st.Classes == nil {
			continue
		}
		for h, first := range st.Classes.first {
			if first < count {
				classes[h] = struct{}{}
			}
		}
	}
	return len(classes)
}
