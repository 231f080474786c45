package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runrand"
	"repro/internal/stats"
)

// This file is the work-distributing exploration engine: a pool of workers
// pulls schedule prefixes from a sharded frontier with work-stealing,
// re-executes the protocol under each prefix, and pushes the unexplored
// sibling prefixes back. Stateless re-execution makes the tree walk
// embarrassingly parallel: runs share nothing but the frontier, an atomic
// run budget and the violation aggregate.
//
// Determinism contract. The tree of failure-free schedules is a fixed
// object, so on a full exploration every worker count visits exactly the
// same set of schedules and the reported count is interleaving-independent.
// When the property fails, workers do not race to report whichever
// violation they saw first: each failure is aggregated under a mutex as
// the lexicographically smallest violating choice sequence, the frontier
// is pruned against that bound (prefixes that can only lead to larger
// schedules are dropped), and a final counting pass with the settled bound
// (ResumableExplorer.Finalize, checkpoint.go) recomputes how many
// schedules precede the reported one. The returned
// (count, trace) pair is therefore a pure function of the protocol, the
// property and the options — never of worker interleaving. Only a budget
// exhausted mid-failure (MaxRuns smaller than the tree) can make the
// outcome scheduling-dependent, which is why budget errors are reported
// with the exact budget as the count.

// DefaultMaxRuns is the exploration run budget used when
// ExploreOptions.MaxRuns is zero.
const DefaultMaxRuns = 1 << 20

// ExploreOptions configures Explore.
type ExploreOptions struct {
	// Workers is the number of exploration goroutines; <= 0 means
	// runtime.GOMAXPROCS(0). With more than one worker, build and check
	// must be safe for concurrent use (each run still gets its own
	// protocol instance, so protocols that allocate fresh shared memory
	// in build need no extra care).
	Workers int
	// MaxRuns bounds the number of schedules executed in exhaustive
	// exploration; beyond it the exploration stops with
	// ErrExplorationBudget. <= 0 means DefaultMaxRuns. Crash sweep mode
	// is bounded by CrashRuns instead and ignores MaxRuns.
	MaxRuns int
	// MaxSteps bounds each individual run (ErrStepBudget past it);
	// <= 0 means DefaultMaxSteps(n).
	MaxSteps int
	// Seed seeds work-stealing victim selection and, in crash sweep
	// mode, the per-run crash-injection policies. Results never depend
	// on the victim-selection stream; sweep results depend on Seed only.
	Seed int64

	// CrashRuns > 0 selects crash sweep mode: instead of exhaustively
	// enumerating failure-free schedules, Explore executes CrashRuns
	// randomized schedules with crash injection, distributed over the
	// same worker pool. Seeds are derived deterministically from Seed,
	// so the sweep is reproducible and the first failing run (smallest
	// run index) is interleaving-independent.
	CrashRuns int

	// SampleRuns > 0 selects statistical sampling mode: instead of
	// enumerating the schedule tree, execute SampleRuns failure-free
	// schedules drawn by the SampleMode sampler, each seeded via
	// DeriveRunSeed(Seed, i), and report distinct-trace-class coverage.
	// Sampling is implemented by internal/sample (ResumableBatch, whose
	// one-shot form is sample.Explore); tasks.ExploreVerified dispatches
	// there automatically, while calling sched.Explore directly with
	// SampleRuns set is an error.
	// Mutually exclusive with CrashRuns (Validate).
	SampleRuns int
	// SampleMode picks the sampler: SampleWalk (uniform over the
	// pending set each step) or SamplePCT (probabilistic concurrency
	// testing: random priorities plus Depth-1 priority-change points).
	SampleMode SampleMode
	// Depth is the PCT bug-depth knob: runs use Depth-1 priority-change
	// points, giving the classic 1/(n*k^(Depth-1)) detection guarantee
	// for bugs of that depth. <= 0 means the sample package default
	// (3); ignored by SampleWalk.
	Depth int
	// CrashProb is the per-decision crash probability in sweep mode;
	// it must lie in [0, 1] (Validate).
	CrashProb float64

	// Model names the registered memory model runs execute under (see
	// MemModels, docs/models.md). "" or "atomic" is the default atomic
	// register semantics — bit-identical to the pre-registry engine;
	// "regular" and "safe" weaken writes into scheduler-visible
	// write-start/write-commit step pairs; "stale-snapshot" degrades
	// one-step snapshots into per-register collects. Unknown names are
	// rejected by Validate with the registered list. The model is part of
	// campaign identity (the options hash), so a checkpoint resumes only
	// under the model that produced it.
	Model string
	// Adversary names the registered crash adversary that drives sweep
	// mode (CrashRuns > 0; see Adversaries, docs/models.md). "" or
	// "uniform-crash" is the default uniform sweep; "t-resilient"
	// restricts crashes to a pre-drawn victim set of at most n-1
	// processes; "adaptive" targets the most-advanced pending process.
	// Unknown names are rejected by Validate with the registered list.
	// Ignored outside sweep mode; part of campaign identity like Model.
	Adversary string

	// Stats receives engine observability counters (runs, schedules,
	// steals, aborts, prunes, frontier depth — see the Metric constants
	// and docs/metrics.md). Publishing is a handful of atomic adds per
	// run; nil disables it entirely: a nil registry hands out nil
	// handles, which publish nowhere. Stats never influences
	// results and is excluded from campaign option identity
	// (internal/campaign hashes only the semantic fields), so the same
	// checkpoint can be resumed with or without observability attached.
	Stats *stats.Registry

	// Reduction selects the partial-order reduction applied to
	// exhaustive exploration (see the Reduction constants). With
	// reduction on, the engine executes one schedule per Mazurkiewicz
	// trace class — the class's lexicographically smallest member —
	// instead of every interleaving, and the returned count is the
	// number of classes. Verdicts and the lex-min violation report are
	// unchanged; checks must not depend on the relative order of
	// commuting steps in Result.Schedule (true of every property in
	// this repository, which inspect outputs and crash flags only).
	// MaxRuns then bounds executed runs, which include pruned probe
	// runs, not only counted schedules. Crash sweep mode ignores it.
	Reduction Reduction
}

// ErrInvalidOptions reports semantically unusable ExploreOptions; Explore
// returns it (wrapped) instead of executing anything, so a bad CrashProb
// surfaces as an error rather than a panic inside a worker goroutine.
var ErrInvalidOptions = errors.New("sched: invalid exploration options")

// Validate checks the option fields whose bad values would otherwise
// surface only mid-exploration: a crash probability outside [0, 1],
// negative budgets, and unregistered model/adversary names (the error
// lists the registered names). Zero-valued fields mean "use the default"
// and are always valid.
func (o ExploreOptions) Validate() error {
	if o.MaxRuns < 0 {
		return fmt.Errorf("%w: MaxRuns %d is negative (0 means the default budget)", ErrInvalidOptions, o.MaxRuns)
	}
	if o.MaxSteps < 0 {
		return fmt.Errorf("%w: MaxSteps %d is negative (0 means the runner default)", ErrInvalidOptions, o.MaxSteps)
	}
	if o.CrashRuns < 0 {
		return fmt.Errorf("%w: CrashRuns %d is negative (0 disables the crash sweep)", ErrInvalidOptions, o.CrashRuns)
	}
	if math.IsNaN(o.CrashProb) || o.CrashProb < 0 || o.CrashProb > 1 {
		return fmt.Errorf("%w: CrashProb %v outside [0, 1]", ErrInvalidOptions, o.CrashProb)
	}
	if !o.Reduction.valid() {
		return fmt.Errorf("%w: unknown Reduction(%d)", ErrInvalidOptions, int(o.Reduction))
	}
	if o.SampleRuns < 0 {
		return fmt.Errorf("%w: SampleRuns %d is negative (0 disables sampling)", ErrInvalidOptions, o.SampleRuns)
	}
	if !o.SampleMode.valid() {
		return fmt.Errorf("%w: unknown SampleMode(%d)", ErrInvalidOptions, int(o.SampleMode))
	}
	if o.Depth < 0 {
		return fmt.Errorf("%w: Depth %d is negative (0 means the PCT default)", ErrInvalidOptions, o.Depth)
	}
	if o.SampleRuns > 0 && o.CrashRuns > 0 {
		return fmt.Errorf("%w: SampleRuns and CrashRuns are mutually exclusive modes", ErrInvalidOptions)
	}
	if _, err := MemModelByName(o.Model); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	if _, err := AdversaryByName(o.Adversary); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	return nil
}

func (o ExploreOptions) withDefaults(n int) ExploreOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxRuns <= 0 {
		o.MaxRuns = DefaultMaxRuns
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = DefaultMaxSteps(n)
	}
	return o
}

// Explore runs the protocol under every failure-free schedule (or, when
// opts.CrashRuns > 0, under a randomized crash-injection sweep) using a
// pool of opts.Workers goroutines, and invokes check on each completed
// run. build is called once per run and must return a fresh protocol
// instance. It returns the number of distinct schedules explored; on a
// property violation the error names the lexicographically smallest
// violating choice sequence and the count is the number of schedules up
// to and including it (both independent of worker interleaving). With
// opts.Reduction enabled the walk executes one schedule per commuting-
// step equivalence class (the class's lex-min member) and counts
// classes; verdict and violation report are unchanged. When MaxRuns is
// exhausted first, the count is MaxRuns (the verified schedules under
// reduction) and the error wraps ErrExplorationBudget.
//
// In crash sweep mode (opts.CrashRuns > 0) the runs are opts.CrashRuns
// randomized schedules, run i scheduled by the registered adversary's
// crash policy (opts.Adversary, uniform-crash by default) seeded with
// DeriveRunSeed(opts.Seed, i), and check sees every completed run,
// including runs with crashed processes (Result.Crashed reports which).
// On success the count is exactly opts.CrashRuns; on failure the
// reported run is the one with the smallest index whose check (or
// execution) failed, and the count is its 1-based index; on cancellation
// the count is the number of runs that actually executed.
//
// Explore is one unbounded slice followed by its settle step — a
// ResumableExplorer Slice plus Finalize, or in crash sweep mode a
// SeededSlice plus FinalizeSeeded — so the one-shot run and a
// checkpointed campaign share a single engine path.
//
// ctx cancellation aborts the exploration early; a nil ctx means
// context.Background().
func Explore(ctx context.Context, n int, ids []int, opts ExploreOptions, build func() Body, check func(*Result) error) (int, error) {
	if err := opts.Validate(); err != nil {
		return 0, err
	}
	if opts.SampleRuns > 0 {
		// Statistical sampling lives one layer up (internal/sample would
		// import this package back); refuse loudly rather than silently
		// running an exhaustive walk the caller did not ask for.
		return 0, fmt.Errorf("sched: SampleRuns > 0 selects statistical sampling, which is implemented by internal/sample (call sample.Explore, or tasks.ExploreVerified which dispatches)")
	}
	if opts.CrashRuns > 0 {
		st, _, err := SeededSlice(ctx, n, ids, opts, opts.CrashRuns,
			CrashSweepPolicies(n, opts), build, CrashSweepCheck(n, opts, check), nil, 0)
		if err != nil {
			return 0, err
		}
		count, _, err := FinalizeSeeded(ctx, opts.CrashRuns, st)
		return count, err
	}
	r := &ResumableExplorer{N: n, IDs: ids, Opts: opts, Build: build, Check: check}
	st, _, err := r.Slice(ctx, nil, 0)
	if err != nil && !errors.Is(err, ErrExplorationBudget) {
		return 0, err
	}
	// An exhausted budget is recorded in the state (Claimed > MaxRuns);
	// Finalize turns it into the budget verdict.
	return r.Finalize(ctx, st)
}

// frontierItem is one unit of exploration work: re-execute the run
// scripted by choices and push its unexplored siblings. sleep is the
// sleep set at the node reached after choices (partial-order reduction
// only; nil when ExploreOptions.Reduction is ReductionNone).
type frontierItem struct {
	choices []int
	sleep   []int
}

// exploreWorker is one worker's reusable state. Nothing in it is shared
// with other workers, so the hot path re-arms it without locks or
// allocation: the runner resets its own run state at every Run (newWorker
// binds it to the policy once), and the policy via reset (its buffers are
// valid until the next reset).
type exploreWorker struct {
	w      int
	runner *Runner
	policy *porPolicy
}

// newWorker builds worker w's reusable state; close its runner when done.
func (e *explorer) newWorker(w int) *exploreWorker {
	runner := NewRunner(e.n, e.ids, nil, WithMaxSteps(e.opts.MaxSteps), WithReuse(), WithModel(e.model))
	policy := &porPolicy{indep: e.indep, skipBlocked: e.opts.Reduction == ReductionSleepSets, runner: runner}
	runner.Reset(policy)
	return &exploreWorker{w: w, runner: runner, policy: policy}
}

// exploreShard is one lane of the frontier. Its owner pushes and pops at
// the tail (depth-first, cache-warm deep prefixes); thieves take from the
// head, where the shallowest prefixes — the largest unexplored subtrees —
// sit, so one steal yields a meaningful chunk of work.
type exploreShard struct {
	mu    sync.Mutex
	items []frontierItem
}

type explorer struct {
	ctx    context.Context
	cancel context.CancelFunc
	n      int
	ids    []int
	opts   ExploreOptions
	build  func() Body
	check  func(*Result) error

	shards  []*exploreShard
	pending atomic.Int64 // prefixes queued or being processed

	claimed    atomic.Int64 // run-budget slots claimed
	completed  atomic.Int64 // runs that finished without error
	budgetHit  atomic.Bool
	countBelow atomic.Int64 // counting pass: runs lexicographically below bound

	bound []int // fixed pruning bound for the counting pass; nil during discovery

	// Checkpoint pause points (checkpoint.go). Workers stop claiming new
	// frontier items — leaving the remaining frontier collectable — when
	// ctx is canceled or the slice's sliceRuns run slots are taken;
	// items already popped are always processed to completion, so a
	// paused frontier plus the counters is an exact resume point. A worker
	// takes a slot (tickets) before it pops and returns it when the pop
	// yields no run, so a slice claims exactly sliceRuns runs unless the
	// tree drains first. 0 means no slice bound.
	sliceRuns int64
	tickets   atomic.Int64

	indep Independence  // commutation oracle; nil without reduction (no step commutes)
	met   engineMetrics // resolved stats handles; all nil when opts.Stats is nil
	model MemModel      // resolved opts.Model, applied to every worker runner

	mu   sync.Mutex
	best *FailureState // lexicographically smallest failure seen
}

func newExplorer(ctx context.Context, n int, ids []int, opts ExploreOptions, build func() Body, check func(*Result) error, bound []int) *explorer {
	e := &explorer{
		n:     n,
		ids:   ids,
		opts:  opts,
		build: build,
		check: check,
		bound: bound,
	}
	if opts.Reduction != ReductionNone {
		e.indep = OpIndependent
	}
	e.met = newEngineMetrics(opts.Stats)
	e.model = memModelFor(opts)
	e.ctx, e.cancel = context.WithCancel(ctx)
	e.shards = make([]*exploreShard, opts.Workers)
	for i := range e.shards {
		e.shards[i] = &exploreShard{}
	}
	return e
}

// takeTicket reserves one of the slice's run slots, failing once every
// slot is claimed or held by another worker. The compare-and-swap never
// overshoots, so a denied worker cannot starve a holder that returns its
// slot.
func (e *explorer) takeTicket() bool {
	for {
		t := e.tickets.Load()
		if t >= e.sliceRuns {
			return false
		}
		if e.tickets.CompareAndSwap(t, t+1) {
			return true
		}
	}
}

// returnTicket releases a reserved slot that claimed no run.
func (e *explorer) returnTicket() {
	if e.sliceRuns > 0 {
		e.tickets.Add(-1)
	}
}

func (e *explorer) runWorkers() {
	defer e.cancel()
	var wg sync.WaitGroup
	for w := 0; w < e.opts.Workers; w++ {
		wg.Add(1)
		//gsb:nondeterminism-ok audited worker pool: the frontier hands out work under one lock and results are merged commutatively (TestExploreWorkerCountInvariance pins the counts)
		go func(w int) {
			defer wg.Done()
			e.worker(w)
		}(w)
	}
	wg.Wait()
}

func (e *explorer) worker(w int) {
	// The rng only picks steal victims; exploration results never depend
	// on it (see the determinism contract above).
	rng := runrand.New(int64(uint64(e.opts.Seed) ^ 0x9e3779b97f4a7c15*uint64(w+1)))
	// One reusable runner and policy per worker, re-armed for every
	// prefix re-execution: the steady-state hot path allocates nothing
	// but the protocol instance (and a prefix slab chunk now and then).
	wk := e.newWorker(w)
	defer wk.runner.Close()
	idle := 0
	for {
		// A pause point fired: return without popping further frontier
		// items (but after finishing the item in hand), so the frontier
		// left behind is a complete description of the remaining work.
		if e.ctx.Err() != nil {
			return
		}
		if e.sliceRuns > 0 && !e.takeTicket() {
			return
		}
		item, ok := e.popOwn(w)
		if !ok {
			item, ok = e.steal(w, rng)
		}
		if !ok {
			e.returnTicket()
			if e.pending.Load() == 0 {
				return
			}
			// Another worker is still expanding a prefix; back off briefly.
			if idle++; idle > 64 {
				time.Sleep(20 * time.Microsecond)
			} else {
				runtime.Gosched()
			}
			continue
		}
		idle = 0
		if !e.process(item, wk) {
			e.returnTicket()
		}
		e.pending.Add(-1)
		e.met.frontier.Set(e.pending.Load())
	}
}

func (e *explorer) pushTo(w int, item frontierItem) {
	e.pending.Add(1)
	s := e.shards[w]
	s.mu.Lock()
	s.items = append(s.items, item)
	s.mu.Unlock()
}

func (e *explorer) popOwn(w int) (frontierItem, bool) {
	s := e.shards[w]
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.items) == 0 {
		return frontierItem{}, false
	}
	it := s.items[len(s.items)-1]
	s.items[len(s.items)-1] = frontierItem{} // release the slot for GC
	s.items = s.items[:len(s.items)-1]
	return it, true
}

func (e *explorer) steal(w int, rng *rand.Rand) (frontierItem, bool) {
	start := rng.Intn(len(e.shards))
	for k := 0; k < len(e.shards); k++ {
		v := (start + k) % len(e.shards)
		if v == w {
			continue
		}
		s := e.shards[v]
		s.mu.Lock()
		if len(s.items) > 0 {
			it := s.items[0]
			// Re-slicing from the head keeps the backing array's dead
			// prefix reachable for as long as the slice lives; on long
			// explorations that retained every stolen prefix. Zero the
			// slot, and drop the whole array once the lane drains.
			s.items[0] = frontierItem{}
			s.items = s.items[1:]
			if len(s.items) == 0 {
				s.items = nil
			}
			s.mu.Unlock()
			e.met.steals.Inc()
			return it, true
		}
		s.mu.Unlock()
	}
	return frontierItem{}, false
}

// pruneBound returns the current lexicographic pruning bound: the fixed
// bound of a counting pass, or the best failure found so far.
func (e *explorer) pruneBound() []int {
	if e.bound != nil {
		return e.bound
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.best == nil {
		return nil
	}
	return e.best.Choices
}

func (e *explorer) recordFailure(choices []int, err error) {
	c := append([]int(nil), choices...)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.best == nil || lexLess(c, e.best.Choices) {
		e.best = &FailureState{Choices: c, Message: err.Error(), err: err}
	}
}

// process executes the run scripted by item's prefix on the worker's
// reused runner and policy and pushes its unexplored sibling prefixes. It
// reports whether the item claimed a run-budget slot (false when pruned).
func (e *explorer) process(item frontierItem, wk *exploreWorker) bool {
	if b := e.pruneBound(); b != nil && !prefixViable(item.choices, b) {
		e.met.prunes.Inc()
		return false
	}
	if e.claimed.Add(1) > int64(e.opts.MaxRuns) {
		e.budgetHit.Store(true)
		e.cancel()
		return true
	}
	e.met.runs.Inc()

	policy := wk.policy
	policy.reset(item.choices, item.sleep)
	res, err := wk.runner.Run(e.build())
	switch {
	case errors.Is(err, ErrRunAborted):
		// A sleep-set probe: every continuation of this run is
		// equivalent to a schedule explored under a smaller prefix. It
		// consumed a run-budget slot but counts as no schedule; its
		// pre-abort decision points still seed sibling branches below.
		e.met.aborts.Inc()
	case err != nil:
		if e.bound == nil {
			e.recordFailure(policy.choices, fmt.Errorf("sched: exploration run with prefix %v: %w", item.choices, err))
		}
	case e.bound != nil:
		if lexLess(policy.choices, e.bound) {
			e.countBelow.Add(1)
		}
	default:
		e.completed.Add(1)
		e.met.schedules.Inc()
		if e.check != nil {
			if cerr := e.check(res); cerr != nil {
				e.recordFailure(policy.choices, fmt.Errorf("sched: schedule %v violates property: %w", policy.choices, cerr))
			}
		}
	}

	b := e.pruneBound()
	branches, blocked := policy.branchItems()
	if blocked > 0 {
		e.met.blocked.Add(int64(blocked))
	}
	for _, branch := range branches {
		if b != nil && !prefixViable(branch.choices, b) {
			e.met.prunes.Inc()
			continue
		}
		e.pushTo(wk.w, branch)
	}
	return true
}

// lexLess reports whether choice sequence a precedes b lexicographically
// (a proper prefix precedes its extensions).
func lexLess(a, b []int) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// prefixViable reports whether some completion of prefix can precede the
// bound lexicographically (equivalently: whether the subtree under prefix
// may still matter once bound is the smallest known failure).
func prefixViable(prefix, bound []int) bool {
	for i, c := range prefix {
		if i >= len(bound) {
			return false // strict extension of bound: every completion is larger
		}
		if c != bound[i] {
			return c < bound[i]
		}
	}
	return true
}
