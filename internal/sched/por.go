package sched

import (
	"errors"
	"fmt"
)

// This file is the partial-order-reduction layer of the exploration
// engine: a sleep-set walk of the schedule tree (Godefroid-style, adapted
// to stateless prefix re-execution).
//
// The exhaustive tree branches at every decision point on every pending
// process, so k mutually commuting steps are re-explored under all k!
// orders. Sleep sets prune exactly those re-explorations: after the
// engine explores the subtree that schedules process p at a node, the
// sibling subtrees carry p in their sleep set — "p's pending step is
// covered elsewhere; do not schedule it until some step that conflicts
// with it executes". A schedule is therefore pruned only when an
// equivalent schedule (same Mazurkiewicz trace) is explored under a
// lexicographically smaller choice sequence, which preserves both the
// engine's verdict and its lex-min violation report.
//
// A descent can reach a node where every pending process is asleep; the
// runs that continue from it are all covered elsewhere, so the policy
// aborts the run (Decision.Abort -> ErrRunAborted). Aborted probes count
// against MaxRuns — they did execute — but are not schedules.
//
// Some probes are doomed from the moment they are branched: a process
// asleep on a per-process step (its decide) commutes with every step of
// every other process, so it never wakes, never finishes, and every run
// below the child aborts. Under ReductionSleepSets the policy does not
// branch into such a child at all; the child would verify no schedule,
// so the walk verifies the same schedules in the same order with fewer
// runs.

// Reduction selects the partial-order reduction applied by Explore to
// exhaustive (failure-free) exploration. Crash sweep mode ignores it.
type Reduction int

const (
	// ReductionNone explores the schedule tree exhaustively (the
	// default; one run per interleaving).
	ReductionNone Reduction = iota
	// ReductionSleepSets prunes the frontier with sleep sets over the
	// OpIndependent commutation relation: one run per Mazurkiewicz
	// trace class, the class's lexicographically smallest member. It
	// never branches into a child whose sleep set holds a process
	// pending on a per-process step (a decide): no run below such a
	// child completes.
	ReductionSleepSets
	// ReductionSleepMemo is the sleep-set walk without that filter: it
	// branches into every awake child, so it verifies the same schedules
	// in the same order as ReductionSleepSets and executes more runs.
	// Snapshots, options hashes and requests (mode por-memo) record it;
	// it is the oracle the filtered walk is tested against.
	ReductionSleepMemo
)

// String implements fmt.Stringer.
func (r Reduction) String() string {
	switch r {
	case ReductionNone:
		return "none"
	case ReductionSleepSets:
		return "sleep-sets"
	case ReductionSleepMemo:
		return "sleep-sets+memo"
	default:
		return fmt.Sprintf("Reduction(%d)", int(r))
	}
}

func (r Reduction) valid() bool {
	return r >= ReductionNone && r <= ReductionSleepMemo
}

// ErrRunAborted is returned by Runner.Run when the policy discards the
// rest of a run via Decision.Abort. The exploration engine treats such
// runs as pruned probes: they consume run budget but are not schedules.
var ErrRunAborted = errors.New("sched: run aborted by the scheduling policy")

// porPolicy is the exploration engine's prefix-replay policy, for every
// Reduction: it replays a fixed prefix of choices, then descends picking
// the smallest pending process that is not asleep, maintaining the sleep
// set across decisions and recording everything branch generation needs.
// It reads the label of every pending operation (the name given to
// Proc.Exec, e.g. "A.read") from the runner it schedules; a process's
// requested operation cannot change while it is pending, so the labels
// are exactly the steps the adversary is choosing among. A nil indep
// means no pair of steps commutes — the ReductionNone walk: no label is
// read, no process is ever put to sleep, no run aborts, and every pending
// process larger than the chosen one branches, so the walk is the
// exhaustive one. skipBlocked turns on the ReductionSleepSets filter in
// branchItems.
//
// Each exploration worker owns one runner and one porPolicy, and re-arms
// the policy with reset for every frontier item, so its buffers reach a
// steady size and a run records its decisions without allocating. The
// recorded sets and choices are valid until the next reset; the branch
// items it returns are carved from the worker's prefix slab and never
// written again.
type porPolicy struct {
	indep       Independence // nil: every pair of steps conflicts
	skipBlocked bool         // drop children a per-process sleeper blocks; only with indep
	runner      *Runner      // the runner this policy schedules; read only when indep is set
	prefix      []int
	sleep0      []int // sleep set at the node reached after prefix

	choices []int
	// Recorded per post-prefix decision j (aligned with
	// choices[len(prefix):]) into flat arenas: decision j's pending set
	// (sorted) is pend[lo:at[j]] with lo = at[j-1] (0 for j = 0), its op
	// labels (only when indep is set) are ops[lo:at[j]], and its sleep
	// set (sorted) is sleeps[sleepAt[j-1]:sleepAt[j]] likewise.
	at      []int
	pend    []int
	ops     []string
	sleepAt []int
	sleeps  []int

	cur     []int // current sleep set during the descent
	started bool

	slab    prefixSlab
	items   []frontierItem // branchItems' reused result
	scratch []int          // a child's sleep set before it is carved
}

// reset re-arms the policy for a run scripted by prefix, whose node has
// sleep set sleep0. Both are only read, and held only until the next
// reset.
//
//gsb:hotpath
func (e *porPolicy) reset(prefix, sleep0 []int) {
	e.prefix, e.sleep0 = prefix, sleep0
	e.choices = e.choices[:0]
	e.at, e.pend, e.ops = e.at[:0], e.pend[:0], e.ops[:0]
	e.sleepAt, e.sleeps = e.sleepAt[:0], e.sleeps[:0]
	e.cur = e.cur[:0]
	e.started = false
}

// Next implements Policy.
//
//gsb:hotpath
func (e *porPolicy) Next(pending []int, _ int) Decision {
	step := len(e.choices)
	if step < len(e.prefix) {
		pick := e.prefix[step]
		if !containsSorted(pending, pick) {
			return Decision{Abort: true, Err: fmt.Errorf("%w: exploration prefix chose %d but pending is %v", ErrScheduleDiverged, pick, pending)}
		}
		e.choices = append(e.choices, pick) //gsb:alloc-ok reused e.choices, reset to [:0] per run
		return Decision{Proc: pick}
	}
	if !e.started {
		e.started = true
		e.cur = append(e.cur, e.sleep0...) //gsb:alloc-ok reused e.cur, reset to [:0] per run
	}
	// A sleeping process is blocked on its pending request, so it cannot
	// leave the pending set; the intersection guards the invariant
	// cur ⊆ pending rather than doing real work.
	e.cur = intersectSorted(e.cur, pending)
	pick := -1
	for _, p := range pending {
		if !containsSorted(e.cur, p) {
			pick = p
			break
		}
	}
	if pick < 0 {
		// Every pending step is covered by a subtree explored under a
		// smaller choice sequence: discard the rest of the run.
		return Decision{Abort: true}
	}

	e.pend = append(e.pend, pending...)          //gsb:alloc-ok reused e.pend arena, reset to [:0] per run
	e.at = append(e.at, len(e.pend))             //gsb:alloc-ok reused e.at arena, reset to [:0] per run
	e.sleeps = append(e.sleeps, e.cur...)        //gsb:alloc-ok reused e.sleeps arena, reset to [:0] per run
	e.sleepAt = append(e.sleepAt, len(e.sleeps)) //gsb:alloc-ok reused e.sleepAt arena, reset to [:0] per run
	e.choices = append(e.choices, pick)          //gsb:alloc-ok reused e.choices, reset to [:0] per run

	// Descend into the followed child: a process stays asleep only while
	// it commutes with every step executed since it was put to sleep.
	// A nil relation commutes nothing, so every sleeper wakes.
	kept := e.cur[:0] // the sleeps arena holds the node's copy
	if e.indep != nil {
		req := e.runner.pendingReq
		for _, p := range pending {
			e.ops = append(e.ops, req[p].name) //gsb:alloc-ok reused e.ops arena, reset to [:0] per run
		}
		for _, u := range e.cur {
			if e.indep(u, req[u].name, pick, req[pick].name) {
				kept = append(kept, u) //gsb:alloc-ok filters e.cur in place
			}
		}
	}
	e.cur = kept
	return Decision{Proc: pick}
}

// branchItems returns the unexplored sibling prefixes with their sleep
// sets: at every post-prefix decision, one child per pending process alt
// that is larger than the chosen one and not asleep. The child explored
// via alt sleeps on everything already asleep at the node plus every
// allowed transition ordered before alt (they are explored in their own
// subtrees first), filtered down to the transitions that commute with
// alt — the ones whose pending step survives alt unchanged. With
// skipBlocked, a child that would sleep on a per-process step is left
// out and only counted in blocked.
//
// The returned slice is reused by the next call; the items' choices and
// sleep sets are carved from the policy's prefix slab and are immutable.
//
//gsb:hotpath
func (e *porPolicy) branchItems() (items []frontierItem, blocked int) {
	out := e.items[:0]
	lo, slo := 0, 0
	for j, hi := range e.at {
		i := len(e.prefix) + j
		pending := e.pend[lo:hi]
		var ops []string // recorded only under a relation
		if e.indep != nil {
			ops = e.ops[lo:hi]
		}
		sleep := e.sleeps[slo:e.sleepAt[j]]
		lo, slo = hi, e.sleepAt[j]
		chosen := e.choices[i]
		for ai, alt := range pending {
			if alt <= chosen || containsSorted(sleep, alt) {
				continue
			}
			childSleep := e.scratch[:0]
			doomed := false
			if e.indep != nil { // a nil relation leaves every child awake
				altOp := ops[ai]
				for ui, u := range pending {
					if u == alt {
						continue
					}
					if u > alt && !containsSorted(sleep, u) {
						continue // explored after alt, not yet covered
					}
					if e.indep(u, ops[ui], alt, altOp) {
						if e.skipBlocked && perProcessOp(ops[ui]) {
							doomed = true // u would sleep forever
							break
						}
						childSleep = append(childSleep, u) //gsb:alloc-ok reused e.scratch, steady state after the widest pending set
					}
				}
			}
			e.scratch = childSleep
			if doomed {
				blocked++
				continue
			}
			item := frontierItem{choices: e.slab.carve(i + 1)}
			copy(item.choices, e.choices[:i])
			item.choices[i] = alt
			if len(childSleep) > 0 {
				item.sleep = e.slab.carve(len(childSleep))
				copy(item.sleep, childSleep)
			}
			out = append(out, item) //gsb:alloc-ok reused e.items, steady state after the widest run
		}
	}
	e.items = out
	return out, blocked
}

// slabChunk is the size, in ints, of a prefix slab chunk. A chunk holds
// the choices and sleep sets of many frontier items (prefixes are a few
// dozen ints) and stays reachable while any of them is queued, so a
// chunk's worth of memory is the most one long-lived item can pin.
const slabChunk = 512

// prefixSlab hands out the immutable int slices of frontier items —
// branch prefixes and sleep sets — from append-only chunks, replacing one
// allocation per slice with one per chunk. A carved slice is never
// written again and is capped at its length, so an append by a later
// holder copies instead of overwriting a neighbour. The slab keeps only
// its current chunk; filled chunks live exactly as long as the items
// carved from them.
type prefixSlab struct {
	chunk []int
}

// carve returns the next n ints of the slab, starting a new chunk when
// they do not fit in the current one.
//
//gsb:hotpath
func (s *prefixSlab) carve(n int) []int {
	if cap(s.chunk)-len(s.chunk) < n {
		s.chunk = make([]int, 0, max(slabChunk, n)) //gsb:alloc-ok one chunk per slabChunk ints carved, amortized over the items it holds
	}
	l := len(s.chunk)
	s.chunk = s.chunk[:l+n]
	return s.chunk[l : l+n : l+n]
}

// containsSorted reports whether sorted slice s contains x.
//
//gsb:hotpath
func containsSorted(s []int, x int) bool {
	return indexSorted(s, x) >= 0
}

// indexSorted returns the index of x in sorted slice s, or -1. The
// slices here are pending sets (a handful of process indexes), so a
// linear scan beats binary search.
//
//gsb:hotpath
func indexSorted(s []int, x int) int {
	for i, v := range s {
		if v == x {
			return i
		}
		if v > x {
			return -1
		}
	}
	return -1
}

// intersectSorted returns the elements of sorted a also in sorted b,
// reusing a's backing array.
//
//gsb:hotpath
func intersectSorted(a, b []int) []int {
	out := a[:0]
	for _, v := range a {
		if containsSorted(b, v) {
			out = append(out, v) //gsb:alloc-ok filters a in place
		}
	}
	return out
}
