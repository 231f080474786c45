// Package sample is the statistical schedule-sampling subsystem: bounded-
// guarantee exploration for instances whose schedule tree is far beyond
// the exhaustive engine (even with partial-order reduction). Instead of
// enumerating interleavings it executes a seeded batch of independent
// runs — a uniform random walk over the pending set, or PCT
// (probabilistic concurrency testing) runs with its per-run bug-depth
// guarantee — on the same worker pool as the crash sweep, and reports
// coverage as the number of distinct Mazurkiewicz trace classes hit
// (sched.CanonicalTraceHash), not just raw run counts.
//
// Everything is deterministic given ExploreOptions.Seed: run i is
// scheduled by a policy seeded with sched.DeriveRunSeed(Seed, i), so the
// batch executes the same set of schedules at any worker count, the
// reported class coverage is interleaving-independent, and the smallest
// failing run can be replayed from its derived seed alone.
package sample

import (
	"repro/internal/runrand"
	"repro/internal/sched"
)

// DefaultDepth is the PCT bug depth used when ExploreOptions.Depth is 0:
// depth 3 covers single-ordering bugs (d=2) and the common
// atomicity-violation shapes (d=3) while keeping the k^(d-1) denominator
// of the detection guarantee small.
const DefaultDepth = 3

// PCT is the probabilistic concurrency testing policy of Burckhardt,
// Kothari, Musuvathi and Nagarakatte ("A Randomized Scheduler with
// Probabilistic Guarantees of Finding Bugs", ASPLOS 2010), adapted to the
// pending-set scheduler interface: each process gets a distinct random
// initial priority in [depth, depth+n), the scheduler always grants the
// highest-priority pending process, and depth-1 priority-change points
// are drawn uniformly over the reachable decision numbers [1, horizon-1]
// — when step number hits change point j, the process granted the
// previous step drops to priority depth-1-j (below every initial
// priority, and below every earlier change point's value).
//
// For a bug that manifests whenever d specific ordering constraints hold
// (a "depth-d" bug), a PCT run triggers it with probability at least
// 1/(n*k^(d-1)) for n processes and k steps — a per-run guarantee that a
// uniform random walk does not give, because walk probability mass
// concentrates on balanced interleavings.
//
// The policy is a deterministic function of its seed: the priorities and
// change points are drawn up front, so the schedule depends only on
// (seed, protocol), never on wall clock or worker interleaving.
type PCT struct {
	prio   []int
	change map[int]int // step number -> replacement (low) priority
	last   int         // process granted the previous step
}

// NewPCT returns a seeded PCT policy for n processes with the given bug
// depth (>= 1; depth-1 priority-change points) over a horizon of
// expected run length horizon (change points past the actual run length
// simply never fire). depth <= 0 means DefaultDepth.
func NewPCT(seed int64, n, depth, horizon int) *PCT {
	if depth <= 0 {
		depth = DefaultDepth
	}
	if horizon < 1 {
		horizon = 1
	}
	rng := runrand.New(seed)
	p := &PCT{
		prio:   make([]int, n),
		change: make(map[int]int, depth-1),
		last:   -1,
	}
	for i, r := range rng.Perm(n) {
		p.prio[i] = depth + r
	}
	// Change point j gets priority value depth-1-j, so later change
	// points push processes lower still; two points landing on the same
	// step coalesce (the run simply behaves as one of depth-1). Points
	// are drawn over the reachable decision numbers [1, horizon-1]:
	// stepNo at a decision is the count of steps already granted, so a
	// run of exactly horizon steps never presents stepNo == horizon and
	// a point there could never fire.
	span := horizon - 1
	if span < 1 {
		span = 1
	}
	for j := 0; j < depth-1; j++ {
		p.change[1+rng.Intn(span)] = depth - 1 - j
	}
	return p
}

// Next implements sched.Policy: apply any priority-change point scheduled
// for this step to the previously granted process, then grant the
// highest-priority pending process.
func (p *PCT) Next(pending []int, stepNo int) sched.Decision {
	if v, ok := p.change[stepNo]; ok && p.last >= 0 {
		p.prio[p.last] = v
		delete(p.change, stepNo)
	}
	best := pending[0]
	for _, q := range pending[1:] {
		if p.prio[q] > p.prio[best] {
			best = q
		}
	}
	p.last = best
	return sched.Decision{Proc: best}
}
