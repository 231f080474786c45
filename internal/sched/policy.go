package sched

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/runrand"
)

// Decision is a scheduling choice: grant the pending step of Proc, or
// crash Proc instead (the process never takes another step).
type Decision struct {
	Proc  int
	Crash bool
	// Abort discards the rest of the run: the runner crashes every
	// remaining process to unwind their goroutines and Run returns
	// ErrRunAborted. The partial-order-reduction policy uses it to cut
	// short runs whose every continuation is provably explored
	// elsewhere. Proc and Crash are ignored when Abort is set.
	Abort bool
	// Err, when non-nil with Abort set, is returned by Run in place of
	// ErrRunAborted: the policy is reporting a structured failure, not a
	// routine prune. The prefix-replay policies use it to surface a
	// diverging replay (ErrScheduleDiverged — a non-deterministic
	// protocol) as a clean per-run error instead of a panic that would
	// kill an exploration worker. Ignored when Abort is false.
	Err error
}

// Policy chooses the next scheduling decision. pending is the sorted list
// of process indexes with a pending operation; stepNo is the number of
// operation steps granted so far. Policies must be deterministic functions
// of their own state so that runs are reproducible.
//
// The pending slice is the runner's reusable scratch buffer: it is valid
// only for the duration of the call and is overwritten by the next
// decision. Policies that keep it must copy it (every recording policy in
// this repository does).
type Policy interface {
	Next(pending []int, stepNo int) Decision
}

// RoundRobin grants steps to pending processes in cyclic index order.
type RoundRobin struct {
	last int
}

// NewRoundRobin returns a fair deterministic policy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{last: -1} }

// Next implements Policy.
//
//gsb:hotpath
func (rr *RoundRobin) Next(pending []int, _ int) Decision {
	for _, p := range pending {
		if p > rr.last {
			rr.last = p
			return Decision{Proc: p}
		}
	}
	rr.last = pending[0]
	return Decision{Proc: pending[0]}
}

// Random grants steps uniformly at random among pending processes, using
// a seeded generator for reproducibility.
type Random struct {
	rng *rand.Rand
}

// NewRandom returns a seeded random policy.
func NewRandom(seed int64) *Random {
	return &Random{rng: runrand.New(seed)}
}

// Next implements Policy.
//
//gsb:hotpath
func (r *Random) Next(pending []int, _ int) Decision {
	return Decision{Proc: pending[r.rng.Intn(len(pending))]}
}

// RandomCrash behaves like Random but additionally crashes processes with
// probability crashProb per decision, up to maxCrashes crashes in total
// (the wait-free model allows up to n-1).
type RandomCrash struct {
	rng        *rand.Rand
	crashProb  float64
	maxCrashes int
	crashes    int
}

// NewRandomCrash returns a seeded random policy with crash injection.
func NewRandomCrash(seed int64, crashProb float64, maxCrashes int) *RandomCrash {
	if math.IsNaN(crashProb) || crashProb < 0 || crashProb > 1 {
		panic(fmt.Sprintf("sched: crashProb %v outside [0,1]", crashProb))
	}
	return &RandomCrash{
		rng:        runrand.New(seed),
		crashProb:  crashProb,
		maxCrashes: maxCrashes,
	}
}

// Next implements Policy.
//
//gsb:hotpath
func (r *RandomCrash) Next(pending []int, _ int) Decision {
	p := pending[r.rng.Intn(len(pending))]
	if r.crashes < r.maxCrashes && r.rng.Float64() < r.crashProb {
		r.crashes++
		return Decision{Proc: p, Crash: true}
	}
	return Decision{Proc: p}
}

// Script replays a fixed sequence of decisions, then falls back to
// round-robin when the script is exhausted (so that recorded schedules of
// shorter runs still drive longer replays to completion).
type Script struct {
	steps []Decision
	pos   int
	rr    *RoundRobin
}

// NewScript returns a scripted policy.
func NewScript(steps []Decision) *Script {
	return &Script{steps: append([]Decision(nil), steps...), rr: NewRoundRobin()}
}

// ScriptFromSchedule converts a recorded schedule into a script that
// replays it.
func ScriptFromSchedule(schedule []Step) *Script {
	steps := make([]Decision, 0, len(schedule))
	for _, s := range schedule {
		steps = append(steps, Decision{Proc: s.Proc, Crash: s.Crash})
	}
	return NewScript(steps)
}

// PermutedSchedule maps the process indexes of a recorded schedule through
// perm (new index = perm[old index]); used to replay a run r as the run
// r_pi of the index-independence definition (Section 2.2).
func PermutedSchedule(schedule []Step, perm []int) []Step {
	out := make([]Step, len(schedule))
	for i, s := range schedule {
		out[i] = Step{Proc: perm[s.Proc], Op: s.Op, Crash: s.Crash}
	}
	return out
}

// Next implements Policy.
//
//gsb:hotpath
func (s *Script) Next(pending []int, stepNo int) Decision {
	for s.pos < len(s.steps) {
		d := s.steps[s.pos]
		s.pos++
		for _, p := range pending {
			if p == d.Proc {
				return d
			}
		}
		// The scripted process has already finished; skip the entry.
	}
	return s.rr.Next(pending, stepNo)
}

// CrashAt wraps a policy and crashes process proc just before it would
// take its (k+1)-th step (k = stepsBeforeCrash); with k = 0 the process
// never participates.
type CrashAt struct {
	Inner            Policy
	Proc             int
	StepsBeforeCrash int

	taken   int
	crashed bool
}

// Next implements Policy. The crash guard runs before the inner policy
// is consulted: once proc has taken StepsBeforeCrash steps, the first
// decision at which it is pending again crashes it, so the inner policy
// can never over-grant the target — no steering of the inner policy is
// needed. (An inner policy that itself crashes proc early, e.g.
// RandomCrash, simply preempts the scripted crash.)
//
//gsb:hotpath
func (c *CrashAt) Next(pending []int, stepNo int) Decision {
	if !c.crashed {
		for _, p := range pending {
			if p == c.Proc && c.taken >= c.StepsBeforeCrash {
				c.crashed = true
				return Decision{Proc: c.Proc, Crash: true}
			}
		}
	}
	d := c.Inner.Next(pending, stepNo)
	if d.Proc == c.Proc {
		if d.Crash {
			c.crashed = true // the inner policy crashed the target itself
		} else if !c.crashed {
			c.taken++
		}
	}
	return d
}
