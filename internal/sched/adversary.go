// Adversary registry: the crash-injection strategy of a sweep, as a
// first-class axis of the execution model alongside the memory model.
//
// An adversary is a named constructor of per-run crash policies. Every
// strategy is a pure function of (opts.Seed, run index) through
// DeriveRunSeed — no state beyond the seeded-run pool's watermark — so
// sweeps under any adversary checkpoint, resume and shard exactly like
// the uniform sweep: the adversary's "RNG state" is reconstructed from
// the run index, never serialized.
package sched

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/runrand"
)

// Registered adversary names (ExploreOptions.Adversary, gsbrun
// -adversary). All drive crash sweeps (CrashRuns > 0).
const (
	// AdversaryUniformCrash is the pre-registry sweep and the default:
	// every decision picks a uniform pending process and crashes it with
	// probability CrashProb, up to n-1 crashes (RandomCrash).
	AdversaryUniformCrash = "uniform-crash"
	// AdversaryTResilient models a t-resilient environment: each run
	// pre-draws a victim set of at most n-1 processes, and only
	// victims may crash — the other n-t processes are reliable.
	AdversaryTResilient = "t-resilient"
	// AdversaryAdaptive crashes adaptively: with probability CrashProb
	// per decision it crashes the pending process that has been granted
	// the most steps so far (ties to the smallest index) — targeting the
	// processes furthest along instead of a uniform pick.
	AdversaryAdaptive = "adaptive"
)

// Adversary is a registered crash-injection strategy. The zero value is
// not meaningful; obtain instances through AdversaryByName.
type Adversary struct {
	name string
	// policies builds the per-run policy constructor for a sweep of n
	// processes under opts (opts already has its defaults filled in).
	policies func(n int, opts ExploreOptions) func(run int) Policy
}

// Name returns the adversary's registered name.
func (a Adversary) Name() string { return a.name }

// String implements fmt.Stringer.
func (a Adversary) String() string { return a.name }

// adversaryRegistry is the fixed, ordered adversary registry (default
// first). A slice (not a map) so listings and lookups are deterministic.
var adversaryRegistry = []Adversary{
	{name: AdversaryUniformCrash, policies: func(n int, opts ExploreOptions) func(run int) Policy {
		return func(i int) Policy {
			return NewRandomCrash(DeriveRunSeed(opts.Seed, i), opts.CrashProb, n-1)
		}
	}},
	{name: AdversaryTResilient, policies: func(n int, opts ExploreOptions) func(run int) Policy {
		return func(i int) Policy {
			return NewTResilientCrash(DeriveRunSeed(opts.Seed, i), opts.CrashProb, n-1, n)
		}
	}},
	{name: AdversaryAdaptive, policies: func(n int, opts ExploreOptions) func(run int) Policy {
		return func(i int) Policy {
			return NewAdaptiveCrash(DeriveRunSeed(opts.Seed, i), opts.CrashProb, n-1, n)
		}
	}},
}

// Adversaries lists the registered adversary names in registry order
// (the default first).
func Adversaries() []string {
	names := make([]string, len(adversaryRegistry))
	for i, a := range adversaryRegistry {
		names[i] = a.name
	}
	return names
}

// AdversaryByName resolves a registered adversary name. The empty string
// means the default (uniform-crash). Unknown names error with the
// registered list — the message ExploreOptions.Validate and the CLIs
// surface.
func AdversaryByName(name string) (Adversary, error) {
	if name == "" {
		return adversaryRegistry[0], nil
	}
	for _, a := range adversaryRegistry {
		if a.name == name {
			return a, nil
		}
	}
	return Adversary{}, fmt.Errorf("unknown adversary %q (registered: %s)", name, strings.Join(Adversaries(), ", "))
}

// adversaryFor resolves opts.Adversary inside an engine whose options
// already passed Validate.
func adversaryFor(opts ExploreOptions) Adversary {
	a, err := AdversaryByName(opts.Adversary)
	if err != nil {
		panic("sched: " + err.Error() + " (options not validated?)")
	}
	return a
}

// TResilientCrash schedules like Random but restricts crash injection to
// a pre-drawn victim set of at most maxCrashes of the n processes: a
// t-resilient environment where the other processes are reliable. The
// victim set is drawn from the seed, so the policy — like every sweep
// policy — is a pure function of its constructor arguments.
type TResilientCrash struct {
	rng       *rand.Rand
	crashProb float64
	victim    []bool
	remaining int
}

// NewTResilientCrash returns a seeded t-resilient crash policy over n
// processes with a victim budget of maxCrashes.
func NewTResilientCrash(seed int64, crashProb float64, maxCrashes, n int) *TResilientCrash {
	if math.IsNaN(crashProb) || crashProb < 0 || crashProb > 1 {
		panic(fmt.Sprintf("sched: crashProb %v outside [0,1]", crashProb))
	}
	if maxCrashes > n {
		maxCrashes = n
	}
	rng := runrand.New(seed)
	victim := make([]bool, n)
	for _, v := range rng.Perm(n)[:maxCrashes] {
		victim[v] = true
	}
	return &TResilientCrash{rng: rng, crashProb: crashProb, victim: victim, remaining: maxCrashes}
}

// Next implements Policy.
//
//gsb:hotpath
func (t *TResilientCrash) Next(pending []int, _ int) Decision {
	p := pending[t.rng.Intn(len(pending))]
	if t.remaining > 0 && t.victim[p] && t.rng.Float64() < t.crashProb {
		t.remaining--
		t.victim[p] = false
		return Decision{Proc: p, Crash: true}
	}
	return Decision{Proc: p}
}

// AdaptiveCrash schedules like Random but crashes adaptively: with
// probability crashProb per decision it crashes the pending process with
// the most granted steps (ties to the smallest index), up to maxCrashes
// crashes — the adversary watches the run and fells the front-runner.
type AdaptiveCrash struct {
	rng        *rand.Rand
	crashProb  float64
	maxCrashes int
	crashes    int
	granted    []int
}

// NewAdaptiveCrash returns a seeded adaptive crash policy over n
// processes.
func NewAdaptiveCrash(seed int64, crashProb float64, maxCrashes, n int) *AdaptiveCrash {
	if math.IsNaN(crashProb) || crashProb < 0 || crashProb > 1 {
		panic(fmt.Sprintf("sched: crashProb %v outside [0,1]", crashProb))
	}
	return &AdaptiveCrash{
		rng:        runrand.New(seed),
		crashProb:  crashProb,
		maxCrashes: maxCrashes,
		granted:    make([]int, n),
	}
}

// Next implements Policy.
//
//gsb:hotpath
func (a *AdaptiveCrash) Next(pending []int, _ int) Decision {
	if a.crashes < a.maxCrashes && a.rng.Float64() < a.crashProb {
		best := pending[0]
		for _, p := range pending[1:] {
			if a.granted[p] > a.granted[best] {
				best = p
			}
		}
		a.crashes++
		return Decision{Proc: best, Crash: true}
	}
	p := pending[a.rng.Intn(len(pending))]
	a.granted[p]++
	return Decision{Proc: p}
}
