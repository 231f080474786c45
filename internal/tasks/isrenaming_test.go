package tasks

import (
	"context"
	"testing"

	"repro/internal/gsb"
	"repro/internal/sched"
)

func TestISRenamingUniqueInRange(t *testing.T) {
	for n := 1; n <= 6; n++ {
		spec := gsb.Renaming(n, n*(n+1)/2)
		for seed := int64(0); seed < 25; seed++ {
			_, err := RunVerified(spec, sched.DefaultIDs(n), sched.NewRandom(seed),
				func(n int) Solver { return NewISRenaming("IS", n) })
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

func TestISRenamingAdaptive(t *testing.T) {
	// With p participants, names are bounded by p(p+1)/2, not n(n+1)/2.
	n := 6
	for p := 1; p <= n; p++ {
		for seed := int64(0); seed < 10; seed++ {
			var policy sched.Policy = sched.NewRandom(seed)
			for i := p; i < n; i++ {
				policy = &sched.CrashAt{Inner: policy, Proc: i, StepsBeforeCrash: 0}
			}
			res, err := Run(n, sched.DefaultIDs(n), policy,
				func(n int) Solver { return NewISRenaming("IS", n) })
			if err != nil {
				t.Fatalf("p=%d seed=%d: %v", p, seed, err)
			}
			seen := map[int]bool{}
			for i := 0; i < p; i++ {
				if !res.Decided[i] {
					t.Fatalf("p=%d seed=%d: participant %d undecided", p, seed, i)
				}
				name := res.Outputs[i]
				if name < 1 || name > p*(p+1)/2 {
					t.Fatalf("p=%d seed=%d: name %d outside adaptive bound [1..%d]",
						p, seed, name, p*(p+1)/2)
				}
				if seen[name] {
					t.Fatalf("p=%d seed=%d: duplicate name %d", p, seed, name)
				}
				seen[name] = true
			}
		}
	}
}

func TestISRenamingExhaustiveN3(t *testing.T) {
	// All failure-free schedules at n=3: names distinct in [1..6].
	n := 3
	spec := gsb.Renaming(n, n*(n+1)/2)
	_, err := sched.Explore(context.Background(), n, sched.DefaultIDs(n), sched.ExploreOptions{Workers: 1, MaxRuns: 500000, MaxSteps: 10000},
		func() sched.Body { return Body(NewISRenaming("IS", n)) },
		checkAgainst(spec))
	if err != nil {
		t.Fatal(err)
	}
}

func TestISRenamingMatchesSizeRankClasses(t *testing.T) {
	// The protocol's name depends only on (view size, rank) — the
	// canonical comparison-based class of the one-round IIS vertex. Check
	// comparison-basedness by schedule replay with order-isomorphic ids.
	n := 4
	ids := []int{10, 3, 77, 42}
	build := func() sched.Body { return Body(NewISRenaming("IS", n)) }
	alts := [][]int{sched.OrderIsomorphicIDs(ids, 1)}
	if err := sched.CheckComparisonBased(n, ids, sched.NewRandom(5), build, alts); err != nil {
		t.Fatal(err)
	}
}
