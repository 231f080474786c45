package universal

import (
	"context"
	"strings"
	"testing"

	"repro/internal/gsb"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tasks"
)

func TestUniversalitySymmetricExhaustive(t *testing.T) {
	// Theorem 8: every feasible symmetric <n,m,l,u>-GSB task is solvable
	// from perfect renaming. Exhaustive over the full family for n <= 7,
	// with both an oracle box and a real TAS-row perfect renaming protocol.
	for n := 2; n <= 7; n++ {
		for m := 1; m <= n; m++ {
			for _, spec := range gsb.Family(n, m) {
				spec := spec
				for seed := int64(0); seed < 6; seed++ {
					// Oracle-box perfect renaming (adversarial name order).
					_, err := tasks.RunVerified(spec, sched.DefaultIDs(n), sched.NewRandom(seed),
						func(n int) tasks.Solver {
							box := mem.PerfectRenamingBox("PR", n, seed)
							return New(spec, tasks.NewBoxSolver(box))
						})
					if err != nil {
						t.Fatalf("%v seed=%d (box): %v", spec, seed, err)
					}
					// Protocol-based perfect renaming (ASM[test&set]).
					_, err = tasks.RunVerified(spec, sched.DefaultIDs(n), sched.NewRandom(seed),
						func(n int) tasks.Solver {
							return New(spec, tasks.NewTASRenaming("TAS", n))
						})
					if err != nil {
						t.Fatalf("%v seed=%d (tas): %v", spec, seed, err)
					}
				}
			}
		}
	}
}

func TestUniversalityAsymmetric(t *testing.T) {
	specs := []gsb.Spec{
		gsb.Election(4),
		gsb.Election(7),
		// The committee example from the introduction: three committees
		// with sizes in [1..2], [2..3] and [1..4] for 6 people.
		gsb.NewAsym(6, []int{1, 2, 1}, []int{2, 3, 4}),
		// A skewed task: value 1 never decided, value 2 decided by all.
		gsb.NewAsym(3, []int{0, 3}, []int{0, 3}),
	}
	for _, spec := range specs {
		spec := spec
		for seed := int64(0); seed < 15; seed++ {
			_, err := tasks.RunVerified(spec, sched.DefaultIDs(spec.N()), sched.NewRandom(seed),
				func(n int) tasks.Solver {
					box := mem.PerfectRenamingBox("PR", n, seed)
					return New(spec, tasks.NewBoxSolver(box))
				})
			if err != nil {
				t.Fatalf("%v seed=%d: %v", spec, seed, err)
			}
		}
	}
}

func TestUniversalityWithCrashes(t *testing.T) {
	spec := gsb.KSlot(6, 4)
	for seed := int64(0); seed < 30; seed++ {
		_, err := tasks.RunVerified(spec, sched.DefaultIDs(6),
			sched.NewRandomCrash(seed, 0.05, 5),
			func(n int) tasks.Solver {
				return New(spec, tasks.NewTASRenaming("TAS", n))
			})
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

func TestFirstOutputVectorDeterministicAndLegal(t *testing.T) {
	specs := []gsb.Spec{
		gsb.Election(5),
		gsb.NewAsym(6, []int{1, 2, 1}, []int{2, 3, 4}),
		gsb.NewAsym(4, []int{0, 0}, []int{4, 4}),
	}
	for _, spec := range specs {
		v1 := firstOutputVector(spec)
		v2 := firstOutputVector(spec)
		if len(v1) != spec.N() {
			t.Fatalf("%v: vector length %d", spec, len(v1))
		}
		for i := range v1 {
			if v1[i] != v2[i] {
				t.Fatalf("%v: firstOutputVector not deterministic", spec)
			}
		}
		if err := spec.Verify(v1); err != nil {
			t.Fatalf("%v: first output vector %v illegal: %v", spec, v1, err)
		}
	}
}

func TestNewPanicsOnInfeasible(t *testing.T) {
	defer func() {
		rec := recover()
		if rec == nil || !strings.Contains(rec.(string), "infeasible") {
			t.Fatalf("recover = %v", rec)
		}
	}()
	New(gsb.NewSym(5, 2, 0, 1), nil)
}

func TestSolveRejectsBadRenamer(t *testing.T) {
	spec := gsb.WSB(3)
	bad := tasks.SolverFunc(func(*sched.Proc, int) int { return 7 })
	c := New(spec, bad)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range perfect name")
		}
	}()
	r := sched.NewRunner(1, []int{1}, sched.NewRoundRobin())
	_, _ = r.Run(func(p *sched.Proc) { p.Decide(c.Solve(p, p.ID())) })
}

func TestSymmetricConstructionIsBalanced(t *testing.T) {
	// The symmetric construction must realize the balanced kernel vector.
	n, m := 7, 3
	spec := gsb.NewSym(n, m, 0, n)
	res, err := tasks.Run(n, sched.DefaultIDs(n), sched.NewRoundRobin(),
		func(n int) tasks.Solver {
			return New(spec, tasks.NewFetchIncRenaming("FI", n))
		})
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.DecidedVector()
	if err != nil {
		t.Fatal(err)
	}
	counting := spec.CountingVector(out)
	balanced := gsb.BalancedKernelVector(n, m)
	if !counting.SortedDesc().Equal(balanced) {
		t.Fatalf("counting vector %v not balanced (%v)", counting, balanced)
	}
}

func TestUniversalExhaustiveSchedules(t *testing.T) {
	// Theorem 8's construction over EVERY failure-free schedule (model
	// checking via sched.Explore) for the hardest <3,2,-,-> task and
	// an asymmetric task.
	for _, spec := range []gsb.Spec{gsb.Hardest(3, 2), gsb.NewAsym(3, []int{1, 1}, []int{1, 2})} {
		spec := spec
		_, err := sched.Explore(context.Background(), spec.N(), sched.DefaultIDs(spec.N()), sched.ExploreOptions{Workers: 1, MaxRuns: 200000, MaxSteps: 1000},
			func() sched.Body {
				return tasks.Body(New(spec, tasks.NewFetchIncRenaming("FI", spec.N())))
			},
			func(res *sched.Result) error {
				out, err := res.DecidedVector()
				if err != nil {
					return err
				}
				return spec.Verify(out)
			})
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
	}
}
