package tasks

import (
	"context"
	"errors"
	"testing"

	"repro/internal/gsb"
	"repro/internal/mem"
	"repro/internal/nocomm"
	"repro/internal/sched"
	"repro/internal/sched/schedtest"
)

// exploreCase is a task plus a solver whose full failure-free schedule
// tree is small enough to enumerate exhaustively.
type exploreCase struct {
	name  string
	spec  gsb.Spec
	build func(n int) Solver
}

func exploreCases(t *testing.T) []exploreCase {
	// <4,2,-,-> family member: WSB(4) = <4,2,1,3>-GSB solved from a
	// (2n-2)-renaming oracle box (2 scheduled steps per process).
	wsb := exploreCase{
		name: "wsb-4-2",
		spec: gsb.WSB(4),
		build: func(n int) Solver {
			return NewWSBFromRenaming(n, NewBoxSolver(mem.NewTaskBox("R", gsb.Renaming(4, 6), 1)))
		},
	}
	// <5,3,-,-> family member: <5,3,0,3>-GSB (3-bounded homonymous
	// renaming) solved communication-free via Theorem 9 (1 step per
	// process).
	spec53 := gsb.BoundedHomonymous(5, 3)
	delta, ok := nocomm.Build(spec53)
	if !ok {
		t.Fatalf("%v unexpectedly not solvable without communication", spec53)
	}
	bh := exploreCase{
		name: "bounded-homonymous-5-3",
		spec: spec53,
		build: func(n int) Solver {
			return SolverFunc(func(p *sched.Proc, id int) int { return delta[id-1] })
		},
	}
	return []exploreCase{wsb, bh}
}

// TestExploreVerifiedMatchesSequential asserts the parallel engine visits
// exactly the same number of schedules as the sequential baseline on real
// GSB tasks, at 1, 2 and 8 workers.
func TestExploreVerifiedMatchesSequential(t *testing.T) {
	for _, tc := range exploreCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.spec.N()
			want, err := schedtest.ExploreSequential(n, sched.DefaultIDs(n), 1<<20, 4096*n,
				func() sched.Body { return Body(tc.build(n)) },
				func(res *sched.Result) error { return VerifyResult(tc.spec, res) })
			if err != nil {
				t.Fatalf("sequential baseline: %v", err)
			}
			if want < 2 {
				t.Fatalf("sequential baseline found only %d schedules; test is vacuous", want)
			}
			for _, workers := range []int{1, 2, 8} {
				got, err := ExploreVerified(context.Background(), tc.spec, sched.DefaultIDs(n),
					sched.ExploreOptions{Workers: workers}, tc.build)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got != want {
					t.Errorf("workers=%d: visited %d schedules, sequential baseline visited %d", workers, got, want)
				}
			}
		})
	}
}

// TestExploreVerifiedPORDifferential asserts that partial-order-reduced
// exploration reaches the same verdict as the sequential exhaustive
// baseline on the <4,2> and <5,3> family members while executing
// strictly fewer runs, and that the reduced count is identical at every
// worker count (the reduced tree is a fixed object, like the full one).
func TestExploreVerifiedPORDifferential(t *testing.T) {
	for _, tc := range exploreCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.spec.N()
			want, err := schedtest.ExploreSequential(n, sched.DefaultIDs(n), 1<<20, 4096*n,
				func() sched.Body { return Body(tc.build(n)) },
				func(res *sched.Result) error { return VerifyResult(tc.spec, res) })
			if err != nil {
				t.Fatalf("sequential baseline: %v", err)
			}
			var reduced int
			for i, workers := range []int{1, 2, 8} {
				got, err := ExploreVerified(context.Background(), tc.spec, sched.DefaultIDs(n),
					sched.ExploreOptions{Workers: workers, Reduction: sched.ReductionSleepSets}, tc.build)
				if err != nil {
					t.Fatalf("workers=%d: same verdict expected, got %v", workers, err)
				}
				if got >= want {
					t.Errorf("workers=%d: reduction executed %d schedules, want strictly fewer than the %d exhaustive ones", workers, got, want)
				}
				if i == 0 {
					reduced = got
				} else if got != reduced {
					t.Errorf("workers=%d: reduced count %d differs from single-worker count %d", workers, got, reduced)
				}
			}
			t.Logf("%s: %d schedules exhaustively, %d trace classes under reduction (factor %.1f)",
				tc.name, want, reduced, float64(want)/float64(reduced))
		})
	}
}

// TestExploreVerifiedPORSeededBug plants a schedule-dependent bug — a
// WSB solver deciding off a racy shared counter, so lost updates on some
// (not all) interleavings yield an illegal output vector — and asserts
// the reduced exploration reports exactly the same lexicographically
// smallest violating schedule as the exhaustive engine: the lex-min
// violating run is the minimal member of its trace class, which sleep
// sets always explore.
func TestExploreVerifiedPORSeededBug(t *testing.T) {
	spec := gsb.WSB(3)
	n := spec.N()
	// Non-atomic read-increment on a shared register: under a schedule
	// where every process reads before anyone writes, all three decide
	// 1, leaving value 2 undecided — below WSB's lower bound of 1.
	build := func(n int) Solver {
		c := mem.NewReg[int]("C")
		return SolverFunc(func(p *sched.Proc, id int) int {
			v, _ := c.Read(p)
			c.Write(p, v+1)
			return 1 + v%2
		})
	}
	exhaust := func(workers int, red sched.Reduction) (int, error) {
		return ExploreVerified(context.Background(), spec, sched.DefaultIDs(n),
			sched.ExploreOptions{Workers: workers, Reduction: red}, build)
	}
	okCount, okErr := exhaust(1, sched.ReductionNone)
	if okErr == nil {
		t.Fatalf("exhaustive exploration missed the seeded bug after %d schedules", okCount)
	}
	for _, workers := range []int{1, 4} {
		_, err := exhaust(workers, sched.ReductionSleepSets)
		if err == nil {
			t.Fatalf("workers=%d: reduced exploration missed the seeded bug", workers)
		}
		if err.Error() != okErr.Error() {
			t.Errorf("workers=%d: violation\n  %v\nwant the exhaustive engine's lex-min report\n  %v", workers, err, okErr)
		}
	}
}

// TestExploreVerifiedBudget asserts budget exhaustion surfaces as
// ErrExplorationBudget with the exact budget as the count, under
// concurrency.
func TestExploreVerifiedBudget(t *testing.T) {
	tc := exploreCases(t)[0]
	n := tc.spec.N()
	for _, workers := range []int{2, 8} {
		count, err := ExploreVerified(context.Background(), tc.spec, sched.DefaultIDs(n),
			sched.ExploreOptions{Workers: workers, MaxRuns: 25}, tc.build)
		if !errors.Is(err, sched.ErrExplorationBudget) {
			t.Fatalf("workers=%d: err = %v, want budget error", workers, err)
		}
		if count != 25 {
			t.Errorf("workers=%d: count = %d, want exactly the budget 25", workers, count)
		}
	}
}

// TestExploreVerifiedCrashSweep drives the crash-injection sweep through
// the task-level API: outputs of crashed runs must still verify as legal
// completable prefixes.
func TestExploreVerifiedCrashSweep(t *testing.T) {
	tc := exploreCases(t)[0]
	n := tc.spec.N()
	count, err := ExploreVerified(context.Background(), tc.spec, sched.DefaultIDs(n),
		sched.ExploreOptions{Workers: 4, CrashRuns: 250, CrashProb: 0.1, Seed: 3}, tc.build)
	if err != nil {
		t.Fatal(err)
	}
	if count != 250 {
		t.Errorf("count = %d, want 250", count)
	}
}
