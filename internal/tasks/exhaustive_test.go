package tasks

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/gsb"
	"repro/internal/mem"
	"repro/internal/sched"
)

// These tests verify protocols over EVERY failure-free schedule at small
// n using the sched.Explore model checker, not just sampled ones.

func checkAgainst(spec gsb.Spec) func(*sched.Result) error {
	return func(res *sched.Result) error {
		out, err := res.DecidedVector()
		if err != nil {
			return err
		}
		return spec.Verify(out)
	}
}

func TestSlotRenamingExhaustiveSchedules(t *testing.T) {
	// Theorem 12 over the complete schedule space at n=3 (each process
	// takes 4 steps: slot request, write, snapshot, decide — 34650
	// interleavings), for several slot-box assignments.
	n := 3
	spec := gsb.Renaming(n, n+1)
	for seed := int64(0); seed < 6; seed++ {
		runs, err := sched.Explore(context.Background(), n, sched.DefaultIDs(n), sched.ExploreOptions{Workers: 1, MaxRuns: 50000, MaxSteps: 1000},
			func() sched.Body {
				return Body(NewSlotRenaming("F2", n, mem.SlotBox("KS", n, n-1, seed)))
			},
			checkAgainst(spec))
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if runs != 34650 { // multinomial(12; 4,4,4)
			t.Fatalf("seed=%d: explored %d schedules, want 34650", seed, runs)
		}
	}
}

func TestSlotRenamingExhaustiveN2(t *testing.T) {
	// n=2 uses the 1-slot task: both processes share slot 1 and must
	// resolve to names 2 and 3 whenever they see each other.
	n := 2
	spec := gsb.Renaming(n, n+1)
	runs, err := sched.Explore(context.Background(), n, sched.DefaultIDs(n), sched.ExploreOptions{Workers: 1, MaxRuns: 10000, MaxSteps: 1000},
		func() sched.Body {
			return Body(NewSlotRenaming("F2", n, mem.SlotBox("KS", n, n-1, 1)))
		},
		checkAgainst(spec))
	if err != nil {
		t.Fatal(err)
	}
	if runs != 70 { // C(8,4)
		t.Fatalf("explored %d schedules, want 70", runs)
	}
}

func TestTASRenamingExhaustiveSchedules(t *testing.T) {
	n := 3
	spec := gsb.PerfectRenaming(n)
	runs, err := sched.Explore(context.Background(), n, sched.DefaultIDs(n), sched.ExploreOptions{Workers: 1, MaxRuns: 200000, MaxSteps: 1000},
		func() sched.Body { return Body(NewTASRenaming("TAS", n)) },
		checkAgainst(spec))
	if err != nil {
		t.Fatal(err)
	}
	if runs < 90 {
		t.Fatalf("suspiciously few schedules: %d", runs)
	}
}

func TestElectionExhaustiveSchedules(t *testing.T) {
	n := 3
	spec := gsb.Election(n)
	_, err := sched.Explore(context.Background(), n, sched.DefaultIDs(n), sched.ExploreOptions{Workers: 1, MaxRuns: 200000, MaxSteps: 1000},
		func() sched.Body {
			return Body(NewElectionFromPerfectRenaming(NewTASRenaming("TAS", n)))
		},
		checkAgainst(spec))
	if err != nil {
		t.Fatal(err)
	}
}

func TestWSBFromSlotExhaustiveSchedules(t *testing.T) {
	n := 3
	spec := gsb.WSB(n)
	for seed := int64(0); seed < 4; seed++ {
		_, err := sched.Explore(context.Background(), n, sched.DefaultIDs(n), sched.ExploreOptions{Workers: 1, MaxRuns: 50000, MaxSteps: 1000},
			func() sched.Body {
				box := mem.NewTaskBox("slot", gsb.KSlot(n, 2), seed)
				return Body(NewWSBFromSlotTask(2, NewBoxSolver(box)))
			},
			checkAgainst(spec))
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

func TestSnapshotRenamingExhaustiveN2(t *testing.T) {
	// The adaptive renaming protocol explored over every 2-process
	// schedule: names distinct and within [1..3].
	n := 2
	spec := gsb.Renaming(n, 2*n-1)
	runs, err := sched.Explore(context.Background(), n, sched.DefaultIDs(n), sched.ExploreOptions{Workers: 1, MaxRuns: 100000, MaxSteps: 10000},
		func() sched.Body { return Body(NewSnapshotRenaming("R", n)) },
		checkAgainst(spec))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("snapshot renaming n=2: %d schedules", runs)
}

func TestGridRenamingExhaustiveN2(t *testing.T) {
	n := 2
	spec := gsb.Renaming(n, n*(n+1)/2)
	_, err := sched.Explore(context.Background(), n, sched.DefaultIDs(n), sched.ExploreOptions{Workers: 1, MaxRuns: 100000, MaxSteps: 10000},
		func() sched.Body { return Body(NewGridRenaming("G", n)) },
		checkAgainst(spec))
	if err != nil {
		t.Fatal(err)
	}
}

func TestRenamingFromWSBExhaustiveN2(t *testing.T) {
	n := 2
	spec := gsb.Renaming(n, 2*n-2) // = perfect renaming for n=2
	for seed := int64(0); seed < 4; seed++ {
		_, err := sched.Explore(context.Background(), n, sched.DefaultIDs(n), sched.ExploreOptions{Workers: 1, MaxRuns: 200000, MaxSteps: 10000},
			func() sched.Body {
				return Body(NewRenamingFromWSB("RW", n, mem.WSBBox("WSB", n, seed)))
			},
			checkAgainst(spec))
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

func ExampleNewSlotRenaming() {
	n := 4
	spec := gsb.Renaming(n, n+1)
	res, err := RunVerified(spec, sched.DefaultIDs(n), sched.NewRoundRobin(),
		func(n int) Solver {
			return NewSlotRenaming("F2", n, mem.SlotBox("KS", n, n-1, 7))
		})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(len(res.Outputs), "processes decided distinct names in [1..5]")
	// Output: 4 processes decided distinct names in [1..5]
}
