package sched_test

import (
	"context"
	"testing"

	"repro/internal/sched"
	"repro/internal/sched/schedtest"
)

// The engine against the schedtest oracle, which shares nothing with it
// but the Runner: its own policy, one goroutine, a fresh Runner per run.

func TestExploreMatchesSequentialCount(t *testing.T) {
	cases := []struct {
		n, k int // n processes, k noop steps each (plus one decide)
	}{
		{2, 4}, // C(10,5) = 252 schedules
		{3, 2}, // multinomial(9;3,3,3) = 1680
		{4, 1}, // multinomial(8;2,2,2,2) = 2520
	}
	for _, tc := range cases {
		build := func() sched.Body { return sched.StepsBody(tc.k) }
		ok := func(*sched.Result) error { return nil }
		want, err := schedtest.ExploreSequential(tc.n, sched.DefaultIDs(tc.n), 1<<20, 1000, build, ok)
		if err != nil {
			t.Fatalf("n=%d k=%d sequential: %v", tc.n, tc.k, err)
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := sched.Explore(context.Background(), tc.n, sched.DefaultIDs(tc.n),
				sched.ExploreOptions{Workers: workers, MaxSteps: 1000}, build, ok)
			if err != nil {
				t.Fatalf("n=%d k=%d workers=%d: %v", tc.n, tc.k, workers, err)
			}
			if got != want {
				t.Errorf("n=%d k=%d workers=%d: %d schedules, sequential found %d", tc.n, tc.k, workers, got, want)
			}
		}
	}
}

func TestExploreViolationMatchesSequentialTrace(t *testing.T) {
	// At one worker the engine's reported violation must be the
	// lexicographic minimum; the sequential baseline's smallest-first DFS
	// finds violations in stack order, so only cross-check that both see
	// a violation for the same protocol.
	const n = 2
	_, seqErr := schedtest.ExploreSequential(n, sched.DefaultIDs(n), 1<<20, 1000, sched.RaceBody(n), sched.DistinctOutputs)
	if seqErr == nil {
		t.Fatal("sequential baseline missed the lost-update schedules")
	}
	_, parErr := sched.Explore(context.Background(), n, sched.DefaultIDs(n),
		sched.ExploreOptions{Workers: 1, MaxSteps: 1000}, sched.RaceBody(n), sched.DistinctOutputs)
	if parErr == nil {
		t.Fatal("parallel engine missed the lost-update schedules")
	}
}

// TestExploreWorkersReuseDifferential cross-checks the reused-runner
// parallel engine against the fresh-runner sequential baseline at workers
// 1, 2 and 8: same schedule count on a full exploration.
func TestExploreWorkersReuseDifferential(t *testing.T) {
	const n = 3
	build := func() sched.Body {
		counter := new(int)
		return sched.CounterBody(counter, 2)
	}
	check := func(res *sched.Result) error {
		_, err := res.DecidedVector()
		return err
	}
	want, err := schedtest.ExploreSequential(n, sched.DefaultIDs(n), 1<<20, 1<<16, build, check)
	if err != nil {
		t.Fatalf("sequential exploration failed: %v", err)
	}
	for _, workers := range []int{1, 2, 8} {
		// A nil ctx, which Explore documents as context.Background().
		got, err := sched.Explore(nil, n, sched.DefaultIDs(n),
			sched.ExploreOptions{Workers: workers, MaxRuns: 1 << 20, MaxSteps: 1 << 16}, build, check)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Fatalf("workers=%d explored %d schedules, sequential (fresh runners) explored %d", workers, got, want)
		}
	}
}
