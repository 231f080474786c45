package sched

import (
	"context"
	"testing"

	"repro/internal/stats"
)

// TestExploreStatsDeterministic checks the observability counters against
// the engine's determinism contract: on a clean exploration, runs,
// schedules and aborts are pure functions of the options — the same at
// every worker count — schedules equals the returned count, and the
// frontier gauge has drained to zero. Blocked branches are counted only
// by the ReductionSleepSets walk, deterministically. Steals are inherently
// interleaving-dependent (and zero at one worker); prunes stay zero
// without a violation bound.
func TestExploreStatsDeterministic(t *testing.T) {
	for _, red := range []Reduction{ReductionNone, ReductionSleepSets, ReductionSleepMemo} {
		var wantRuns, wantScheds, wantAborts, wantBlocked int64
		for _, workers := range []int{1, 2, 8} {
			reg := stats.New()
			build := func() Body { return stepsBody(2) }
			count, err := Explore(context.Background(), 3, DefaultIDs(3),
				ExploreOptions{Workers: workers, MaxSteps: 1000, Reduction: red, Stats: reg},
				build, func(*Result) error { return nil })
			if err != nil {
				t.Fatalf("reduction=%v workers=%d: %v", red, workers, err)
			}
			snap := reg.Snapshot()
			runs, scheds, aborts := snap.Counter(MetricRuns), snap.Counter(MetricSchedules), snap.Counter(MetricAborts)
			blocked := snap.Counter(MetricBlockedBranches)
			if (blocked > 0) != (red == ReductionSleepSets) {
				t.Fatalf("reduction=%v workers=%d: %s = %d", red, workers, MetricBlockedBranches, blocked)
			}
			if scheds != int64(count) {
				t.Fatalf("reduction=%v workers=%d: %s = %d, Explore returned %d", red, workers, MetricSchedules, scheds, count)
			}
			if runs != scheds+aborts {
				t.Fatalf("reduction=%v workers=%d: runs %d != schedules %d + aborts %d", red, workers, runs, scheds, aborts)
			}
			if p := snap.Counter(MetricPrunes); p != 0 {
				t.Fatalf("reduction=%v workers=%d: %s = %d on a violation-free exploration", red, workers, MetricPrunes, p)
			}
			if d := snap.Gauges[MetricFrontierDepth]; d != 0 {
				t.Fatalf("reduction=%v workers=%d: frontier gauge = %d after drain", red, workers, d)
			}
			if workers == 1 {
				wantRuns, wantScheds, wantAborts, wantBlocked = runs, scheds, aborts, blocked
				if s := snap.Counter(MetricSteals); s != 0 {
					t.Fatalf("reduction=%v: %d steals at one worker", red, s)
				}
				continue
			}
			if runs != wantRuns || scheds != wantScheds || aborts != wantAborts || blocked != wantBlocked {
				t.Fatalf("reduction=%v workers=%d: (runs, schedules, aborts, blocked) = (%d, %d, %d, %d), want (%d, %d, %d, %d) as at workers=1",
					red, workers, runs, scheds, aborts, blocked, wantRuns, wantScheds, wantAborts, wantBlocked)
			}
		}
	}
}

// TestSeededSliceStats checks the seeded pool publishes one run per
// executed index, cumulative across slices.
func TestSeededSliceStats(t *testing.T) {
	reg := stats.New()
	opts := ExploreOptions{Workers: 2, MaxSteps: 1000, Stats: reg}
	policy := func(i int) Policy { return NewRandom(DeriveRunSeed(7, i)) }
	build := func() Body { return stepsBody(2) }
	visit := func(int, *Result, error) error { return nil }

	var state *SeededState
	for {
		next, done, err := SeededSlice(context.Background(), 3, DefaultIDs(3), opts, 50,
			policy, build, visit, state, 20)
		if err != nil {
			t.Fatal(err)
		}
		state = next
		if done {
			break
		}
	}
	if got := reg.Snapshot().Counter(MetricRuns); got != 50 {
		t.Fatalf("%s = %d after 50 seeded runs, want 50", MetricRuns, got)
	}
}
