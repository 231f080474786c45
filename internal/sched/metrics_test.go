package sched

import (
	"context"
	"reflect"
	"sync/atomic"
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
// without a violation bound. The nil-registry row walks unobserved and
// must return the observed walk's count and verdict.
func TestExploreStatsDeterministic(t *testing.T) {
	build := func() Body { return stepsBody(2) }
	for _, red := range []Reduction{ReductionNone, ReductionSleepSets, ReductionSleepMemo} {
		unobserved, err := Explore(context.Background(), 3, DefaultIDs(3),
			ExploreOptions{Workers: 1, MaxSteps: 1000, Reduction: red},
			build, func(*Result) error { return nil })
		if err != nil {
			t.Fatalf("reduction=%v nil registry: %v", red, err)
		}
		var wantRuns, wantScheds, wantAborts, wantBlocked int64
		for _, workers := range []int{1, 2, 8} {
			reg := stats.New()
			count, err := Explore(context.Background(), 3, DefaultIDs(3),
				ExploreOptions{Workers: workers, MaxSteps: 1000, Reduction: red, Stats: reg},
				build, func(*Result) error { return nil })
			if err != nil {
				t.Fatalf("reduction=%v workers=%d: %v", red, workers, err)
			}
			if count != unobserved {
				t.Fatalf("reduction=%v workers=%d: observed walk counts %d, nil-registry walk %d", red, workers, count, unobserved)
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
// executed index, cumulative across slices. The nil-registry row runs the
// same slices unobserved: it must visit as many runs and end in the same
// state (watermark and verdict) as the observed pool.
func TestSeededSliceStats(t *testing.T) {
	policy := func(i int) Policy { return NewRandom(DeriveRunSeed(7, i)) }
	build := func() Body { return stepsBody(2) }
	pool := func(reg *stats.Registry) (*SeededState, int64) {
		var visits atomic.Int64
		visit := func(int, *Result, error) error { visits.Add(1); return nil }
		opts := ExploreOptions{Workers: 2, MaxSteps: 1000, Stats: reg}
		var state *SeededState
		for {
			next, done, err := SeededSlice(context.Background(), 3, DefaultIDs(3), opts, 50,
				policy, build, visit, state, 20)
			if err != nil {
				t.Fatal(err)
			}
			state = next
			if done {
				return state, visits.Load()
			}
		}
	}
	reg := stats.New()
	state, visits := pool(reg)
	if got := reg.Snapshot().Counter(MetricRuns); got != 50 || visits != 50 {
		t.Fatalf("%s = %d, %d visits after 50 seeded runs, want 50", MetricRuns, got, visits)
	}
	unobserved, unobservedVisits := pool(nil)
	if !reflect.DeepEqual(unobserved, state) || unobservedVisits != visits {
		t.Fatalf("nil-registry pool ended at %+v after %d visits, observed pool at %+v after %d", unobserved, unobservedVisits, state, visits)
	}
}
