package sched_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tasks"
)

// slotRenaming3 returns the explorer of slot-renaming n=3, checked
// against its renaming spec.
func slotRenaming3(t *testing.T, opts sched.ExploreOptions) *sched.ResumableExplorer {
	t.Helper()
	const n = 3
	spec, build, err := campaign.SelectProtocol("slot-renaming", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &sched.ResumableExplorer{
		N: n, IDs: sched.DefaultIDs(n), Opts: opts,
		Build: func() sched.Body { return tasks.Body(build(n)) },
		Check: func(res *sched.Result) error { return tasks.VerifyResult(spec, res) },
	}
}

// TestGoldenWalk pins the walk order of the exploration engine: the
// JSON-encoded state after a 500-run, one-worker slice of slot-renaming
// n=3 — its frontier choices and sleep sets, Claimed and Completed. The
// frontier is exactly the set of sibling prefixes the prefix-replay
// policy branched and the workers have not yet popped, so any change to
// the branching order, the sleep sets or the abort rule moves the hash.
// Checkpoints persist this state, so a moved hash also means existing
// checkpoints no longer resume to the same walk.
func TestGoldenWalk(t *testing.T) {
	cases := []struct {
		red  sched.Reduction
		want string // first 16 hex digits of the SHA-256 of the JSON state
	}{
		{sched.ReductionNone, "6d9c31921ef1f55a"},
		{sched.ReductionSleepSets, "54414cfa2cad9854"},
		// The unfiltered walk: the ReductionSleepSets hash before that
		// walk stopped branching into children a sleeping decide blocks.
		{sched.ReductionSleepMemo, "1e64fb586b5e490b"},
	}
	for _, tc := range cases {
		r := slotRenaming3(t, sched.ExploreOptions{Workers: 1, Reduction: tc.red})
		st, done, err := r.Slice(context.Background(), nil, 500)
		if err != nil || done {
			t.Fatalf("%v: slice = (done %v, err %v), want an unfinished walk", tc.red, done, err)
		}
		if st.Claimed != 500 {
			t.Fatalf("%v: slice claimed %d runs, want 500", tc.red, st.Claimed)
		}
		enc, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:8]); got != tc.want {
			t.Errorf("%v: walk state hash %s, want %s (completed %d, %d frontier items)", tc.red, got, tc.want, st.Completed, len(st.Frontier))
		}
	}
}

// TestExhaustiveWalkHasNoProbes: without reduction no pair of steps
// commutes, so the walk never puts a process to sleep and never aborts a
// run — every executed run is a verified schedule, and no frontier item of
// any slice carries a sleep set.
func TestExhaustiveWalkHasNoProbes(t *testing.T) {
	reg := stats.New()
	r := slotRenaming3(t, sched.ExploreOptions{Workers: 2, Stats: reg})
	var st *sched.ExploreState
	for done := false; !done; {
		var err error
		st, done, err = r.Slice(context.Background(), st, 5000)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range st.Frontier {
			if len(it.Sleep) > 0 {
				t.Fatalf("frontier item %v carries sleep set %v", it.Choices, it.Sleep)
			}
		}
	}
	count, err := r.Finalize(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if aborts := snap.Counter(sched.MetricAborts); aborts != 0 {
		t.Errorf("%s = %d, want 0", sched.MetricAborts, aborts)
	}
	runs, schedules := snap.Counter(sched.MetricRuns), snap.Counter(sched.MetricSchedules)
	if runs != schedules || schedules != int64(count) {
		t.Errorf("%s = %d, %s = %d, verdict count %d; want all equal", sched.MetricRuns, runs, sched.MetricSchedules, schedules, count)
	}
}
