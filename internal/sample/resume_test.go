package sample

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/sched"
)

func itoa(v int) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// racyBuild decides the value each process read from a shared counter
// plus one: lost updates make some (seed-dependent) sampled runs decide
// duplicate low values, so a check requiring distinct outputs fails on a
// deterministic subset of run indices.
func racyBuild() sched.Body {
	counter := 0
	return func(p *sched.Proc) {
		v := p.Exec("X.read", func() any { return counter }).(int)
		p.Exec("X.write", func() any { counter = v + 1; return nil })
		p.Decide(v + 1)
	}
}

func distinctOutputs(res *sched.Result) error {
	seen := map[int]int{}
	for i, v := range res.Outputs {
		if j, dup := seen[v]; dup {
			return &dupError{a: j, b: i, v: v}
		}
		seen[v] = i
	}
	return nil
}

type dupError struct{ a, b, v int }

func (e *dupError) Error() string {
	return "processes " + itoa(e.a) + " and " + itoa(e.b) + " both decided " + itoa(e.v)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// roundTrip serializes and restores a BatchState, as a campaign snapshot
// would.
func roundTrip(t *testing.T, st *BatchState) *BatchState {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	out := &BatchState{}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return out
}

// TestBatchSliceResumeMatchesExplore drives sampling batches in tiny
// slices with a JSON round-trip at every checkpoint and asserts the
// finalized report and verdict are identical to the uninterrupted
// Explore, for both samplers, clean and failing runs, workers 1/2/8.
func TestBatchSliceResumeMatchesExplore(t *testing.T) {
	const n, runs = 3, 120
	cases := []struct {
		name  string
		build func() sched.Body
		check func(*sched.Result) error
	}{
		{"clean", func() sched.Body { return mixedBuild() }, nil},
		{"racy", func() sched.Body { return racyBuild() }, distinctOutputs},
	}
	for _, tc := range cases {
		for _, mode := range []sched.SampleMode{sched.SampleWalk, sched.SamplePCT} {
			for _, workers := range []int{1, 2, 8} {
				opts := sched.ExploreOptions{Workers: workers, SampleRuns: runs, SampleMode: mode, Seed: 5}
				wantRep, wantErr := Explore(context.Background(), n, sched.DefaultIDs(n), opts, tc.build, tc.check)

				r := &ResumableBatch{N: n, IDs: sched.DefaultIDs(n), Opts: opts, Build: tc.build, Check: tc.check}
				st, err := r.Init(0, 1)
				if err != nil {
					t.Fatalf("%s %v workers=%d: init: %v", tc.name, mode, workers, err)
				}
				for {
					next, done, serr := r.Slice(context.Background(), st, 17)
					if serr != nil {
						t.Fatalf("%s %v workers=%d: slice: %v", tc.name, mode, workers, serr)
					}
					st = roundTrip(t, next)
					if done {
						break
					}
				}
				gotRep, gotErr := r.Finalize(context.Background(), st)
				if gotRep != wantRep || errText(gotErr) != errText(wantErr) {
					t.Errorf("%s %v workers=%d:\n sliced (%+v, %q)\noneshot (%+v, %q)",
						tc.name, mode, workers, gotRep, errText(gotErr), wantRep, errText(wantErr))
				}
			}
		}
	}
}

// TestBatchShardMergeMatchesExplore splits batches across m shards, runs
// each shard independently (in slices, through serialization), and
// asserts the merged report equals the single-process one.
func TestBatchShardMergeMatchesExplore(t *testing.T) {
	const n, runs = 3, 120
	cases := []struct {
		name  string
		build func() sched.Body
		check func(*sched.Result) error
	}{
		{"clean", func() sched.Body { return mixedBuild() }, nil},
		{"racy", func() sched.Body { return racyBuild() }, distinctOutputs},
	}
	for _, tc := range cases {
		for _, mode := range []sched.SampleMode{sched.SampleWalk, sched.SamplePCT} {
			for _, m := range []int{1, 3} {
				opts := sched.ExploreOptions{Workers: 2, SampleRuns: runs, SampleMode: mode, Seed: 5}
				wantRep, wantErr := Explore(context.Background(), n, sched.DefaultIDs(n), opts, tc.build, tc.check)

				r := &ResumableBatch{N: n, IDs: sched.DefaultIDs(n), Opts: opts, Build: tc.build, Check: tc.check}
				finals := make([]*BatchState, m)
				for shard := 0; shard < m; shard++ {
					st, err := r.Init(shard, m)
					if err != nil {
						t.Fatalf("init shard %d: %v", shard, err)
					}
					for {
						next, done, serr := r.Slice(context.Background(), st, 13)
						if serr != nil {
							t.Fatalf("shard %d: %v", shard, serr)
						}
						st = roundTrip(t, next)
						if done {
							break
						}
					}
					finals[shard] = st
				}
				gotRep, gotErr := r.Finalize(context.Background(), finals...)
				if gotRep != wantRep || errText(gotErr) != errText(wantErr) {
					t.Errorf("%s %v m=%d:\n merged (%+v, %q)\noneshot (%+v, %q)",
						tc.name, mode, m, gotRep, errText(gotErr), wantRep, errText(wantErr))
				}
			}
		}
	}
}

// TestBatchFinalizeRejectsIncompleteShardSets asserts the loud-failure
// contract of merges: missing shards, duplicate shards and unfinished
// shards are errors, not silently wrong reports.
func TestBatchFinalizeRejectsIncompleteShardSets(t *testing.T) {
	const n, runs = 3, 40
	opts := sched.ExploreOptions{Workers: 1, SampleRuns: runs, Seed: 5}
	r := &ResumableBatch{N: n, IDs: sched.DefaultIDs(n), Opts: opts, Build: func() sched.Body { return mixedBuild() }}

	complete := func(shard, of int) *BatchState {
		st, err := r.Init(shard, of)
		if err != nil {
			t.Fatal(err)
		}
		st, _, err = r.Slice(context.Background(), st, 0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	s0, s1 := complete(0, 2), complete(1, 2)
	if _, err := r.Finalize(context.Background(), s0); err == nil {
		t.Error("finalize of 1 of 2 shards succeeded")
	}
	if _, err := r.Finalize(context.Background(), s0, s0); err == nil {
		t.Error("finalize of a duplicated shard succeeded")
	}
	unfinished, err := r.Init(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finalize(context.Background(), s0, unfinished); err == nil {
		t.Error("finalize with an unfinished shard succeeded")
	}
	if rep, err := r.Finalize(context.Background(), s0, s1); err != nil || rep.Runs != runs {
		t.Errorf("complete shard set: (%+v, %v)", rep, err)
	}
}
