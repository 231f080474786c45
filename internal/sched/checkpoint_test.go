package sched

import (
	"context"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"
)

// sliceToCompletion drives a ResumableExplorer in slices of sliceRuns
// through a JSON round-trip at every checkpoint — the in-process
// equivalent of kill + resume-from-snapshot at each pause point.
func sliceToCompletion(t *testing.T, r *ResumableExplorer, state *ExploreState, sliceRuns int) *ExploreState {
	t.Helper()
	for slices := 0; ; slices++ {
		if slices > 1<<20 {
			t.Fatal("sliced exploration failed to make progress")
		}
		next, done, err := r.Slice(context.Background(), state, sliceRuns)
		if err != nil {
			t.Fatalf("slice %d: %v", slices, err)
		}
		b, jerr := json.Marshal(next)
		if jerr != nil {
			t.Fatalf("slice %d: marshal: %v", slices, jerr)
		}
		restored := &ExploreState{}
		if jerr := json.Unmarshal(b, restored); jerr != nil {
			t.Fatalf("slice %d: unmarshal: %v", slices, jerr)
		}
		if !equalExploreStates(next, restored) {
			t.Fatalf("slice %d: state did not survive the JSON round-trip", slices)
		}
		state = restored
		if done {
			return state
		}
	}
}

// TestExploreSliceResumeMatchesExplore drives the resumable engine in
// tiny slices — serializing and restoring the state at every checkpoint —
// and asserts the finalized (count, verdict) pair is identical to the
// one-shot engine's, for every reduction mode and worker count, on both
// a clean tree and one with property violations.
func TestExploreSliceResumeMatchesExplore(t *testing.T) {
	const n = 3
	protocols := []struct {
		name  string
		build func() Body
		check func(*Result) error
	}{
		{"clean", stepsBody2(n, 2), func(*Result) error { return nil }},
		{"racy", raceBody(n), distinctOutputs},
	}
	for _, p := range protocols {
		for _, reduction := range []Reduction{ReductionNone, ReductionSleepSets, ReductionSleepMemo} {
			for _, workers := range []int{1, 2, 8} {
				opts := ExploreOptions{Workers: workers, MaxSteps: 1000, Reduction: reduction}
				wantCount, wantErr := Explore(context.Background(), n, DefaultIDs(n), opts, p.build, p.check)

				r := &ResumableExplorer{N: n, IDs: DefaultIDs(n), Opts: opts, Build: p.build, Check: p.check}
				final := sliceToCompletion(t, r, nil, 7)
				gotCount, gotErr := r.Finalize(context.Background(), final)

				if gotCount != wantCount || errText(gotErr) != errText(wantErr) {
					t.Errorf("%s reduction=%v workers=%d: sliced (%d, %q), one-shot (%d, %q)",
						p.name, reduction, workers, gotCount, errText(gotErr), wantCount, errText(wantErr))
				}
			}
		}
	}
}

// stepsBody2 adapts stepsBody (k noop steps + decide) to a build func
// independent of n (stepsBody already is; this names the intent).
func stepsBody2(_, k int) func() Body {
	return func() Body { return stepsBody(k) }
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestSeedShardsMergeMatchesExplore splits explorations into m shard
// states, runs every shard independently to completion (each through its
// own checkpoint slices), and asserts the merged verdict is identical to
// the single-process one — for clean and failing trees, every reduction,
// several shard counts.
func TestSeedShardsMergeMatchesExplore(t *testing.T) {
	const n = 3
	protocols := []struct {
		name  string
		build func() Body
		check func(*Result) error
	}{
		{"clean", stepsBody2(n, 2), func(*Result) error { return nil }},
		{"racy", raceBody(n), distinctOutputs},
	}
	for _, p := range protocols {
		for _, reduction := range []Reduction{ReductionNone, ReductionSleepSets, ReductionSleepMemo} {
			for _, m := range []int{1, 3, 5} {
				opts := ExploreOptions{Workers: 2, MaxSteps: 1000, Reduction: reduction}
				wantCount, wantErr := Explore(context.Background(), n, DefaultIDs(n), opts, p.build, p.check)

				r := &ResumableExplorer{N: n, IDs: DefaultIDs(n), Opts: opts, Build: p.build, Check: p.check}
				states, err := r.SeedShards(context.Background(), m)
				if err != nil {
					t.Fatalf("%s reduction=%v m=%d: seed: %v", p.name, reduction, m, err)
				}
				if len(states) != m {
					t.Fatalf("%s reduction=%v m=%d: got %d shard states", p.name, reduction, m, len(states))
				}
				finals := make([]*ExploreState, m)
				for i, st := range states {
					finals[i] = sliceToCompletion(t, r, st, 11)
				}
				gotCount, gotErr := r.Finalize(context.Background(), finals...)
				if gotCount != wantCount || errText(gotErr) != errText(wantErr) {
					t.Errorf("%s reduction=%v m=%d: merged (%d, %q), one-shot (%d, %q)",
						p.name, reduction, m, gotCount, errText(gotErr), wantCount, errText(wantErr))
				}
			}
		}
	}
}

// TestExploreSlicePause asserts a pause (a canceled context) returns a
// resumable state: pausing at the start leaves work pending, and resuming
// completes to the one-shot outcome.
func TestExploreSlicePause(t *testing.T) {
	const n = 3
	build, check := stepsBody2(n, 2), func(*Result) error { return nil }
	opts := ExploreOptions{Workers: 2, MaxSteps: 1000}
	want, _ := Explore(context.Background(), n, DefaultIDs(n), opts, build, check)

	r := &ResumableExplorer{N: n, IDs: DefaultIDs(n), Opts: opts, Build: build, Check: check}
	// A context canceled before the slice starts: the slice must stop
	// early with a non-empty frontier (the tree has 1680 schedules).
	paused, cancel := context.WithCancel(context.Background())
	cancel()
	st, done, err := r.Slice(paused, nil, 0)
	if err != nil {
		t.Fatalf("paused slice: %v", err)
	}
	if done {
		t.Fatalf("pause-at-start completed the whole 1680-schedule tree")
	}
	final := sliceToCompletion(t, r, st, 100)
	got, gerr := r.Finalize(context.Background(), final)
	if gerr != nil || got != want {
		t.Fatalf("resumed after pause: (%d, %v), want (%d, nil)", got, gerr, want)
	}
}

// TestSeededSliceResumeMatchesExploreSeeded drives the seeded pool in
// slices and shards and asserts outcome equality with the one-shot batch
// (one unbounded slice): same failing run (the protocol fails on a seeded
// subset of runs), same counts, at several worker counts.
func TestSeededSliceResumeMatchesExploreSeeded(t *testing.T) {
	const n, total = 3, 200
	build := func() Body { return stepsBody(2) }
	policyFor := func(i int) Policy { return NewRandom(DeriveRunSeed(7, i)) }
	// Fail deterministically on runs whose index is 3 mod 17: the
	// reference stops at run 3; shard merges must agree.
	visit := func(i int, res *Result, err error) error {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if i%17 == 3 {
			return &testRunError{i}
		}
		return nil
	}
	for _, workers := range []int{1, 2, 8} {
		opts := ExploreOptions{Workers: workers, MaxSteps: 1000}
		wantCount, wantErr := seededOneShot(n, opts, total, policyFor, build, visit)

		// Sliced single shard with JSON round-trips between slices.
		var st *SeededState
		for {
			next, done, err := SeededSlice(context.Background(), n, DefaultIDs(n), opts, total, policyFor, build, visit, st, 13)
			if err != nil {
				t.Fatalf("workers=%d: slice: %v", workers, err)
			}
			b, _ := json.Marshal(next)
			st = &SeededState{}
			if err := json.Unmarshal(b, st); err != nil {
				t.Fatalf("workers=%d: round-trip: %v", workers, err)
			}
			if done {
				break
			}
		}
		gotCount, _, gotErr := FinalizeSeeded(context.Background(), total, st)
		if gotCount != wantCount || errText(gotErr) != errText(wantErr) {
			t.Errorf("workers=%d: sliced (%d, %q), one-shot (%d, %q)", workers, gotCount, errText(gotErr), wantCount, errText(wantErr))
		}

		// 3-way sharded: the settled shard set must report the reference's
		// failing run.
		shards := make([]*SeededState, 3)
		for shard := range shards {
			st := &SeededState{Shard: shard, Of: 3}
			for {
				next, done, err := SeededSlice(context.Background(), n, DefaultIDs(n), opts, total, policyFor, build, visit, st, 9)
				if err != nil {
					t.Fatalf("workers=%d shard=%d: %v", workers, shard, err)
				}
				st = next
				if done {
					break
				}
			}
			shards[shard] = st
		}
		gotCount, failed, gotErr := FinalizeSeeded(context.Background(), total, shards...)
		if gotCount != wantCount || failed+1 != wantCount || errText(gotErr) != errText(wantErr) {
			t.Errorf("workers=%d: sharded (%d, run %d, %q), one-shot (%d, %q)", workers, gotCount, failed, errText(gotErr), wantCount, errText(wantErr))
		}
		if _, _, err := FinalizeSeeded(context.Background(), total, shards[0], shards[2]); err == nil {
			t.Errorf("workers=%d: settling 2 of 3 shards succeeded", workers)
		}
	}
}

type testRunError struct{ run int }

func (e *testRunError) Error() string { return "seeded test failure at run " + itoa(e.run) }

func itoa(v int) string {
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

// TestSeedShardsDeterministic asserts the shard split is a pure function
// of (protocol, options, m): two invocations agree item for item.
func TestSeedShardsDeterministic(t *testing.T) {
	const n = 3
	r := &ResumableExplorer{
		N: n, IDs: DefaultIDs(n),
		Opts:  ExploreOptions{Workers: 4, MaxSteps: 1000, Reduction: ReductionSleepSets},
		Build: raceBody(n), Check: nil,
	}
	a, err := r.SeedShards(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.SeedShards(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !equalExploreStates(a[i], b[i]) {
			t.Errorf("shard %d differs between two deterministic seedings", i)
		}
	}
}

// TestExploreSliceRandomKill interleaves random pause points (killing the
// in-memory engine, resuming only from the serialized state) and asserts
// the final outcome never deviates from the one-shot engine.
func TestExploreSliceRandomKill(t *testing.T) {
	const n = 3
	rng := rand.New(rand.NewSource(42))
	build, check := raceBody(n), distinctOutputs
	opts := ExploreOptions{Workers: 2, MaxSteps: 1000, Reduction: ReductionSleepSets}
	wantCount, wantErr := Explore(context.Background(), n, DefaultIDs(n), opts, build, check)
	for trial := 0; trial < 5; trial++ {
		r := &ResumableExplorer{N: n, IDs: DefaultIDs(n), Opts: opts, Build: build, Check: check}
		var state *ExploreState
		for {
			next, done, err := r.Slice(context.Background(), state, 1+rng.Intn(9))
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			b, _ := json.Marshal(next)
			state = &ExploreState{}
			if err := json.Unmarshal(b, state); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if done {
				break
			}
		}
		gotCount, gotErr := r.Finalize(context.Background(), state)
		if gotCount != wantCount || errText(gotErr) != errText(wantErr) {
			t.Errorf("trial %d: (%d, %q), want (%d, %q)", trial, gotCount, errText(gotErr), wantCount, errText(wantErr))
		}
	}
}

// equalExploreStates reports whether two states describe the same point
// of the same exploration.
func equalExploreStates(a, b *ExploreState) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Claimed != b.Claimed || a.Completed != b.Completed || len(a.Frontier) != len(b.Frontier) {
		return false
	}
	for i := range a.Frontier {
		if !slices.Equal(a.Frontier[i].Choices, b.Frontier[i].Choices) ||
			!slices.Equal(a.Frontier[i].Sleep, b.Frontier[i].Sleep) {
			return false
		}
	}
	if (a.Failure == nil) != (b.Failure == nil) {
		return false
	}
	if a.Failure != nil && (a.Failure.Message != b.Failure.Message || !slices.Equal(a.Failure.Choices, b.Failure.Choices)) {
		return false
	}
	return true
}
