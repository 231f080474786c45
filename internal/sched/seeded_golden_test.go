package sched_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sample"
	"repro/internal/sched"
	"repro/internal/tasks"
)

// slotRenaming4 is the protocol body the seeded goldens run.
func slotRenaming4(t *testing.T) func() sched.Body {
	t.Helper()
	_, build, err := campaign.SelectProtocol("slot-renaming", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return func() sched.Body { return tasks.Body(build(4)) }
}

// seededSchedulesHash runs the first runs indices of a seeded batch of
// slot-renaming n=4 through the seeded-run pool and returns the SHA-256 of
// their recorded schedules — every step's Proc, Crash and Op, run by run
// in index order — and the number of runs that crashed a process. The
// schedules are a pure function of the per-run policies, so the hash pins
// the random stream each policy draws from its seed.
func seededSchedulesHash(t *testing.T, opts sched.ExploreOptions, runs int, policyFor func(int) sched.Policy) (string, int64) {
	t.Helper()
	const n = 4
	opts.Workers = 2
	recorded := make([]string, runs) // indexed by run: visit is concurrent
	var crashed atomic.Int64
	visit := func(i int, res *sched.Result, err error) error {
		s := fmt.Sprintf("run %d err=%v:", i, err)
		crash := false
		if res != nil {
			for _, st := range res.Schedule {
				s += fmt.Sprintf(" %d/%t/%s", st.Proc, st.Crash, st.Op)
				crash = crash || st.Crash
			}
		}
		if crash {
			crashed.Add(1)
		}
		recorded[i] = s
		return nil
	}
	state, done, err := sched.SeededSlice(context.Background(), n, sched.DefaultIDs(n), opts, runs,
		policyFor, slotRenaming4(t), visit, nil, 0)
	if err != nil || !done || state.Completed != int64(runs) {
		t.Fatalf("seeded slice: done %v, completed %d, err %v; want %d completed runs", done, state.Completed, err, runs)
	}
	h := sha256.New()
	for _, s := range recorded {
		fmt.Fprintln(h, s)
	}
	return hex.EncodeToString(h.Sum(nil)), crashed.Load()
}

// TestSeededSchedulesGolden pins the schedules of the seeded modes no
// other golden covers: PCT at depth 3 (under atomic and regular memory)
// and the crash sweep under each registered adversary, 200 runs each on
// slot-renaming n=4. Every run's policy draws from a generator seeded
// with DeriveRunSeed(Seed, i), so a change to how that generator is
// seeded or drawn from — or to how a policy consumes its draws — moves a
// hash. Checkpoints of these modes resume by re-deriving the same
// streams, so the expected values must never be edited to make a
// generator pass.
func TestSeededSchedulesGolden(t *testing.T) {
	const n, runs = 4, 200
	pct := func(opts sched.ExploreOptions) func(int) sched.Policy {
		model, err := sched.MemModelByName(opts.Model)
		if err != nil {
			t.Fatal(err)
		}
		horizon := sample.ProbeHorizon(n, sched.DefaultIDs(n), 4096*n, model, slotRenaming4(t))
		return func(i int) sched.Policy {
			return sample.NewPCT(sched.DeriveRunSeed(opts.Seed, i), n, opts.Depth, horizon)
		}
	}
	crash := func(adversary string) sched.ExploreOptions {
		return sched.ExploreOptions{Seed: 1, CrashRuns: runs, CrashProb: 0.05, Adversary: adversary}
	}
	cases := []struct {
		name string
		opts sched.ExploreOptions
		want string
	}{
		{"pct/atomic", sched.ExploreOptions{Seed: 1, Depth: 3, Model: "atomic"},
			"73087509ff07b332fc06adb3f19b93435491166099e8c6ad112d67fbe6170a27"},
		{"pct/regular", sched.ExploreOptions{Seed: 1, Depth: 3, Model: "regular"},
			"e1d4e8b2c6cfab9ed4e0254a35ded2b66740e01bf50ec04b668a023d4901df42"},
		{"crash/uniform-crash", crash(sched.AdversaryUniformCrash),
			"c41af7c368c0d959087cfa8cedab9861985f0bb389732876392a60a698f700ec"},
		{"crash/t-resilient", crash(sched.AdversaryTResilient),
			"5def8b7bfb37292c8ee50ce8fdf5502eb88bc0c56d7baa807d8545a26dffc821"},
		{"crash/adaptive", crash(sched.AdversaryAdaptive),
			"df249ba55a74857ad02a200b44c82516e92c892db48f2156a62b74557d1456d9"},
	}
	for _, tc := range cases {
		policyFor := sched.CrashSweepPolicies(n, tc.opts)
		if tc.opts.CrashRuns == 0 {
			policyFor = pct(tc.opts)
		}
		got, crashed := seededSchedulesHash(t, tc.opts, runs, policyFor)
		if got != tc.want {
			t.Errorf("%s: schedules hash %s, want %s", tc.name, got, tc.want)
		}
		// A sweep whose runs never crash would pin only the scheduling
		// draws, not the crash draws.
		if tc.opts.CrashRuns > 0 && crashed == 0 {
			t.Errorf("%s: no run crashed a process", tc.name)
		}
	}
}
