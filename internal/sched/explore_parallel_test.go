package sched

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// raceBody returns a build function for a per-run racy counter protocol:
// every process reads the counter, writes it back incremented as a second
// step, and decides the value it read plus one. Under interleaved
// schedules updates are lost, so some processes decide equal values. Each
// run gets fresh state, making the protocol safe for concurrent
// exploration.
func raceBody(n int) func() Body {
	return func() Body {
		counter := 0
		return func(p *Proc) {
			v := p.Exec("read", func() any { return counter }).(int)
			p.Exec("write", func() any { counter = v + 1; return nil })
			p.Decide(v + 1)
		}
	}
}

// distinctOutputs fails when two processes decided the same value.
func distinctOutputs(res *Result) error {
	seen := map[int]int{}
	for i, v := range res.Outputs {
		if j, dup := seen[v]; dup {
			return fmt.Errorf("processes %d and %d both decided %d", j, i, v)
		}
		seen[v] = i
	}
	return nil
}

func TestExploreDeterministicViolation(t *testing.T) {
	// Many schedules of the racy protocol violate output distinctness. The
	// engine must report the lexicographically smallest violating schedule
	// and the count of schedules up to it, identically at every worker
	// count and across repetitions.
	const n = 3
	var wantCount int
	var wantErr string
	for _, workers := range []int{1, 2, 8} {
		for rep := 0; rep < 3; rep++ {
			count, err := Explore(context.Background(), n, DefaultIDs(n),
				ExploreOptions{Workers: workers, MaxSteps: 1000}, raceBody(n), distinctOutputs)
			if err == nil {
				t.Fatalf("workers=%d rep=%d: exploration missed the lost-update schedules", workers, rep)
			}
			if wantErr == "" {
				wantCount, wantErr = count, err.Error()
				continue
			}
			if count != wantCount || err.Error() != wantErr {
				t.Errorf("workers=%d rep=%d: got (%d, %q), want (%d, %q)", workers, rep, count, err.Error(), wantCount, wantErr)
			}
		}
	}
}

func TestExploreBudgetConcurrent(t *testing.T) {
	for _, workers := range []int{2, 8} {
		for rep := 0; rep < 3; rep++ {
			count, err := Explore(context.Background(), 3, DefaultIDs(3),
				ExploreOptions{Workers: workers, MaxRuns: 50, MaxSteps: 1000},
				func() Body { return stepsBody(3) },
				func(*Result) error { return nil })
			if !errors.Is(err, ErrExplorationBudget) {
				t.Fatalf("workers=%d rep=%d: err = %v, want budget error", workers, rep, err)
			}
			if count != 50 {
				t.Errorf("workers=%d rep=%d: count = %d, want exactly the budget 50", workers, rep, count)
			}
		}
	}
}

func TestExploreContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Explore(ctx, 3, DefaultIDs(3),
		ExploreOptions{Workers: 4, MaxSteps: 1000},
		func() Body { return stepsBody(3) },
		func(*Result) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestExploreCrashSweep(t *testing.T) {
	const n, runs = 4, 300
	build := func() Body {
		return func(p *Proc) { p.Decide(p.ID()) }
	}
	// Accept any run: crashed processes simply do not decide.
	okCheck := func(res *Result) error {
		for i, d := range res.Decided {
			if !d && !res.Crashed[i] {
				return fmt.Errorf("process %d neither decided nor crashed", i)
			}
		}
		return nil
	}
	for _, workers := range []int{1, 4} {
		count, err := Explore(context.Background(), n, DefaultIDs(n),
			ExploreOptions{Workers: workers, CrashRuns: runs, CrashProb: 0.1, Seed: 7},
			build, okCheck)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if count != runs {
			t.Errorf("workers=%d: count = %d, want %d", workers, count, runs)
		}
	}
}

func TestExploreCrashSweepDeterministicFailure(t *testing.T) {
	// A check that rejects any crashed run fails at the first run whose
	// policy injects a crash; the reported run index must be the same at
	// every worker count.
	const n, runs = 3, 500
	build := func() Body {
		return func(p *Proc) { p.Decide(p.ID()) }
	}
	noCrashes := func(res *Result) error {
		for i, c := range res.Crashed {
			if c {
				return fmt.Errorf("process %d crashed", i)
			}
		}
		return nil
	}
	var wantCount int
	var wantErr string
	for _, workers := range []int{1, 2, 8} {
		count, err := Explore(context.Background(), n, DefaultIDs(n),
			ExploreOptions{Workers: workers, CrashRuns: runs, CrashProb: 0.2, Seed: 42},
			build, noCrashes)
		if err == nil {
			t.Fatalf("workers=%d: sweep with CrashProb=0.2 injected no crash in %d runs", workers, runs)
		}
		if wantErr == "" {
			wantCount, wantErr = count, err.Error()
			continue
		}
		if count != wantCount || err.Error() != wantErr {
			t.Errorf("workers=%d: got (%d, %q), want (%d, %q)", workers, count, err.Error(), wantCount, wantErr)
		}
	}
}

// TestExploreWorkerCountInvariance is the regression test behind the
// //gsb:nondeterminism-ok waiver on the exploration worker pool (and the
// exclusion of Workers from campaign identity in internal/campaign's
// optionsHashExcluded): across every mode family — exhaustive, sleep-set
// reduced, memoized, and the seeded crash sweep — the (count, error)
// outcome must be byte-identical at every worker count. A failure here means an interleaving artifact
// reached a result, and the correct fix is in the engine, not a wider
// waiver.
func TestExploreWorkerCountInvariance(t *testing.T) {
	const n = 3
	cases := []struct {
		name string
		opts ExploreOptions
	}{
		{"exhaustive", ExploreOptions{MaxSteps: 1000}},
		{"sleepsets", ExploreOptions{MaxSteps: 1000, Reduction: ReductionSleepSets}},
		{"sleepmemo", ExploreOptions{MaxSteps: 1000, Reduction: ReductionSleepMemo}},
		{"crashsweep", ExploreOptions{CrashRuns: 300, CrashProb: 0.15, Seed: 11}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				count int
				err   string
			}
			var want outcome
			for i, workers := range []int{1, 2, 8} {
				opts := tc.opts
				opts.Workers = workers
				count, err := Explore(context.Background(), n, DefaultIDs(n),
					opts, raceBody(n), distinctOutputs)
				got := outcome{count: count}
				if err != nil {
					got.err = err.Error()
				}
				if i == 0 {
					want = got
					continue
				}
				if got != want {
					t.Errorf("workers=%d: outcome %+v, workers=1 gave %+v", workers, got, want)
				}
			}
		})
	}
}
