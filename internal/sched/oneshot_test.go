package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// errTestViolation marks the property violations of the terminal-outcome
// table, so the tests can assert the live error chain survives.
var errTestViolation = errors.New("test property violated")

// TestExploreTerminalOutcomes pins the one-shot (count, error) contract of
// Explore for every terminal outcome: a clean pass, a violation, budget
// exhaustion with and without reduction, a violation followed by budget
// exhaustion (the "schedule count truncated" report), a violation followed
// by cancellation, and cancellation before any run. Counts and error texts
// are asserted at every worker count where the contract documents them as
// deterministic, and at one worker (a sequential, hence reproducible, walk)
// everywhere else.
func TestExploreTerminalOutcomes(t *testing.T) {
	const n = 3
	violating := func(res *Result) error {
		if err := distinctOutputs(res); err != nil {
			return fmt.Errorf("%w: %v", errTestViolation, err)
		}
		return nil
	}
	// firstByTwo fails every schedule whose first step belongs to process 2:
	// the lex-min failure sits after two thirds of the tree, so a budget of
	// half the tree is exhausted after the violation is found.
	firstByTwo := func(res *Result) error {
		if res.Schedule[0].Proc == 2 {
			return fmt.Errorf("%w: process 2 moved first", errTestViolation)
		}
		return nil
	}
	type outcome struct {
		count int
		text  string
	}
	cases := []struct {
		name      string
		opts      ExploreOptions
		build     func() Body
		check     func(*Result) error
		cancelOn  bool // cancel the exploration from the first failing check
		preCancel bool // cancel before the exploration starts
		is        []error
		contains  string  // substring of the error text at every worker count
		want      outcome // at one worker
		wantAll   bool    // want holds at every worker count
		countAll  bool    // want.count holds at every worker count
	}{
		{
			name:  "clean",
			opts:  ExploreOptions{MaxSteps: 1000},
			build: stepsBody2(n, 2), check: func(*Result) error { return nil },
			want: outcome{count: 1680}, wantAll: true,
		},
		{
			name:  "violation",
			opts:  ExploreOptions{MaxSteps: 1000},
			build: raceBody(n), check: violating,
			is: []error{errTestViolation},
			want: outcome{count: 5, text: "sched: schedule [0 0 0 1 2 1 1 2 2] violates property: " +
				"test property violated: processes 1 and 2 both decided 2"},
			wantAll: true,
		},
		{
			name:  "budget",
			opts:  ExploreOptions{MaxRuns: 50, MaxSteps: 1000},
			build: stepsBody2(n, 3), check: func(*Result) error { return nil },
			is:   []error{ErrExplorationBudget},
			want: outcome{count: 50, text: "sched: exploration budget exhausted (after 50 runs)"}, wantAll: true,
		},
		{
			name:  "budget-sleepsets",
			opts:  ExploreOptions{MaxRuns: 20, MaxSteps: 1000, Reduction: ReductionSleepSets},
			build: mixedBody(), check: func(*Result) error { return nil },
			is:       []error{ErrExplorationBudget},
			contains: "sched: exploration budget exhausted (after 20 runs)",
			want:     outcome{count: 10, text: "sched: exploration budget exhausted (after 20 runs)"},
		},
		{
			name:  "violation-then-budget",
			opts:  ExploreOptions{MaxRuns: 800, MaxSteps: 1000},
			build: stepsBody2(n, 2), check: firstByTwo,
			is:       []error{ErrExplorationBudget},
			contains: "budget exhausted",
			want: outcome{count: 800, text: "sched: schedule [2 0 0 0 1 1 1 2 2] violates property: " +
				"test property violated: process 2 moved first " +
				"(schedule count truncated: sched: exploration budget exhausted)"},
		},
		{
			name:  "violation-then-cancel",
			opts:  ExploreOptions{MaxSteps: 1000},
			build: raceBody(n), check: violating, cancelOn: true,
			is:       []error{errTestViolation, context.Canceled},
			contains: "(schedule count truncated: exploration canceled: context canceled)",
			want: outcome{count: 1, text: "sched: schedule [0 0 0 1 2 1 1 2 2] violates property: " +
				"test property violated: processes 1 and 2 both decided 2 " +
				"(schedule count truncated: exploration canceled: context canceled)"},
			countAll: true,
		},
		{
			name:  "canceled",
			opts:  ExploreOptions{MaxSteps: 1000},
			build: stepsBody2(n, 2), check: func(*Result) error { return nil }, preCancel: true,
			is:   []error{context.Canceled},
			want: outcome{count: 0, text: "sched: exploration canceled: context canceled"}, wantAll: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 8} {
				ctx, cancel := context.WithCancel(context.Background())
				if tc.preCancel {
					cancel()
				}
				check := tc.check
				if tc.cancelOn {
					check = func(res *Result) error {
						err := tc.check(res)
						if err != nil {
							cancel()
						}
						return err
					}
				}
				opts := tc.opts
				opts.Workers = workers
				count, err := Explore(ctx, n, DefaultIDs(n), opts, tc.build, check)
				cancel()
				got := outcome{count: count, text: errText(err)}
				for _, target := range tc.is {
					if !errors.Is(err, target) {
						t.Errorf("workers=%d: err = %v, want errors.Is %v", workers, err, target)
					}
				}
				if len(tc.is) == 0 && err != nil {
					t.Errorf("workers=%d: err = %v, want nil", workers, err)
				}
				if !strings.Contains(got.text, tc.contains) {
					t.Errorf("workers=%d: error %q does not contain %q", workers, got.text, tc.contains)
				}
				if workers == 1 || tc.wantAll {
					if got != tc.want {
						t.Errorf("workers=%d: outcome %+v, want %+v", workers, got, tc.want)
					}
				} else if tc.countAll && got.count != tc.want.count {
					t.Errorf("workers=%d: count %d, want %d", workers, got.count, tc.want.count)
				}
			}
		})
	}
}

// TestExploreSliceClaimsExactly pins the slice bound: a slice of k runs
// claims exactly k run-budget slots, however many workers race for them,
// so per-checkpoint run counts are a function of the slice size alone.
func TestExploreSliceClaimsExactly(t *testing.T) {
	const n, k = 3, 3
	r := &ResumableExplorer{
		N: n, IDs: DefaultIDs(n),
		Opts:  ExploreOptions{Workers: 8, MaxSteps: 1000},
		Build: stepsBody2(n, 2), Check: func(*Result) error { return nil },
	}
	var state *ExploreState
	for slice := 0; ; slice++ {
		next, done, err := r.Slice(context.Background(), state, k)
		if err != nil {
			t.Fatalf("slice %d: %v", slice, err)
		}
		if done {
			if next.Claimed != 1680 {
				t.Fatalf("drained after %d claims, want the 1680-schedule tree", next.Claimed)
			}
			return
		}
		var before int64
		if state != nil {
			before = state.Claimed
		}
		if got := next.Claimed - before; got != k {
			t.Fatalf("slice %d claimed %d runs, want exactly %d", slice, got, k)
		}
		state = next
	}
}
