package sched

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// stepsBody performs k shared steps then decides 1.
func stepsBody(k int) Body {
	return func(p *Proc) {
		for i := 0; i < k; i++ {
			p.Exec("noop", func() any { return nil })
		}
		p.Decide(1)
	}
}

// exploreOneWorker explores on a single worker, so build and check may
// keep state across runs.
func exploreOneWorker(n, maxRuns, maxSteps int, build func() Body, check func(*Result) error) (int, error) {
	return Explore(context.Background(), n, DefaultIDs(n), ExploreOptions{Workers: 1, MaxRuns: maxRuns, MaxSteps: maxSteps}, build, check)
}

func TestExploreAllCountsInterleavings(t *testing.T) {
	// Two processes with s total steps each (k noops + 1 decide) have
	// C(2s, s) distinct schedules.
	tests := []struct {
		k    int
		want int
	}{
		{0, 2},  // C(2,1)
		{1, 6},  // C(4,2)
		{2, 20}, // C(6,3)
		{3, 70}, // C(8,4)
	}
	for _, tc := range tests {
		runs, err := exploreOneWorker(2, 10000, 1000, func() Body { return stepsBody(tc.k) },
			func(*Result) error { return nil })
		if err != nil {
			t.Fatalf("k=%d: %v", tc.k, err)
		}
		if runs != tc.want {
			t.Errorf("k=%d: %d schedules, want %d", tc.k, runs, tc.want)
		}
	}
}

func TestExploreAllThreeProcesses(t *testing.T) {
	// Multinomial(6; 2,2,2) = 90 schedules for 3 processes x 2 steps.
	runs, err := exploreOneWorker(3, 10000, 1000, func() Body { return stepsBody(1) },
		func(*Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if runs != 90 {
		t.Errorf("%d schedules, want 90", runs)
	}
}

func TestExploreAllDetectsViolations(t *testing.T) {
	// A racy protocol: both processes read-modify-write a counter without
	// atomicity (two separate steps); under some schedule the final value
	// is 1, violating the expected 2.
	counter := 0
	build := func() Body {
		counter = 0
		return func(p *Proc) {
			v := p.Exec("read", func() any { return counter }).(int)
			p.Exec("write", func() any { counter = v + 1; return nil })
			p.Decide(1)
		}
	}
	check := func(*Result) error {
		if counter != 2 {
			return fmt.Errorf("lost update: counter = %d", counter)
		}
		return nil
	}
	_, err := exploreOneWorker(2, 1000, 100, build, check)
	if err == nil {
		t.Fatal("exploration missed the lost-update schedule")
	}
}

func TestExploreAllBudget(t *testing.T) {
	_, err := exploreOneWorker(3, 5, 1000, func() Body { return stepsBody(3) },
		func(*Result) error { return nil })
	if !errors.Is(err, ErrExplorationBudget) {
		t.Fatalf("err = %v, want budget error", err)
	}
}

func TestExploreAllSingleProcess(t *testing.T) {
	runs, err := exploreOneWorker(1, 100, 100, func() Body { return stepsBody(4) },
		func(*Result) error { return nil })
	if err != nil || runs != 1 {
		t.Fatalf("runs=%d err=%v, want 1 run", runs, err)
	}
}
