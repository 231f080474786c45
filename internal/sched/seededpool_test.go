package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDeriveRunSeedDeterministicAndDecorrelated pins the contract of the
// single seed-derivation helper: pure function of (seed, index), distinct
// across a large index range, and sensitive to the sweep seed — the
// property both the crash sweep and the samplers build their
// reproducibility on.
func TestDeriveRunSeedDeterministicAndDecorrelated(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 10000; i++ {
		s := DeriveRunSeed(42, i)
		if s != DeriveRunSeed(42, i) {
			t.Fatalf("DeriveRunSeed(42, %d) not deterministic", i)
		}
		if j, dup := seen[s]; dup {
			t.Fatalf("DeriveRunSeed(42, %d) == DeriveRunSeed(42, %d) == %d", i, j, s)
		}
		seen[s] = i
	}
	if DeriveRunSeed(1, 0) == DeriveRunSeed(2, 0) {
		t.Error("derived seed insensitive to the sweep seed")
	}
	// Negative sweep seeds are legal (Seed is an arbitrary int64).
	if DeriveRunSeed(-7, 3) != DeriveRunSeed(-7, 3) {
		t.Error("negative seed not deterministic")
	}
}

// scheduleKey renders a schedule compactly for set comparisons.
func scheduleKey(schedule []Step) string {
	key := ""
	for _, s := range schedule {
		if s.Crash {
			key += fmt.Sprintf("x%d;", s.Proc)
		} else {
			key += fmt.Sprintf("%d:%s;", s.Proc, s.Op)
		}
	}
	return key
}

// seededOneShot runs a whole seeded batch as one unbounded slice and
// settles it: the path Explore's crash sweep and the samplers take.
func seededOneShot(n int, opts ExploreOptions, total int, policyFor func(int) Policy,
	build func() Body, visit func(int, *Result, error) error) (int, error) {
	st, _, err := SeededSlice(context.Background(), n, DefaultIDs(n), opts, total, policyFor, build, visit, nil, 0)
	if err != nil {
		return 0, err
	}
	count, _, err := FinalizeSeeded(context.Background(), total, st)
	return count, err
}

// TestExploreSeededSchedulesReproducible is the seed→schedule
// reproducibility contract: the same seed yields exactly the same
// schedule for every run index, at 1, 2 and 8 workers.
func TestExploreSeededSchedulesReproducible(t *testing.T) {
	const n, runs = 3, 40
	build := func() Body {
		shared := 0
		return func(p *Proc) {
			p.Exec(fmt.Sprintf("r%d.write", p.Index()), func() any { return nil })
			v := p.Exec("X.read", func() any { return shared }).(int)
			p.Exec("X.write", func() any { shared = v + 1; return nil })
			p.Decide(p.ID())
		}
	}
	collect := func(workers int) map[int]string {
		var mu sync.Mutex
		got := map[int]string{}
		count, err := seededOneShot(n, ExploreOptions{Workers: workers, Seed: 11}, runs,
			func(i int) Policy { return NewRandom(DeriveRunSeed(11, i)) },
			build,
			func(i int, res *Result, err error) error {
				if err != nil {
					return err
				}
				mu.Lock()
				got[i] = scheduleKey(res.Schedule)
				mu.Unlock()
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if count != runs {
			t.Fatalf("workers=%d: count = %d, want %d", workers, count, runs)
		}
		return got
	}
	want := collect(1)
	if len(want) != runs {
		t.Fatalf("baseline recorded %d schedules, want %d", len(want), runs)
	}
	for _, workers := range []int{2, 8} {
		got := collect(workers)
		for i := 0; i < runs; i++ {
			if got[i] != want[i] {
				t.Errorf("workers=%d: run %d schedule differs from single-worker run", workers, i)
			}
		}
	}
}

// TestExploreSeededSmallestFailure: the reported failure is the smallest
// failing index regardless of worker interleaving, and the count is its
// 1-based index.
func TestExploreSeededSmallestFailure(t *testing.T) {
	const n, runs, failAt = 2, 200, 37
	build := func() Body {
		return func(p *Proc) { p.Decide(p.ID()) }
	}
	for _, workers := range []int{1, 2, 8} {
		count, err := seededOneShot(n, ExploreOptions{Workers: workers}, runs,
			func(i int) Policy { return NewRandom(DeriveRunSeed(5, i)) },
			build,
			func(i int, res *Result, err error) error {
				if err != nil {
					return err
				}
				if i >= failAt {
					return fmt.Errorf("run %d fails", i)
				}
				return nil
			})
		if err == nil || count != failAt+1 {
			t.Errorf("workers=%d: (count, err) = (%d, %v), want (%d, run %d fails)", workers, count, err, failAt+1, failAt)
		}
	}
}

// TestExploreNondeterministicProtocolError: a protocol whose behavior
// depends on the build invocation count diverges from the recorded
// prefixes; the exploration must surface ErrScheduleDiverged as an
// error — at every worker count — instead of panicking inside a worker.
func TestExploreNondeterministicProtocolError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var builds atomic.Int64
		build := func() Body {
			first := builds.Add(1) == 1
			return func(p *Proc) {
				k := 1
				if first {
					k = 3
				}
				for i := 0; i < k; i++ {
					p.Exec("X.write", func() any { return nil })
				}
				p.Decide(p.ID())
			}
		}
		_, err := Explore(context.Background(), 3, DefaultIDs(3),
			ExploreOptions{Workers: workers, MaxSteps: 1000}, build, nil)
		if !errors.Is(err, ErrScheduleDiverged) {
			t.Errorf("workers=%d: err = %v, want ErrScheduleDiverged", workers, err)
		}
	}
}

// TestRunnerScheduleDivergedError: the runner itself reports the policy's
// structured error: a scripted prefix that names a process with no
// pending step yields ErrScheduleDiverged from Run, with every goroutine
// unwound (no leak, no panic).
func TestRunnerScheduleDivergedError(t *testing.T) {
	body := func(p *Proc) {
		p.Exec("X.write", func() any { return nil })
		p.Decide(p.ID())
	}
	// Process 0 takes write+decide = 2 steps; a prefix granting it a 3rd
	// step diverges, with or without a commutation relation.
	for _, indep := range []Independence{nil, OpIndependent} {
		runner, policy := newPORPair(2, indep)
		policy.reset([]int{0, 0, 0}, nil)
		_, err := runner.Run(body)
		if !errors.Is(err, ErrScheduleDiverged) {
			t.Fatalf("indep set %v: err = %v, want ErrScheduleDiverged", indep != nil, err)
		}
	}
}
