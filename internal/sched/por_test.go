package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// regBody returns a build function where every process performs k writes
// to its own private register ("r<i>.write") and decides: all cross-
// process steps commute, so the whole schedule tree is one Mazurkiewicz
// trace class.
func regBody(k int) func() Body {
	return func() Body {
		return func(p *Proc) {
			name := fmt.Sprintf("r%d.write", p.Index())
			for i := 0; i < k; i++ {
				p.Exec(name, func() any { return nil })
			}
			p.Decide(p.ID())
		}
	}
}

// mixedBody returns a build function mixing conflicting steps (writes to
// the shared object "X") with commuting ones (a write to the process's
// own register): the class count is strictly between 1 and the full
// interleaving count.
func mixedBody() func() Body {
	return func() Body {
		shared := 0
		return func(p *Proc) {
			p.Exec(fmt.Sprintf("r%d.write", p.Index()), func() any { return nil })
			v := p.Exec("X.read", func() any { return shared }).(int)
			p.Exec("X.write", func() any { shared = v + 1; return nil })
			p.Decide(p.ID())
		}
	}
}

// TestExhaustiveWalkReadsNoLabels: a worker-style runner and policy walk
// the whole tree of mixedBody depth-first, once per relation. Under a nil
// relation (the ReductionNone walk) the policy's label arena stays empty
// after every run; under OpIndependent it holds one label per recorded
// pending process, and the chosen process's label is the op the run
// executed at that step.
func TestExhaustiveWalkReadsNoLabels(t *testing.T) {
	const n = 2
	for _, indep := range []Independence{nil, OpIndependent} {
		runner, policy := newPORPair(n, indep, WithReuse())
		stack := []frontierItem{{}}
		runs, labels := 0, 0
		for len(stack) > 0 {
			item := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			policy.reset(item.choices, item.sleep)
			res, err := runner.Run(mixedBody()())
			if err != nil && !errors.Is(err, ErrRunAborted) {
				t.Fatal(err)
			}
			runs++
			if indep == nil {
				if len(policy.ops) != 0 {
					t.Fatalf("nil relation, prefix %v: policy recorded labels %q", item.choices, policy.ops)
				}
			} else {
				if len(policy.ops) != len(policy.pend) {
					t.Fatalf("prefix %v: %d labels for %d recorded pending processes", item.choices, len(policy.ops), len(policy.pend))
				}
				lo := 0
				for j, hi := range policy.at {
					i := len(item.choices) + j
					got := policy.ops[lo+indexSorted(policy.pend[lo:hi], policy.choices[i])]
					if want := res.Schedule[i].Op; got != want {
						t.Fatalf("prefix %v, step %d: recorded label %q, run executed %q", item.choices, i, got, want)
					}
					lo = hi
				}
				labels += len(policy.ops)
			}
			items, _ := policy.branchItems()
			stack = append(stack, items...)
		}
		runner.Close()
		if indep != nil && labels == 0 {
			t.Errorf("sleep-set walk recorded no labels over %d runs; the check is vacuous", runs)
		}
		t.Logf("relation set %v: %d runs, %d labels", indep != nil, runs, labels)
	}
}

func TestOpIndependent(t *testing.T) {
	cases := []struct {
		pa   int
		a    string
		pb   int
		b    string
		want bool
	}{
		{0, "A.read", 1, "A.read", true},      // read/read same object
		{0, "A.read", 1, "A.snapshot", true},  // both read-only
		{0, "A.read", 1, "A.write", false},    // read/write conflict
		{0, "A.write", 1, "A.write", false},   // write/write conflict
		{0, "A.write", 1, "B.write", true},    // distinct objects
		{0, "T.tas", 1, "T.tas", false},       // oracle mutates
		{0, "KS.invoke", 1, "A.read", true},   // distinct objects
		{0, "decide", 1, "decide", true},      // per-process outputs
		{0, "decide", 1, "A.write", true},     // output reg vs object
		{0, "noop", 1, "noop", false},         // outside the contract
		{0, "read", 1, "A.read", false},       // unlabeled conflicts
		{0, "A.read", 0, "A.read", false},     // same process: program order
		{0, "decide", 1, "decide.read", true}, // per-proc label never aliases an object
		{0, "decide", 1, "noop", true},        // nor the unknown object
	}
	for _, tc := range cases {
		if got := OpIndependent(tc.pa, tc.a, tc.pb, tc.b); got != tc.want {
			t.Errorf("OpIndependent(%d,%q,%d,%q) = %v, want %v", tc.pa, tc.a, tc.pb, tc.b, got, tc.want)
		}
		if got := OpIndependent(tc.pb, tc.b, tc.pa, tc.a); got != tc.want {
			t.Errorf("OpIndependent not symmetric on (%q,%q)", tc.a, tc.b)
		}
	}
}

// TestPerProcessOpCommutesWithAll: a label perProcessOp accepts commutes
// with every label of every other process, inside the naming contract or
// not — the property that lets the sleep-set walk drop children a
// process asleep on it blocks.
func TestPerProcessOpCommutesWithAll(t *testing.T) {
	labels := []string{"decide", "A.read", "A.write", "A.write-start", "A.write-commit", "KS.invoke", "T.tas", "noop", "read", ""}
	perProc := 0
	for _, op := range labels {
		if !perProcessOp(op) {
			continue
		}
		perProc++
		for _, other := range labels {
			if !OpIndependent(0, op, 1, other) {
				t.Errorf("perProcessOp(%q), but it conflicts with %q of another process", op, other)
			}
		}
	}
	if perProc != 1 {
		t.Errorf("%d per-process labels among %q, want 1 (decide)", perProc, labels)
	}
}

func TestCanonicalTraceHash(t *testing.T) {
	// Swapping adjacent independent steps preserves the hash; swapping
	// dependent ones changes it.
	a := []Step{{Proc: 0, Op: "A.write"}, {Proc: 1, Op: "B.write"}, {Proc: 0, Op: "X.read"}}
	b := []Step{{Proc: 1, Op: "B.write"}, {Proc: 0, Op: "A.write"}, {Proc: 0, Op: "X.read"}}
	if CanonicalTraceHash(a, OpIndependent) != CanonicalTraceHash(b, OpIndependent) {
		t.Error("equivalent schedules hash differently")
	}
	c := []Step{{Proc: 0, Op: "X.write"}, {Proc: 1, Op: "X.write"}}
	d := []Step{{Proc: 1, Op: "X.write"}, {Proc: 0, Op: "X.write"}}
	if CanonicalTraceHash(c, OpIndependent) == CanonicalTraceHash(d, OpIndependent) {
		t.Error("conflicting writes in either order hash equal")
	}
}

// TestPORIndependentCollapse: with fully commuting bodies the reduced
// walk executes exactly one schedule per worker count, where the
// exhaustive tree has hundreds.
func TestPORIndependentCollapse(t *testing.T) {
	const n, k = 3, 2
	exhaustive, err := Explore(context.Background(), n, DefaultIDs(n),
		ExploreOptions{Workers: 1, MaxSteps: 1000}, regBody(k), nil)
	if err != nil {
		t.Fatal(err)
	}
	if exhaustive < 100 {
		t.Fatalf("exhaustive count %d unexpectedly small; test is vacuous", exhaustive)
	}
	for _, red := range []Reduction{ReductionSleepSets, ReductionSleepMemo} {
		for _, workers := range []int{1, 2, 8} {
			got, err := Explore(context.Background(), n, DefaultIDs(n),
				ExploreOptions{Workers: workers, MaxSteps: 1000, Reduction: red}, regBody(k), nil)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", red, workers, err)
			}
			if got != 1 {
				t.Errorf("%v workers=%d: %d schedules, want 1 (all steps commute)", red, workers, got)
			}
		}
	}
}

// classCount exhaustively explores build and counts distinct Mazurkiewicz
// trace classes among the completed schedules — the ground truth the
// reduced walk must reproduce exactly.
func classCount(t *testing.T, n int, build func() Body) int {
	t.Helper()
	var mu sync.Mutex
	classes := map[uint64]struct{}{}
	_, err := Explore(context.Background(), n, DefaultIDs(n),
		ExploreOptions{Workers: 1, MaxSteps: 1000}, build,
		func(res *Result) error {
			mu.Lock()
			classes[CanonicalTraceHash(res.Schedule, OpIndependent)] = struct{}{}
			mu.Unlock()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return len(classes)
}

// TestPORCountsTraceClasses: on a protocol mixing commuting and
// conflicting steps, the reduced count equals the number of trace
// classes of the exhaustive tree — sleep sets prune every duplicate
// interleaving and nothing else — at every worker count.
func TestPORCountsTraceClasses(t *testing.T) {
	for _, n := range []int{2, 3} {
		want := classCount(t, n, mixedBody())
		if want < 2 {
			t.Fatalf("n=%d: only %d classes; test is vacuous", n, want)
		}
		for _, red := range []Reduction{ReductionSleepSets, ReductionSleepMemo} {
			for _, workers := range []int{1, 2, 8} {
				got, err := Explore(context.Background(), n, DefaultIDs(n),
					ExploreOptions{Workers: workers, MaxSteps: 1000, Reduction: red}, mixedBody(), nil)
				if err != nil {
					t.Fatalf("n=%d %v workers=%d: %v", n, red, workers, err)
				}
				if got != want {
					t.Errorf("n=%d %v workers=%d: %d schedules, want %d trace classes", n, red, workers, got, want)
				}
			}
		}
	}
}

// TestPORConservativeOnUnlabeledOps: bodies whose op labels are outside
// the "<object>.<kind>" contract (plus conflicting decides would not
// exist) must not be reduced beyond their true class structure; with
// every non-decide step conflicting, the reduction only collapses decide
// reorderings and stays sound.
func TestPORConservativeOnUnlabeledOps(t *testing.T) {
	const n = 2
	want := classCount(t, n, raceBody(n))
	got, err := Explore(context.Background(), n, DefaultIDs(n),
		ExploreOptions{Workers: 1, MaxSteps: 1000, Reduction: ReductionSleepSets}, raceBody(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("reduced count %d, want %d trace classes", got, want)
	}
}

// TestPORDeterministicViolation: the reduced exploration reports exactly
// the same lexicographically smallest violating schedule as the
// exhaustive engine, at every worker count (the lex-min violating run is
// the minimal member of its trace class, which sleep sets always
// explore).
func TestPORDeterministicViolation(t *testing.T) {
	const n = 3
	_, wantErr := Explore(context.Background(), n, DefaultIDs(n),
		ExploreOptions{Workers: 1, MaxSteps: 1000}, raceBody(n), distinctOutputs)
	if wantErr == nil {
		t.Fatal("exhaustive exploration missed the lost-update schedules")
	}
	for _, red := range []Reduction{ReductionSleepSets, ReductionSleepMemo} {
		for _, workers := range []int{1, 2, 8} {
			_, err := Explore(context.Background(), n, DefaultIDs(n),
				ExploreOptions{Workers: workers, MaxSteps: 1000, Reduction: red}, raceBody(n), distinctOutputs)
			if err == nil {
				t.Fatalf("%v workers=%d: reduced exploration missed the violation", red, workers)
			}
			if err.Error() != wantErr.Error() {
				t.Errorf("%v workers=%d: violation %q, want %q", red, workers, err, wantErr)
			}
		}
	}
}

// TestExploreOptionsValidation: bad options must surface as
// ErrInvalidOptions from Explore, in every mode, before any run executes —
// notably a CrashProb outside [0,1], which previously panicked inside a
// worker goroutine via NewRandomCrash.
func TestExploreOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		opts ExploreOptions
	}{
		{"crashprob>1", ExploreOptions{CrashRuns: 10, CrashProb: 1.5}},
		{"crashprob<0", ExploreOptions{CrashRuns: 10, CrashProb: -0.1}},
		{"negative-maxruns", ExploreOptions{MaxRuns: -1}},
		{"negative-maxsteps", ExploreOptions{MaxSteps: -5}},
		{"negative-crashruns", ExploreOptions{CrashRuns: -2}},
		{"unknown-reduction", ExploreOptions{Reduction: Reduction(99)}},
	}
	build := func() Body { return stepsBody(1) }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			count, err := Explore(context.Background(), 2, DefaultIDs(2), tc.opts, build, nil)
			if !errors.Is(err, ErrInvalidOptions) {
				t.Fatalf("Explore err = %v, want ErrInvalidOptions", err)
			}
			if count != 0 {
				t.Errorf("Explore count = %d, want 0", count)
			}
		})
	}
}

// TestExploreCrashSweepCanceledCount: on cancellation the sweep must
// report the number of runs that actually executed, not the number of
// claimed run indices (claiming races ahead of execution by up to one
// per worker).
func TestExploreCrashSweepCanceledCount(t *testing.T) {
	const n, runs = 3, 10000
	var executed atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	build := func() Body {
		executed.Add(1)
		return func(p *Proc) { p.Decide(p.ID()) }
	}
	stop := func(res *Result) error {
		if executed.Load() >= 20 {
			cancel()
		}
		return nil
	}
	count, err := Explore(ctx, n, DefaultIDs(n),
		ExploreOptions{Workers: 4, CrashRuns: runs, CrashProb: 0.05, Seed: 1}, build, stop)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Every run that called build ran to completion before wg.Wait
	// returned, so the reported count must equal the executed count.
	if int64(count) != executed.Load() {
		t.Errorf("count = %d, want the %d executed runs", count, executed.Load())
	}
	if count >= runs {
		t.Errorf("count = %d, want an early cancellation well below %d", count, runs)
	}
}

// TestCrashAtExactStep: CrashAt must crash the target exactly before its
// (k+1)-th step, for every k, as its doc promises.
func TestCrashAtExactStep(t *testing.T) {
	const n, steps = 3, 6
	body := func(p *Proc) {
		for i := 0; i < steps; i++ {
			p.Exec("noop", func() any { return nil })
		}
		p.Decide(p.ID())
	}
	for k := 0; k <= 4; k++ {
		policy := &CrashAt{Inner: NewRoundRobin(), Proc: 1, StepsBeforeCrash: k}
		res, err := NewRunner(n, DefaultIDs(n), policy).Run(body)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !res.Crashed[1] {
			t.Fatalf("k=%d: process 1 was not crashed", k)
		}
		taken := 0
		for _, s := range res.Schedule {
			if s.Proc == 1 && !s.Crash {
				taken++
			}
		}
		if taken != k {
			t.Errorf("k=%d: process 1 took %d steps before the crash, want exactly %d", k, taken, k)
		}
	}
}

// TestPORBudgetReported: with reduction on, MaxRuns bounds executed runs
// (including pruned probes) and budget exhaustion still reports
// ErrExplorationBudget.
func TestPORBudgetReported(t *testing.T) {
	_, err := Explore(context.Background(), 3, DefaultIDs(3),
		ExploreOptions{Workers: 2, MaxRuns: 3, MaxSteps: 1000, Reduction: ReductionSleepSets},
		mixedBody(), nil)
	if !errors.Is(err, ErrExplorationBudget) {
		t.Fatalf("err = %v, want budget error", err)
	}
	if !strings.Contains(err.Error(), "budget") {
		t.Errorf("error %q does not mention the budget", err)
	}
}
