package sched

import (
	"errors"
	"strings"
	"testing"
)

// counterBody increments a shared counter k times and decides its final
// observation; used to exercise the scheduler without the mem package
// (which would create an import cycle in tests).
func counterBody(counter *int, k int) Body {
	return func(p *Proc) {
		last := 0
		for i := 0; i < k; i++ {
			last = p.Exec("inc", func() any {
				*counter++
				return *counter
			}).(int)
		}
		p.Decide(last)
	}
}

func TestRunRoundRobinDeterministic(t *testing.T) {
	run := func() *Result {
		counter := 0
		r := NewRunner(3, DefaultIDs(3), NewRoundRobin())
		res, err := r.Run(counterBody(&counter, 4))
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Schedule) != len(b.Schedule) {
		t.Fatalf("schedules differ in length: %d vs %d", len(a.Schedule), len(b.Schedule))
	}
	for i := range a.Schedule {
		if a.Schedule[i] != b.Schedule[i] {
			t.Fatalf("schedule differs at %d: %v vs %v", i, a.Schedule[i], b.Schedule[i])
		}
	}
	for i := range a.Outputs {
		if a.Outputs[i] != b.Outputs[i] {
			t.Fatalf("outputs differ at %d", i)
		}
	}
}

func TestRunRandomSeedDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		counter := 0
		r := NewRunner(4, DefaultIDs(4), NewRandom(seed))
		res, err := r.Run(counterBody(&counter, 5))
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		out, err := res.DecidedVector()
		if err != nil {
			t.Fatalf("decided vector: %v", err)
		}
		return out
	}
	a1, a2 := run(7), run(7)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("same seed produced different outputs")
		}
	}
	// Different seeds should (for this body) usually differ; check at
	// least one of several seeds differs to avoid flakiness.
	diff := false
	base := run(1)
	for seed := int64(2); seed <= 6 && !diff; seed++ {
		other := run(seed)
		for i := range base {
			if base[i] != other[i] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Error("five different seeds all produced identical interleavings")
	}
}

func TestStepsCountAndSchedule(t *testing.T) {
	counter := 0
	n, k := 3, 4
	r := NewRunner(n, DefaultIDs(n), NewRoundRobin())
	res, err := r.Run(counterBody(&counter, k))
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	wantSteps := n * (k + 1) // k increments + 1 decide each
	if res.Steps != wantSteps {
		t.Errorf("Steps = %d, want %d", res.Steps, wantSteps)
	}
	if len(res.Schedule) != wantSteps {
		t.Errorf("schedule length = %d, want %d", len(res.Schedule), wantSteps)
	}
	if counter != n*k {
		t.Errorf("counter = %d, want %d", counter, n*k)
	}
	perProc := map[int]int{}
	for _, s := range res.Schedule {
		perProc[s.Proc]++
	}
	for i := 0; i < n; i++ {
		if perProc[i] != k+1 {
			t.Errorf("process %d took %d steps, want %d", i, perProc[i], k+1)
		}
	}
}

func TestCrashInjection(t *testing.T) {
	counter := 0
	policy := &CrashAt{Inner: NewRoundRobin(), Proc: 1, StepsBeforeCrash: 2}
	r := NewRunner(3, DefaultIDs(3), policy)
	res, err := r.Run(counterBody(&counter, 5))
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !res.Crashed[1] {
		t.Fatal("process 1 was not crashed")
	}
	if res.Decided[1] {
		t.Fatal("crashed process decided")
	}
	if !res.Decided[0] || !res.Decided[2] {
		t.Fatal("surviving processes did not decide")
	}
	// The crashed process took exactly 2 operation steps.
	steps := 0
	for _, s := range res.Schedule {
		if s.Proc == 1 && !s.Crash {
			steps++
		}
	}
	if steps != 2 {
		t.Errorf("crashed process took %d steps, want 2", steps)
	}
}

func TestCrashBeforeParticipation(t *testing.T) {
	counter := 0
	policy := &CrashAt{Inner: NewRoundRobin(), Proc: 0, StepsBeforeCrash: 0}
	r := NewRunner(2, DefaultIDs(2), policy)
	res, err := r.Run(counterBody(&counter, 3))
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if res.Participating(0) {
		t.Error("process 0 should not have participated")
	}
	if !res.Participating(1) || !res.Decided[1] {
		t.Error("process 1 should have run to completion")
	}
}

func TestStepBudget(t *testing.T) {
	counter := 0
	spin := func(p *Proc) {
		for { // deliberately non-terminating protocol
			p.Exec("spin", func() any { counter++; return nil })
		}
	}
	r := NewRunner(2, DefaultIDs(2), NewRoundRobin(), WithMaxSteps(50))
	_, err := r.Run(spin)
	if !errors.Is(err, ErrStepBudget) {
		t.Fatalf("err = %v, want ErrStepBudget", err)
	}
}

func TestPolicyCannotCrashEveryone(t *testing.T) {
	policy := NewRandomCrash(1, 1.0, 99) // tries to crash on every decision
	counter := 0
	r := NewRunner(2, DefaultIDs(2), policy)
	_, err := r.Run(counterBody(&counter, 2))
	if err == nil || !strings.Contains(err.Error(), "at most n-1") {
		t.Fatalf("err = %v, want wait-free violation", err)
	}
}

func TestRandomCrashRespectsMax(t *testing.T) {
	counter := 0
	policy := NewRandomCrash(3, 0.5, 2)
	r := NewRunner(4, DefaultIDs(4), policy)
	res, err := r.Run(counterBody(&counter, 6))
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	crashes := 0
	for _, c := range res.Crashed {
		if c {
			crashes++
		}
	}
	if crashes > 2 {
		t.Errorf("%d crashes, want <= 2", crashes)
	}
	for i, c := range res.Crashed {
		if !c && !res.Decided[i] {
			t.Errorf("surviving process %d did not decide", i)
		}
	}
}

func TestScriptReplayReproducesRun(t *testing.T) {
	counter := 0
	r := NewRunner(3, DefaultIDs(3), NewRandom(99))
	res, err := r.Run(counterBody(&counter, 4))
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	counter = 0
	r2 := NewRunner(3, DefaultIDs(3), ScriptFromSchedule(res.Schedule))
	res2, err := r2.Run(counterBody(&counter, 4))
	if err != nil {
		t.Fatalf("replay failed: %v", err)
	}
	for i := range res.Outputs {
		if res.Outputs[i] != res2.Outputs[i] {
			t.Fatalf("replay output %d differs: %d vs %d", i, res.Outputs[i], res2.Outputs[i])
		}
	}
	for i := range res.Schedule {
		if res.Schedule[i] != res2.Schedule[i] {
			t.Fatalf("replay schedule differs at %d", i)
		}
	}
}

func TestDecideTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double decide")
		}
	}()
	r := NewRunner(1, DefaultIDs(1), NewRoundRobin())
	_, _ = r.Run(func(p *Proc) {
		p.Decide(1)
		p.Decide(2)
	})
}

func TestNewRunnerValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"n zero", func() { NewRunner(0, nil, NewRoundRobin()) }},
		{"ids length", func() { NewRunner(2, []int{1}, NewRoundRobin()) }},
		{"duplicate ids", func() { NewRunner(2, []int{3, 3}, NewRoundRobin()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestDecidedVectorError(t *testing.T) {
	counter := 0
	policy := &CrashAt{Inner: NewRoundRobin(), Proc: 0, StepsBeforeCrash: 1}
	r := NewRunner(2, DefaultIDs(2), policy)
	res, err := r.Run(counterBody(&counter, 3))
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if _, err := res.DecidedVector(); err == nil {
		t.Fatal("DecidedVector should fail when a process crashed undecided")
	}
}

// idParityBody decides 1 for odd identity, 2 for even: index-independent
// and NOT comparison-based (it inspects identity arithmetic).
func idParityBody(p *Proc) {
	p.Exec("noop", func() any { return nil })
	p.Decide(p.ID()%2 + 1)
}

// indexBody decides based on its register index: index-dependent.
func indexBody(p *Proc) {
	p.Exec("noop", func() any { return nil })
	p.Decide(p.Index()%2 + 1)
}

// rankBody decides its identity's rank among all identities it cannot see;
// here trivially decides 1: both index-independent and comparison-based.
func constBody(p *Proc) {
	p.Exec("noop", func() any { return nil })
	p.Decide(1)
}

// stateless adapts a body that keeps no state across runs to the
// checkers' build function.
func stateless(b Body) func() Body { return func() Body { return b } }

// firstArrival builds a protocol instance with its own shared flag: the
// first process to step decides 1, the rest 2. It is index-independent
// and comparison-based, but only when every run gets a fresh instance.
func firstArrival() Body {
	taken := false
	return func(p *Proc) {
		first := p.Exec("flag", func() any {
			was := taken
			taken = true
			return !was
		}).(bool)
		if first {
			p.Decide(1)
		} else {
			p.Decide(2)
		}
	}
}

func TestCheckIndexIndependence(t *testing.T) {
	if err := CheckIndexIndependence(3, []int{4, 1, 7}, NewRoundRobin(), stateless(constBody), nil); err != nil {
		t.Errorf("constBody flagged index-dependent: %v", err)
	}
	if err := CheckIndexIndependence(3, []int{4, 1, 7}, NewRoundRobin(), stateless(idParityBody), nil); err != nil {
		t.Errorf("idParityBody flagged index-dependent: %v", err)
	}
	if err := CheckIndexIndependence(3, []int{4, 1, 7}, NewRoundRobin(), stateless(indexBody), nil); err == nil {
		t.Error("indexBody not flagged index-dependent")
	}
}

func TestCheckComparisonBased(t *testing.T) {
	ids := []int{4, 1, 7}
	alts := [][]int{OrderIsomorphicIDs(ids, 100), OrderIsomorphicIDs(ids, 7)}
	if err := CheckComparisonBased(3, ids, NewRoundRobin(), stateless(constBody), alts); err != nil {
		t.Errorf("constBody flagged non-comparison-based: %v", err)
	}
	if err := CheckComparisonBased(3, ids, NewRoundRobin(), stateless(idParityBody), alts); err == nil {
		t.Error("idParityBody not flagged non-comparison-based")
	}
}

// TestCheckersBuildFreshInstances: both checkers give every run its own
// protocol instance, so a protocol with per-instance shared memory
// passes; replaying one instance would find its flag already taken.
func TestCheckersBuildFreshInstances(t *testing.T) {
	ids := []int{4, 1, 7}
	if err := CheckIndexIndependence(3, ids, NewRandom(3), firstArrival, nil); err != nil {
		t.Errorf("index independence: %v", err)
	}
	alts := [][]int{OrderIsomorphicIDs(ids, 100)}
	if err := CheckComparisonBased(3, ids, NewRandom(3), firstArrival, alts); err != nil {
		t.Errorf("comparison-based: %v", err)
	}
}

func TestCheckComparisonBasedRejectsBadAlt(t *testing.T) {
	ids := []int{4, 1, 7}
	err := CheckComparisonBased(3, ids, NewRoundRobin(), stateless(constBody), [][]int{{1, 2, 3}})
	if err == nil || !strings.Contains(err.Error(), "order-isomorphic") {
		t.Fatalf("err = %v, want order-isomorphism complaint", err)
	}
}

func TestOrderIsomorphicIDs(t *testing.T) {
	ids := []int{4, 1, 7}
	got := OrderIsomorphicIDs(ids, 10)
	want := []int{12, 10, 14}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OrderIsomorphicIDs = %v, want %v", got, want)
		}
	}
	if !orderIsomorphic(ids, got) {
		t.Fatal("result not order-isomorphic to input")
	}
}

func TestPermutedSchedule(t *testing.T) {
	sched := []Step{{Proc: 0, Op: "a"}, {Proc: 1, Op: "b", Crash: false}, {Proc: 2, Crash: true}}
	perm := []int{2, 0, 1}
	got := PermutedSchedule(sched, perm)
	want := []Step{{Proc: 2, Op: "a"}, {Proc: 0, Op: "b"}, {Proc: 1, Crash: true}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PermutedSchedule[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRoundRobinFairness(t *testing.T) {
	rr := NewRoundRobin()
	pending := []int{0, 1, 2}
	seen := []int{}
	for i := 0; i < 6; i++ {
		d := rr.Next(pending, i)
		seen = append(seen, d.Proc)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("round robin order %v, want %v", seen, want)
		}
	}
}

func TestSingleProcessRun(t *testing.T) {
	counter := 0
	r := NewRunner(1, []int{5}, NewRoundRobin())
	res, err := r.Run(counterBody(&counter, 3))
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !res.Decided[0] || res.Outputs[0] != 3 {
		t.Fatalf("solo run output = %v", res.Outputs)
	}
}
