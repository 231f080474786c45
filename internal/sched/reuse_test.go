package sched

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

// waitGoroutines polls until the live goroutine count drops back to at
// most want (coroutine teardown is synchronous, but the runtime may lag a
// tick when tests run in parallel).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d live, want <= %d\n%s", runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSchedulerOpPanicUnwindsProcesses is the regression test for the
// scheduler-side panic leak: a panic inside an op (here the double-Decide
// guard) used to unwind Run and leave every process goroutine parked
// forever. Run must now crash-unwind the suspended processes, then
// re-raise the original value wrapped with the process index.
func TestSchedulerOpPanicUnwindsProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			rec := recover()
			if rec == nil {
				t.Fatal("expected panic on double decide")
			}
			pps, ok := rec.(ProcessPanics)
			if !ok {
				t.Fatalf("panic value is %T, want ProcessPanics", rec)
			}
			if len(pps) != 1 {
				t.Fatalf("got %d process panics, want 1: %v", len(pps), pps)
			}
			// The original panic value must be preserved verbatim, not
			// flattened through fmt.Sprintf.
			s, ok := pps[0].Value.(string)
			if !ok || !strings.Contains(s, "decided twice") {
				t.Fatalf("original panic value not preserved: %#v", pps[0].Value)
			}
		}()
		r := NewRunner(3, DefaultIDs(3), NewRoundRobin())
		_, _ = r.Run(func(p *Proc) {
			p.Decide(1)
			p.Decide(2)
		})
	}()
	waitGoroutines(t, before)
}

// procPanicValue is a sentinel panic payload that would not survive
// stringification.
type procPanicValue struct{ code int }

// TestBodyPanicReportsEveryProcess checks the fidelity of the re-raise
// path for panics in body code: every panicking process is reported (not
// just the lowest index), each with its original panic value, and no
// goroutine leaks.
func TestBodyPanicReportsEveryProcess(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			rec := recover()
			if rec == nil {
				t.Fatal("expected panic from protocol bodies")
			}
			pps, ok := rec.(ProcessPanics)
			if !ok {
				t.Fatalf("panic value is %T, want ProcessPanics", rec)
			}
			if len(pps) != 2 {
				t.Fatalf("got %d process panics, want 2: %v", len(pps), pps)
			}
			for k, want := range []int{0, 2} {
				if pps[k].Proc != want {
					t.Errorf("panic %d attributed to process %d, want %d", k, pps[k].Proc, want)
				}
				v, ok := pps[k].Value.(procPanicValue)
				if !ok || v.code != 40+want {
					t.Errorf("panic %d value = %#v, want procPanicValue{%d}", k, pps[k].Value, 40+want)
				}
			}
			if !strings.Contains(pps.Error(), "process 0") || !strings.Contains(pps.Error(), "process 2") {
				t.Errorf("Error() does not name both processes: %s", pps.Error())
			}
		}()
		r := NewRunner(3, DefaultIDs(3), NewRoundRobin())
		_, _ = r.Run(func(p *Proc) {
			p.Exec("noop", func() any { return nil })
			if p.Index() != 1 {
				panic(procPanicValue{code: 40 + p.Index()})
			}
			p.Decide(1)
		})
	}()
	waitGoroutines(t, before)
}

// TestReusedRunnerAllocsPerStep pins the steady-state hot path at zero
// allocations per step (and, since the whole run is measured, per run):
// after warm-up, re-executing a run on a reused runner must not allocate
// at all.
func TestReusedRunnerAllocsPerStep(t *testing.T) {
	const n, k = 4, 8
	counter := 0
	op := func() any { counter++; return nil } // hoisted: body-level closures are not the runner's
	body := func(p *Proc) {
		for i := 0; i < k; i++ {
			p.Exec("inc", op)
		}
		p.Decide(1)
	}
	r := NewRunner(n, DefaultIDs(n), nil, WithReuse())
	defer r.Close()
	rr := NewRoundRobin()
	var steps int
	runOnce := func() {
		rr.last = -1 // re-arm the preallocated policy in place
		r.Reset(rr)
		res, err := r.Run(body)
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		steps = res.Steps
	}
	runOnce() // warm-up: Schedule backing array reaches steady state
	allocs := testing.AllocsPerRun(200, runOnce)
	if allocs != 0 {
		t.Fatalf("reused runner allocates %.2f allocs/run (%.4f allocs/step), want 0", allocs, allocs/float64(steps))
	}
}

// TestReusedRunnerAllocsPerStepWithStats is the observability variant of
// the pinned zero-allocation bound: re-executing a run on a reused
// runner while publishing the engine metrics a live campaign consumes —
// the run/schedule counters and the frontier gauge, per run — must still
// allocate nothing. This is what keeps the timeline feature free on the
// hot path: the sampler only reads the registry at checkpoint
// boundaries, and the publishing side it rides on is allocation-free.
func TestReusedRunnerAllocsPerStepWithStats(t *testing.T) {
	const n, k = 4, 8
	counter := 0
	op := func() any { counter++; return nil }
	body := func(p *Proc) {
		for i := 0; i < k; i++ {
			p.Exec("inc", op)
		}
		p.Decide(1)
	}
	reg := stats.New()
	m := newEngineMetrics(reg)
	r := NewRunner(n, DefaultIDs(n), nil, WithReuse())
	defer r.Close()
	rr := NewRoundRobin()
	runOnce := func() {
		rr.last = -1
		r.Reset(rr)
		if _, err := r.Run(body); err != nil {
			t.Fatalf("run failed: %v", err)
		}
		m.runs.Inc()
		m.schedules.Inc()
		m.frontier.Set(int64(counter & 0xff))
	}
	runOnce() // warm-up
	allocs := testing.AllocsPerRun(200, runOnce)
	if allocs != 0 {
		t.Fatalf("reused runner with stats publishing allocates %.2f allocs/run, want 0", allocs)
	}
	if got := reg.Snapshot().Counter(MetricRuns); got < 200 {
		t.Fatalf("runs counter = %d after the measured batch, want >= 200", got)
	}
}

// TestReusedRunnerMatchesFresh is the reuse-vs-fresh differential: a
// sequence of runs on one reused runner must produce Results identical to
// fresh single-use runners, across plain, random and crash-injecting
// policies.
func TestReusedRunnerMatchesFresh(t *testing.T) {
	const n = 4
	newBody := func() (Body, *int) {
		counter := new(int)
		return counterBody(counter, 5), counter
	}
	policies := []struct {
		name string
		mk   func() Policy
	}{
		{"round-robin", func() Policy { return NewRoundRobin() }},
		{"random-3", func() Policy { return NewRandom(3) }},
		{"random-9", func() Policy { return NewRandom(9) }},
		{"crash-at", func() Policy { return &CrashAt{Inner: NewRoundRobin(), Proc: 2, StepsBeforeCrash: 1} }},
		{"random-crash", func() Policy { return NewRandomCrash(7, 0.2, n-1) }},
	}

	reused := NewRunner(n, DefaultIDs(n), nil, WithReuse())
	defer reused.Close()
	for _, tc := range policies {
		t.Run(tc.name, func(t *testing.T) {
			fbody, _ := newBody()
			fresh, ferr := NewRunner(n, DefaultIDs(n), tc.mk()).Run(fbody)
			rbody, _ := newBody()
			reused.Reset(tc.mk())
			got, rerr := reused.Run(rbody)
			if (ferr == nil) != (rerr == nil) {
				t.Fatalf("error mismatch: fresh %v, reused %v", ferr, rerr)
			}
			if fresh.Steps != got.Steps {
				t.Fatalf("Steps: fresh %d, reused %d", fresh.Steps, got.Steps)
			}
			if len(fresh.Schedule) != len(got.Schedule) {
				t.Fatalf("schedule length: fresh %d, reused %d", len(fresh.Schedule), len(got.Schedule))
			}
			for i := range fresh.Schedule {
				if fresh.Schedule[i] != got.Schedule[i] {
					t.Fatalf("schedule[%d]: fresh %v, reused %v", i, fresh.Schedule[i], got.Schedule[i])
				}
			}
			for i := 0; i < n; i++ {
				if fresh.Outputs[i] != got.Outputs[i] || fresh.Decided[i] != got.Decided[i] ||
					fresh.Crashed[i] != got.Crashed[i] || fresh.Participating(i) != got.Participating(i) {
					t.Fatalf("process %d state differs: fresh (%d,%v,%v,%v), reused (%d,%v,%v,%v)",
						i, fresh.Outputs[i], fresh.Decided[i], fresh.Crashed[i], fresh.Participating(i),
						got.Outputs[i], got.Decided[i], got.Crashed[i], got.Participating(i))
				}
			}
		})
	}
}

// TestReuseAfterFailedRuns checks that a reused runner recovers cleanly
// from error-producing runs (budget exhaustion, aborts) and still executes
// subsequent runs correctly.
func TestReuseAfterFailedRuns(t *testing.T) {
	counter := 0
	r := NewRunner(2, DefaultIDs(2), nil, WithMaxSteps(4), WithReuse())
	defer r.Close()

	r.Reset(NewRoundRobin())
	if _, err := r.Run(func(p *Proc) {
		for {
			p.Exec("spin", func() any { return nil })
		}
	}); !errors.Is(err, ErrStepBudget) {
		t.Fatalf("err = %v, want ErrStepBudget", err)
	}

	r.Reset(NewRoundRobin())
	res, err := r.Run(counterBody(&counter, 1))
	if err != nil {
		t.Fatalf("run after budget failure: %v", err)
	}
	if !res.Decided[0] || !res.Decided[1] {
		t.Fatalf("run after budget failure did not complete: %+v", res)
	}
}

// TestRunnerCloseReleasesCoroutines checks that Close unwinds the parked
// process coroutines of a reusable runner.
func TestRunnerCloseReleasesCoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	counter := 0
	r := NewRunner(3, DefaultIDs(3), NewRoundRobin(), WithReuse())
	if _, err := r.Run(counterBody(&counter, 2)); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	r.Close()
	r.Close() // idempotent
	waitGoroutines(t, before)
}

// TestOneShotRunnerLeavesNoCoroutines checks that a runner without
// WithReuse needs no Close: its process coroutines are torn down at the
// end of each Run.
func TestOneShotRunnerLeavesNoCoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	counter := 0
	r := NewRunner(3, DefaultIDs(3), NewRoundRobin())
	if _, err := r.Run(counterBody(&counter, 2)); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	waitGoroutines(t, before)
}

// TestCrashIsFinalDespiteRecoveringBody checks that a crash cannot be
// escaped by protocol code: a body whose defer recovers the crash unwind
// and re-enters Exec is denied every further step (a crashed process
// never re-enters the pending set), and a reused runner stays clean on
// the next run.
func TestCrashIsFinalDespiteRecoveringBody(t *testing.T) {
	body := func(p *Proc) {
		defer func() {
			if recover() != nil {
				p.Exec("cleanup", func() any { return nil }) // must be denied
			}
		}()
		p.Exec("work", func() any { return nil })
		p.Exec("work", func() any { return nil })
		p.Decide(1)
	}
	r := NewRunner(2, DefaultIDs(2), nil, WithReuse())
	defer r.Close()

	r.Reset(&CrashAt{Inner: NewRoundRobin(), Proc: 0, StepsBeforeCrash: 1})
	res, err := r.Run(body)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !res.Crashed[0] || res.Decided[0] {
		t.Fatalf("process 0 not cleanly crashed: %+v", res)
	}
	if !res.Decided[1] {
		t.Fatal("process 1 did not run to completion")
	}
	crashedAt := -1
	for i, s := range res.Schedule {
		if s.Proc == 0 && s.Crash {
			crashedAt = i
		}
		if s.Proc == 0 && !s.Crash && crashedAt >= 0 {
			t.Fatalf("process 0 granted %q after its crash (schedule %v)", s.Op, res.Schedule)
		}
		if s.Op == "cleanup" {
			t.Fatalf("denied cleanup step appears in the schedule: %v", res.Schedule)
		}
	}
	if crashedAt < 0 {
		t.Fatalf("no crash event recorded: %v", res.Schedule)
	}

	// The next run on the reused runner must be unaffected by the denied
	// re-entry: both processes decide.
	r.Reset(NewRoundRobin())
	res, err = r.Run(body)
	if err != nil {
		t.Fatalf("run after recovered crash: %v", err)
	}
	if !res.Decided[0] || !res.Decided[1] || res.Crashed[0] || res.Crashed[1] {
		t.Fatalf("reused runner polluted by recovered crash: %+v", res)
	}
}

// TestParticipatingHandBuiltResult checks the Schedule-scan fallback for
// Results constructed outside a runner.
func TestParticipatingHandBuiltResult(t *testing.T) {
	res := &Result{Schedule: []Step{{Proc: 1, Op: "x"}, {Proc: 0, Crash: true}}}
	if res.Participating(0) {
		t.Error("crash-only process reported participating")
	}
	if !res.Participating(1) {
		t.Error("stepping process reported not participating")
	}
}

// TestBrokenPolicyUnwindsRun checks that a policy choosing a process with
// no pending step fails the run with an error instead of leaking every
// suspended process.
func TestBrokenPolicyUnwindsRun(t *testing.T) {
	before := runtime.NumGoroutine()
	counter := 0
	bad := policyFunc(func(pending []int, stepNo int) Decision { return Decision{Proc: 99} })
	_, err := NewRunner(2, DefaultIDs(2), bad).Run(counterBody(&counter, 2))
	if err == nil || !strings.Contains(err.Error(), "no pending step") {
		t.Fatalf("err = %v, want no-pending-step error", err)
	}
	waitGoroutines(t, before)
}

// policyFunc adapts a function to Policy for tests.
type policyFunc func(pending []int, stepNo int) Decision

func (f policyFunc) Next(pending []int, stepNo int) Decision { return f(pending, stepNo) }

// TestProcessSteadyStateAllocs pins the exploration worker's per-item
// cost: once its runner, policy, hasher and frontier lane are warm,
// processing a frontier item — replaying the prefix, recording every
// decision, carving the branch items and queueing them — allocates
// nothing of its own. The body's op closures are bound once, so the only
// allocations left are the prefix slab's chunks, one per slabChunk ints
// carved; AllocsPerRun reports the integer mean, which they keep at 0.
// Stats are attached, so publishing the counters (blocked branches
// included, under ReductionSleepSets) is part of the measured cost.
func TestProcessSteadyStateAllocs(t *testing.T) {
	const n = 3
	shared, private := 0, make([]int, n)
	privLabels := []string{"r0.write", "r1.write", "r2.write"}
	readOp := func() any { return shared }
	writeOp := func() any { shared ^= 1; return nil } // small ints box without allocating
	privOps := make([]func() any, n)
	for i := range privOps {
		privOps[i] = func() any { private[i]++; return nil }
	}
	body := Body(func(p *Proc) {
		p.Exec(privLabels[p.Index()], privOps[p.Index()])
		p.Exec("X.read", readOp)
		p.Exec("X.write", writeOp)
		p.Decide(1)
	})
	build := func() Body { return body }
	for _, red := range []Reduction{ReductionNone, ReductionSleepSets, ReductionSleepMemo} {
		reg := stats.New()
		opts := ExploreOptions{Workers: 1, MaxRuns: math.MaxInt, Reduction: red, Stats: reg}.withDefaults(n)
		e := newExplorer(context.Background(), n, DefaultIDs(n), opts, build, nil, nil)
		wk := e.newWorker(0)
		lane := e.shards[0]
		// The root run's first sibling: under sleep sets it sleeps on
		// process 0, whose private write commutes with process 1's.
		e.process(frontierItem{choices: []int{}}, wk)
		item := lane.items[0]
		if red != ReductionNone && len(item.sleep) == 0 {
			t.Fatalf("%v: item %v has no sleep set; the test is vacuous", red, item.choices)
		}
		once := func() {
			lane.items = lane.items[:0]
			e.pending.Store(0)
			if !e.process(item, wk) {
				t.Fatalf("%v: item %v was pruned", red, item.choices)
			}
		}
		once() // warm-up: buffers and the frontier lane reach steady size
		if allocs := testing.AllocsPerRun(200, once); allocs != 0 {
			t.Errorf("%v: processing a frontier item allocates %.0f times, want 0", red, allocs)
		}
		if blocked := reg.Snapshot().Counter(MetricBlockedBranches); (blocked > 0) != (red == ReductionSleepSets) {
			t.Errorf("%v: %s = %d after the measured runs", red, MetricBlockedBranches, blocked)
		}
		wk.runner.Close()
	}
}
