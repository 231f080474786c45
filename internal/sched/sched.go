// Package sched simulates the asynchronous wait-free shared-memory model
// ASM_{n,t} of the paper: n processes that communicate through atomic
// operations, scheduled by an adversary, of which up to n-1 may crash.
//
// Every shared-memory operation is funneled through the scheduler, which
// grants one operation at a time according to a pluggable Policy
// (round-robin, seeded random, scripted adversary, with optional crash
// injection). This yields a totally ordered sequence of steps — exactly
// the runs/schedules formalism of Section 2 of the paper — and makes
// executions reproducible: the same policy, identities and body always
// produce the same run.
//
// Processes run as coroutines (iter.Pull) rather than free-running
// goroutines: a process executes until its next Exec, hands its pending
// request directly to the scheduler in a single stack switch, and stays
// suspended until the scheduler grants (or crash-denies) the step. The
// direct handoff costs no channel operations and no trips through the
// runtime scheduler, and gives the runner a hard invariant — between
// scheduler decisions every live process is suspended at its yield point —
// that makes crash unwinding and panic recovery leak-free by construction.
//
// The hot path is also allocation-free in steady state: every per-run and
// per-step structure (the pending-request table, the scratch buffers
// handed to the policy, the Result and its Schedule backing array) is
// allocated once in NewRunner and reused across runs. Exploration engines
// re-execute millions of short runs, so a Runner can be re-armed with
// Reset and — with WithReuse — keep its process coroutines parked between
// runs instead of recreating them.
//
// A crash is simulated by never granting the process another step; its
// coroutine is unwound via a recovered panic so that nothing leaks.
package sched

import (
	"errors"
	"fmt"
	"iter"
	"strings"
)

// stepReq is what a process coroutine hands the scheduler when it
// suspends: the operation it wants to execute, or — with parked set — the
// notification that its body has finished and the coroutine is parked
// waiting for the next run.
type stepReq struct {
	name   string
	op     func() any
	parked bool
}

// Proc is the handle through which a process body interacts with the run.
// Its index is an addressing mechanism only (Section 2.1): protocol code
// must base decisions on ID and observed values, never on Index. The
// verifier in verify.go checks this discipline by replaying permuted runs.
type Proc struct {
	r     *Runner
	index int // 0-based slot in the shared arrays
	id    int // identity drawn from [1..N], the only input

	// Coroutine state: yield suspends the process with its pending
	// request; next resumes it (from the scheduler side); stop unwinds a
	// parked coroutine on teardown.
	yield func(stepReq) bool
	next  func() (stepReq, bool)
	stop  func()

	body     Body // the current run's body, delivered while parked
	replyVal any  // the granted op's result, set before resuming
	crashed  bool // crash-denial flag, consumed by Exec on resume
	dead     bool // the adversary crashed the process: a crash is final

	// decideVal/decideOp make Decide allocation-free: the op closure is
	// bound once per runner instead of once per call.
	decideVal int
	decideOp  func() any
}

// Index returns the process's register index (0-based, addressing only).
func (p *Proc) Index() int { return p.index }

// ID returns the process's identity (its input).
func (p *Proc) ID() int { return p.id }

// N returns the number of processes in the system.
func (p *Proc) N() int { return p.r.n }

// Model returns the memory model the run executes under (the zero value —
// atomic registers — unless the runner was built WithModel). internal/mem
// consults it on every register operation.
//
//gsb:hotpath
func (p *Proc) Model() MemModel { return p.r.model }

// errCrashed unwinds a crashed process's coroutine. It is recovered by the
// runner's wrapper; any other panic value is re-raised.
var errCrashed = errors.New("sched: process crashed")

// Exec performs one atomic step: op runs with exclusive access to all
// shared state and is assigned the next position in the linearization
// order. The name labels the step in the recorded schedule.
//
// If the scheduler crashes the process instead of granting the step, Exec
// never returns (the coroutine unwinds).
//
//gsb:hotpath
func (p *Proc) Exec(name string, op func() any) any {
	if !p.yield(stepReq{name: name, op: op}) {
		// The runner was closed mid-run; unwind like a crash.
		panic(errCrashed)
	}
	if p.crashed {
		p.crashed = false
		panic(errCrashed)
	}
	val := p.replyVal
	p.replyVal = nil
	return val
}

// Decide records v as the process's output (the write to the write-once
// output_i register of the paper) as one atomic step.
//
//gsb:hotpath
func (p *Proc) Decide(v int) {
	p.decideVal = v
	p.Exec("decide", p.decideOp)
}

// run is the process coroutine: parked between runs, one body per run.
func (p *Proc) run(yield func(stepReq) bool) {
	p.yield = yield
	for yield(stepReq{parked: true}) {
		p.runBody()
	}
}

// runBody executes one run's body. Panics raised by protocol code outside
// ops surface here, where the scheduler's recover cannot see them; capture
// them (crash unwinds excepted) for Run to re-raise.
func (p *Proc) runBody() {
	defer func() {
		if rec := recover(); rec != nil {
			if err, ok := rec.(error); !ok || !errors.Is(err, errCrashed) {
				p.r.panics[p.index] = rec // protocol bug: re-raise from Run
			}
		}
	}()
	body := p.body
	p.body = nil
	body(p)
}

// Body is a process's local algorithm.
type Body func(p *Proc)

// Step is one entry of a recorded schedule.
type Step struct {
	Proc  int    // process index
	Op    string // operation label ("write", "snapshot", "decide", ...)
	Crash bool   // true if this entry records a crash, not an operation
}

// Result describes a completed run.
//
// A Result returned by a Runner is reused by that runner's next Run (its
// slices are re-filled in place); callers that keep results across runs of
// the same runner must copy what they need first. One-shot callers — one
// NewRunner per Run — are unaffected.
type Result struct {
	Outputs  []int  // decided values (1-based); 0 when undecided
	Decided  []bool // per-process: did it write its output register?
	Crashed  []bool // per-process: was it crashed by the adversary?
	Schedule []Step // the linearized schedule, including crash events
	Steps    int    // number of operation steps granted (crashes excluded)

	// procSteps counts the operation steps granted to each process,
	// maintained by the runner during the run so that Participating is
	// O(1) instead of a Schedule scan (property checks call it per
	// process on the exploration hot path).
	procSteps []int
}

// DecidedVector returns the output vector when every process decided, or
// an error naming the first process that did not.
func (r *Result) DecidedVector() ([]int, error) {
	for i, d := range r.Decided {
		if !d {
			return nil, fmt.Errorf("sched: process %d did not decide (crashed=%v)", i, r.Crashed[i])
		}
	}
	return append([]int(nil), r.Outputs...), nil
}

// Participating reports whether process i took at least one step.
func (r *Result) Participating(i int) bool {
	if r.procSteps != nil {
		return r.procSteps[i] > 0
	}
	// Hand-built Result (no per-process counts): fall back to the scan.
	for _, s := range r.Schedule {
		if s.Proc == i && !s.Crash {
			return true
		}
	}
	return false
}

// ProcessPanic is a panic raised by protocol code, captured by the runner
// and re-raised from Run wrapped with the index of the process it came
// from. Value is the original panic value, preserved verbatim.
type ProcessPanic struct {
	Proc  int // process index
	Value any // the original recovered value
}

// Error implements error (panic values print through it).
func (p ProcessPanic) Error() string {
	return fmt.Sprintf("sched: process %d panicked: %v", p.Proc, p.Value)
}

// ProcessPanics is the panic value re-raised by Run when protocol code
// panicked: one entry per panicking process, in index order. Recover it to
// get at every original panic value, not a flattened string.
type ProcessPanics []ProcessPanic

// Error implements error.
func (ps ProcessPanics) Error() string {
	msgs := make([]string, len(ps))
	for i, p := range ps {
		msgs[i] = p.Error()
	}
	return strings.Join(msgs, "; ")
}

// Runner executes runs of a distributed algorithm. A Runner is not safe
// for concurrent use; run loops give each worker its own.
type Runner struct {
	n        int
	ids      []int
	policy   Policy
	maxSteps int
	reuse    bool
	model    MemModel

	result *Result
	procs  []*Proc

	// Fixed-size per-run state, allocated once and reset by each Run.
	panics     []any
	pendingReq []stepReq // pending request of process i (valid iff pendingOn[i])
	pendingOn  []bool
	// Reusable scratch handed to the policy each decision. Policies must
	// treat it as valid only for the duration of the call (every policy
	// in this repository copies what it keeps).
	pendingIdx []int

	// Live loop state (fields so the panic-unwind path can see them).
	exited       int // processes whose body finished, crashed or panicked
	crashedCount int
	granting     int // process whose op is executing right now; -1 otherwise

	live   bool // the process coroutines exist and are parked
	closed bool
}

// Option configures a Runner.
type Option func(*Runner)

// DefaultMaxSteps is the per-run safety budget on total steps of an
// n-process run when none is set: the Runner default, the exploration
// default (ExploreOptions.MaxSteps), and the budget the PCT horizon probe
// runs under.
func DefaultMaxSteps(n int) int { return 4096 * n }

// WithMaxSteps overrides the safety budget on total steps (default
// DefaultMaxSteps(n)). Exceeding the budget aborts the run with an error; this is how
// non-wait-free loops and livelocks surface in tests.
func WithMaxSteps(max int) Option {
	return func(r *Runner) { r.maxSteps = max }
}

// WithModel selects the memory model the runner's runs execute under
// (MemModelByName; the zero value is the default atomic model). The model
// only changes which steps internal/mem objects request from the
// scheduler — the runner itself schedules identically.
func WithModel(m MemModel) Option {
	return func(r *Runner) { r.model = m }
}

// WithReuse keeps the n process coroutines parked between runs instead of
// recreating them per Run. Combined with Reset this makes re-executing a
// run allocation-free in steady state, which is what the exploration
// engines ride on. The caller must Close the runner when done with it;
// without WithReuse the coroutines are torn down at the end of each Run
// and no Close is needed.
func WithReuse() Option {
	return func(r *Runner) { r.reuse = true }
}

// NewRunner creates a runner for n processes with the given distinct
// identities (ids[i] is the input of the process at index i) and policy.
// Everything the hot path needs is allocated here, once, so that Run does
// not allocate in steady state. policy may be nil if Reset is called
// before the first Run.
func NewRunner(n int, ids []int, policy Policy, opts ...Option) *Runner {
	if n < 1 {
		panic("sched: need n >= 1")
	}
	if len(ids) != n {
		panic(fmt.Sprintf("sched: got %d ids for %d processes", len(ids), n))
	}
	seen := map[int]bool{}
	for _, id := range ids {
		if seen[id] {
			panic(fmt.Sprintf("sched: duplicate identity %d", id))
		}
		seen[id] = true
	}
	r := &Runner{
		n:        n,
		ids:      append([]int(nil), ids...),
		policy:   policy,
		maxSteps: DefaultMaxSteps(n),

		result: &Result{
			Outputs:   make([]int, n),
			Decided:   make([]bool, n),
			Crashed:   make([]bool, n),
			procSteps: make([]int, n),
		},
		procs:      make([]*Proc, n),
		panics:     make([]any, n),
		pendingReq: make([]stepReq, n),
		pendingOn:  make([]bool, n),
		pendingIdx: make([]int, 0, n),
		granting:   -1,
	}
	for i := 0; i < n; i++ {
		p := &Proc{r: r, index: i, id: r.ids[i]}
		p.decideOp = func() any {
			if r.result.Decided[p.index] {
				panic(fmt.Sprintf("sched: process %d decided twice", p.index))
			}
			r.result.Decided[p.index] = true
			r.result.Outputs[p.index] = p.decideVal
			return nil
		}
		r.procs[i] = p
	}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// DefaultIDs returns the identity assignment {1, 2, ..., n}.
func DefaultIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i + 1
	}
	return ids
}

// ErrStepBudget is returned when a run exceeds its step budget.
var ErrStepBudget = errors.New("sched: step budget exhausted (protocol not wait-free under this schedule?)")

// N returns the number of processes the runner executes.
func (r *Runner) N() int { return r.n }

// Reset re-arms the runner to execute another run under a new policy,
// reusing every buffer — the Result, its Schedule backing array, the
// coroutines (under WithReuse) and the scratch tables — from the previous
// run. The previous Result is invalidated. Exploration run loops call
// Reset once per schedule prefix instead of constructing a fresh Runner.
func (r *Runner) Reset(policy Policy) { r.policy = policy }

// Close unwinds the process coroutines a WithReuse runner keeps parked
// between runs. It is safe to call multiple times, and a no-op for
// runners without reuse. Run must not be called after Close.
func (r *Runner) Close() {
	if r.closed {
		return
	}
	r.closed = true
	r.teardown()
}

// spawn creates the n process coroutines and advances each to its initial
// park, so that every Run starts from the same parked state.
func (r *Runner) spawn() {
	r.live = true
	for _, p := range r.procs {
		p.next, p.stop = iter.Pull(p.run)
		p.next()
	}
}

// teardown unwinds the parked coroutines (their park yield returns false
// and Proc.run returns).
func (r *Runner) teardown() {
	if !r.live {
		return
	}
	r.live = false
	for _, p := range r.procs {
		p.stop()
		p.next, p.stop = nil, nil
	}
}

// Run executes body on all n processes until every process has finished
// or crashed, and returns the recorded result.
//
// The returned Result is owned by the runner and re-filled by the next
// Run; copy anything that must outlive it. If protocol code panics — on a
// process coroutine, or inside an op on the scheduler side — Run first
// crash-unwinds every other process so nothing leaks, then re-raises the
// original panic values as a ProcessPanics.
func (r *Runner) Run(body Body) (*Result, error) {
	if r.closed {
		panic("sched: Run called on a closed Runner")
	}
	if r.policy == nil {
		panic("sched: Run called without a policy (NewRunner with a nil policy requires Reset first)")
	}
	r.beginRun()
	if !r.live {
		r.spawn()
	}
	if !r.reuse {
		defer r.teardown()
	}
	for _, p := range r.procs {
		p.body = body
		r.pull(p) // resume: runs the body up to its first request
	}
	budgetErr := r.schedule()

	var pps ProcessPanics
	for i, rec := range r.panics {
		if rec != nil {
			pps = append(pps, ProcessPanic{Proc: i, Value: rec})
		}
	}
	if pps != nil {
		panic(pps)
	}
	if budgetErr != nil {
		return r.result, budgetErr
	}
	return r.result, nil
}

// beginRun resets the per-run state in place (no allocation).
//
//gsb:hotpath
func (r *Runner) beginRun() {
	res := r.result
	for i := 0; i < r.n; i++ {
		res.Outputs[i] = 0
		res.Decided[i] = false
		res.Crashed[i] = false
		res.procSteps[i] = 0
		r.panics[i] = nil
		r.pendingReq[i] = stepReq{}
		r.pendingOn[i] = false
		r.procs[i].dead = false
	}
	res.Schedule = res.Schedule[:0]
	res.Steps = 0
	r.exited = 0
	r.crashedCount = 0
	r.granting = -1
}

// pull resumes a process coroutine and records its next pending request;
// a parked (or terminated) coroutine means the process exited this run.
// A crash is final: if a crashed process's body re-enters Exec (e.g. a
// defer that recovered the crash unwind), every further request is denied
// until the coroutine parks — it can never re-enter the pending set. The
// denials terminate because each one unwinds to the body's next enclosing
// defer, and the defer stack is finite.
//
//gsb:hotpath
func (r *Runner) pull(p *Proc) {
	req, ok := p.next()
	for ok && !req.parked && p.dead {
		p.crashed = true
		req, ok = p.next()
	}
	if !ok || req.parked {
		r.exited++
		return
	}
	r.pendingReq[p.index] = req
	r.pendingOn[p.index] = true
}

// crashPull denies the process's step: the resumed Exec unwinds the
// coroutine back to its park, and the process exits the run.
//
//gsb:hotpath
func (r *Runner) crashPull(p *Proc) {
	p.dead = true
	p.crashed = true
	r.pull(p)
}

// schedule is the scheduler loop. Between decisions every live process is
// suspended at its yield point with a pending request — the coroutine
// invariant — so the policy always chooses among all live processes and
// the run is deterministic. If an op (or the policy) panics here, the
// deferred recovery crash-unwinds every suspended process, so the panic
// cannot leak a coroutine; op panics are attributed to the granted process
// and re-raised by Run, any other panic is re-raised as-is.
//
//gsb:hotpath
func (r *Runner) schedule() (budgetErr error) {
	//gsb:alloc-ok open-coded defer in a function whose closure does not escape: stack-allocated; gsbbench pins the hot path at 0 allocs/run
	defer func() {
		if rec := recover(); rec != nil {
			g := r.granting
			r.unwind()
			if g >= 0 {
				r.panics[g] = rec
			} else {
				panic(rec)
			}
		}
	}()

	for r.exited < r.n {
		// The pending table is indexed by process, so an ascending scan
		// yields the sorted index list the Policy contract promises.
		idx := r.pendingIdx[:0]
		for i := 0; i < r.n; i++ {
			if r.pendingOn[i] {
				idx = append(idx, i) //gsb:alloc-ok appends into r.pendingIdx[:0], pre-grown to n at NewRunner
			}
		}
		r.pendingIdx = idx

		var dec Decision
		if budgetErr != nil || r.result.Steps >= r.maxSteps {
			// Budget exhausted: crash everyone still pending to unwind
			// their coroutines, then report the error.
			if budgetErr == nil {
				budgetErr = ErrStepBudget
			}
			dec = Decision{Proc: idx[0], Crash: true}
		} else {
			dec = r.policy.Next(idx, r.result.Steps)
			if dec.Abort {
				// The policy discards the rest of the run (e.g. a
				// partial-order-reduction probe whose continuations are
				// all covered elsewhere): unwind like a budget overrun
				// and report ErrRunAborted — or the policy's own
				// structured error (e.g. ErrScheduleDiverged) when it
				// set one.
				budgetErr = ErrRunAborted
				if dec.Err != nil {
					budgetErr = dec.Err
				}
				dec = Decision{Proc: idx[0], Crash: true}
			} else if dec.Proc < 0 || dec.Proc >= r.n || !r.pendingOn[dec.Proc] {
				// A broken policy: unwind the run (rather than leaking
				// every suspended process) and surface the error.
				budgetErr = fmt.Errorf("sched: policy chose process %d which has no pending step", dec.Proc)
				dec = Decision{Proc: idx[0], Crash: true}
			}
		}

		req := r.pendingReq[dec.Proc]
		r.pendingReq[dec.Proc] = stepReq{} // drop the op/name references
		r.pendingOn[dec.Proc] = false
		if dec.Crash {
			if r.crashedCount+1 == r.n && budgetErr == nil {
				// Record the violation but keep unwinding so nothing
				// leaks; the error is reported after the run drains.
				budgetErr = fmt.Errorf("sched: policy crashed all %d processes; the wait-free model allows at most n-1 crashes", r.n)
			}
			r.crashedCount++
			r.result.Crashed[dec.Proc] = true
			r.result.Schedule = append(r.result.Schedule, Step{Proc: dec.Proc, Crash: true}) //gsb:alloc-ok reused Result.Schedule scratch, steady-state capacity after the first run
			r.crashPull(r.procs[dec.Proc])
			continue
		}

		r.granting = dec.Proc
		val := req.op() // exclusive: the linearization point of the step
		r.granting = -1
		r.result.Steps++
		r.result.procSteps[dec.Proc]++
		r.result.Schedule = append(r.result.Schedule, Step{Proc: dec.Proc, Op: req.name}) //gsb:alloc-ok reused Result.Schedule scratch, steady-state capacity after the first run
		p := r.procs[dec.Proc]
		p.replyVal = val
		r.pull(p)
	}
	return budgetErr
}

// unwind crash-denies every process still suspended after a scheduler
// panic — the one whose op was executing, and everyone parked on a
// pending request — so the panic leaks no coroutine. The coroutine
// invariant guarantees there is no third kind of live process.
func (r *Runner) unwind() {
	if g := r.granting; g >= 0 {
		r.granting = -1
		r.crashPull(r.procs[g])
	}
	for i := 0; i < r.n; i++ {
		if r.pendingOn[i] {
			r.pendingOn[i] = false
			r.pendingReq[i] = stepReq{}
			r.crashPull(r.procs[i])
		}
	}
}
