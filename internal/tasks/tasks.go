// Package tasks contains executable wait-free protocols for the GSB tasks
// studied in the paper: snapshot-based adaptive renaming, splitter-grid
// renaming, perfect renaming from oracle objects, the Figure 2 algorithm
// solving (n+1)-renaming from the (n-1)-slot task, the WSB/(2n-2)-renaming
// equivalence reductions, and the identity-space reduction of Theorems 1
// and 2.
//
// Protocols are per-run instances: a constructor allocates the shared
// objects, and Solve(p, id) runs the local algorithm of one process and
// returns its decision. Solve takes the identity explicitly so that
// protocols compose (e.g. a protocol can be run with intermediate
// identities produced by a renaming stage, as in Theorem 1).
package tasks

import (
	"repro/internal/gsb"
	"repro/internal/sched"
)

// Solver is a one-shot distributed task protocol: Solve returns the value
// decided by the calling process. Implementations must be wait-free,
// index-independent and comparison-based unless documented otherwise.
type Solver interface {
	Solve(p *sched.Proc, id int) int
}

// SolverFunc adapts a function to the Solver interface.
type SolverFunc func(p *sched.Proc, id int) int

// Solve implements Solver.
func (f SolverFunc) Solve(p *sched.Proc, id int) int { return f(p, id) }

// Body adapts a Solver to a sched.Body that decides the solver's output,
// using the process's own identity as input.
func Body(s Solver) sched.Body {
	return func(p *sched.Proc) {
		p.Decide(s.Solve(p, p.ID()))
	}
}

// DefaultRunMaxSteps is the generous per-run step budget Run applies (and
// run loops that build their own reusable runner, e.g. the harness seed
// sweeps, should apply) to single verified runs.
const DefaultRunMaxSteps = 1 << 21

// Run executes build(n) once under the given identities and policy with a
// generous step budget, and returns the recorded result. opts apply after
// the default budget, so sched.WithMaxSteps overrides it and
// sched.WithModel selects the memory model the shared objects execute
// under.
func Run(n int, ids []int, policy sched.Policy, build func(n int) Solver, opts ...sched.Option) (*sched.Result, error) {
	runner := sched.NewRunner(n, ids, policy, append([]sched.Option{sched.WithMaxSteps(DefaultRunMaxSteps)}, opts...)...)
	return runner.Run(Body(build(n)))
}

// RunVerified runs the protocol via Run and checks its outputs against
// spec: complete runs must produce a legal output vector; runs with
// crashes must produce a legal completable prefix.
func RunVerified(spec gsb.Spec, ids []int, policy sched.Policy, build func(n int) Solver, opts ...sched.Option) (*sched.Result, error) {
	res, err := Run(spec.N(), ids, policy, build, opts...)
	if err != nil {
		return res, err
	}
	return res, VerifyResult(spec, res)
}
