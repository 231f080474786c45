package mem

import (
	"fmt"

	"repro/internal/sched"
)

// This file provides the *adaptive* oracle objects that the paper
// contrasts with GSB tasks (Section 1 and related work): test&set,
// k-test&set and k-leader election are specified in terms of the
// participating set, so their guarantees hold even when fewer than n
// processes show up — unlike GSB tasks, whose bounds quantify over
// complete n-process output vectors only. The tests use these objects to
// demonstrate the paper's distinction between election (a non-adaptive
// GSB task) and test&set (its adaptive sibling).

// KTAS is a k-test&set object: among the processes that invoke, at least
// one and at most k obtain 1 (the rest obtain 0). With k = 1 it is the
// classic test&set, whose winner is always a participant — the property
// election GSB does not guarantee.
type KTAS struct {
	lb      *labels
	k       int
	winners int
}

// NewKTAS allocates a k-test&set oracle.
func NewKTAS(name string, k int) *KTAS {
	if k < 1 {
		panic(fmt.Sprintf("mem: k-test&set needs k >= 1, got %d", k))
	}
	return &KTAS{lb: labelsFor(name), k: k}
}

// Invoke returns 1 for up to the first k invokers and 0 afterwards. The
// "at least one" bound holds because the first invoker always wins.
func (t *KTAS) Invoke(p *sched.Proc) int {
	return p.Exec(t.lb.ktas, func() any {
		if t.winners < t.k {
			t.winners++
			return 1
		}
		return 0
	}).(int)
}

// KLeaderElection is a k-leader election object: every participant
// decides the identity of a participant, and at most k distinct
// identities are decided. This oracle implements the strongest adversary
// consistent with that specification for k = 1..n: it elects the first
// invoker's identity (k=1 semantics) and, for k > 1, rotates among the
// first k invokers' identities.
type KLeaderElection struct {
	lb      *labels
	k       int
	leaders []int
	calls   int
}

// NewKLeaderElection allocates a k-leader-election oracle.
func NewKLeaderElection(name string, k int) *KLeaderElection {
	if k < 1 {
		panic(fmt.Sprintf("mem: k-leader election needs k >= 1, got %d", k))
	}
	return &KLeaderElection{lb: labelsFor(name), k: k}
}

// Invoke records the caller as a potential leader while fewer than k are
// known, and returns one of the recorded participant identities.
func (e *KLeaderElection) Invoke(p *sched.Proc, id int) int {
	return p.Exec(e.lb.kleader, func() any {
		if len(e.leaders) < e.k {
			e.leaders = append(e.leaders, id)
		}
		leader := e.leaders[e.calls%len(e.leaders)]
		e.calls++
		return leader
	}).(int)
}
