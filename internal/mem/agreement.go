package mem

import (
	"fmt"

	"repro/internal/sched"
)

// Agreement-task oracle objects. The paper contrasts GSB tasks with
// agreement tasks (Section 1): agreement outputs must relate to inputs
// (consensus decides a proposed value), whereas GSB tasks are inputless —
// their output-vector set is the same for every input vector. These
// oracles make the contrast executable and give the tests concrete
// colorless tasks that provably are not GSB tasks (Section 3.2).

// Consensus is a one-shot consensus object: every invoker decides the
// same value, and that value is some process's proposal (here: the first
// proposal the object receives — the strongest adversary cannot do
// otherwise for validity).
type Consensus struct {
	lb      *labels
	decided bool
	value   int
}

// NewConsensus allocates a consensus object.
func NewConsensus(name string) *Consensus { return &Consensus{lb: labelsFor(name)} }

// Propose submits v and returns the decided value (one step).
func (c *Consensus) Propose(p *sched.Proc, v int) int {
	return p.Exec(c.lb.propose, func() any {
		if !c.decided {
			c.decided = true
			c.value = v
		}
		return c.value
	}).(int)
}

// KSetAgreement is a k-set agreement object: every invoker decides a
// proposed value and at most k distinct values are decided. The oracle
// keeps the first k distinct proposals as the decidable set and routes
// every caller to one of them (its own proposal when possible).
type KSetAgreement struct {
	lb     *labels
	k      int
	chosen []int
}

// NewKSetAgreement allocates a k-set agreement object.
func NewKSetAgreement(name string, k int) *KSetAgreement {
	if k < 1 {
		panic(fmt.Sprintf("mem: k-set agreement needs k >= 1, got %d", k))
	}
	return &KSetAgreement{lb: labelsFor(name), k: k}
}

// Propose submits v and returns a decided value (one step).
func (s *KSetAgreement) Propose(p *sched.Proc, v int) int {
	return p.Exec(s.lb.propose, func() any {
		for _, c := range s.chosen {
			if c == v {
				return v
			}
		}
		if len(s.chosen) < s.k {
			s.chosen = append(s.chosen, v)
			return v
		}
		return s.chosen[0]
	}).(int)
}
