package sched

import "strings"

// This file derives the independence (commutation) relation that drives
// partial-order reduction from the op-naming contract of package mem:
// every shared-memory operation is labeled "<object>.<kind>" (for example
// "A.read", "KS.invoke", "T.tas"), and the decide step — the write to the
// process's own write-once output register — is labeled "decide". Two
// pending steps of distinct processes commute when they touch distinct
// objects, or when both only read the same object; swapping two commuting
// adjacent steps changes neither the final shared state nor any value
// returned to a process, so the two schedules are equivalent in the
// Mazurkiewicz-trace sense and only one representative needs executing.
//
// Labels that do not follow the contract (no '.' separator, e.g. the bare
// "noop"/"read"/"write" labels some tests use) are treated as touching one
// global unknown object with writes — i.e. dependent on every step but
// another process's decide, whose output register is private — so
// reduction degrades to exhaustive exploration instead of becoming
// unsound.

// Independence reports whether the pending operations opA of process
// procA and opB of process procB (procA != procB) commute: executing them
// in either order yields the same shared state and the same return
// values. It must be symmetric and sound — claiming independence for two
// conflicting steps makes partial-order reduction skip real schedules.
type Independence func(procA int, opA string, procB int, opB string) bool

// readOnlyKinds are the op-name suffixes of operations that never mutate
// their object; any two of them on the same object commute.
//
// The weak memory models (memmodel.go) decompose a write into a
// "write-start"/"write-commit" step pair. Neither kind appears here, so
// both phases conflict with every other op on the same object exactly as
// a one-step "write" does — the relation consults the model's op labels
// and stays conservatively sound without model-specific cases, at the
// cost of exploring the (deliberately larger) weak-model state space.
var readOnlyKinds = map[string]bool{
	"read":     true,
	"snapshot": true,
}

// opFootprint parses an operation label into the object it touches.
// perProc marks labels (currently only "decide") whose object is private
// to the invoking process, so that invocations by distinct processes
// never conflict. known is false for labels outside the naming contract,
// which callers must treat as conflicting with everything.
func opFootprint(op string) (object string, perProc, readOnly, known bool) {
	if op == "decide" {
		return "decide", true, false, true
	}
	i := strings.LastIndexByte(op, '.')
	if i < 0 {
		return "", false, false, false
	}
	return op[:i], false, readOnlyKinds[op[i+1:]], true
}

// perProcessOp reports whether op's footprint is private to the process
// that executes it ("decide"). Such a step commutes with every step of
// every other process under OpIndependent, so a process asleep on it
// stays asleep however the others move: no run in its subtree completes.
func perProcessOp(op string) bool {
	_, perProc, _, _ := opFootprint(op)
	return perProc
}

// OpIndependent is the Independence relation used by ExploreOptions.
// Reduction: steps of distinct processes commute iff either touches a
// per-process object ("decide", the process's own output register, which
// no other process's step reaches, labeled or not), or they touch
// distinct objects (per the "<object>.<kind>" naming contract), or both
// are read-only operations on the same object. Other unrecognized labels
// conflict with everything (sound fallback).
func OpIndependent(procA int, opA string, procB int, opB string) bool {
	if procA == procB {
		return false
	}
	objA, perA, roA, okA := opFootprint(opA)
	objB, perB, roB, okB := opFootprint(opB)
	if perA || perB {
		return true // a per-process object never aliases another process's object
	}
	if !okA || !okB {
		return false
	}
	if objA != objB {
		return true
	}
	return roA && roB
}

// dependentStep reports whether recorded steps a and b conflict: same
// process (program order) or non-commuting operations.
func dependentStep(a, b Step, indep Independence) bool {
	if a.Proc == b.Proc {
		return true
	}
	return !indep(a.Proc, a.Op, b.Proc, b.Op)
}

// CanonicalTraceHash hashes the Foata normal form of a completed run's
// step sequence under indep. Equivalent schedules — those differing only
// by swaps of adjacent independent steps — have identical normal forms,
// so the hash identifies the run's Mazurkiewicz trace class (and, for the
// deterministic protocols this engine executes, the final register
// contents, which are a function of the class).
//
// The value is persisted in the sampler's checkpointed class sets, so it
// must never change; TestCanonicalTraceHashGolden pins it. Hot loops
// hash through a reused TraceHasher instead, which allocates nothing.
func CanonicalTraceHash(schedule []Step, indep Independence) uint64 {
	var h TraceHasher
	return h.Hash(schedule, indep)
}

// TraceHasher computes CanonicalTraceHash with reusable level buckets: in
// steady state a Hash call allocates nothing. The zero value is ready to
// use; a TraceHasher is not safe for concurrent use, so each worker keeps
// its own.
type TraceHasher struct {
	levels [][]Step // level buckets; only the first n are live in a call
}

// FNV-1a, 64-bit (the parameters of hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash returns CanonicalTraceHash(schedule, indep).
//
//gsb:hotpath
func (h *TraceHasher) Hash(schedule []Step, indep Independence) uint64 {
	// Foata normal form: place each step in the level just below the
	// deepest level holding a step it depends on. Steps within a level
	// are pairwise independent, hence from distinct processes, and are
	// canonically ordered by process index (insertion keeps each bucket
	// sorted).
	levels := h.levels
	n := 0
	for _, s := range schedule {
		d := 0
		for l := n; l >= 1; l-- {
			if levelDepends(levels[l-1], s, indep) {
				d = l
				break
			}
		}
		if d == n {
			if n == len(levels) {
				levels = append(levels, nil) //gsb:alloc-ok grows h.levels, reused across calls: steady state after the deepest schedule
			}
			levels[n] = levels[n][:0]
			n++
		}
		level := append(levels[d], s) //gsb:alloc-ok appends into a reused bucket of h.levels: steady state after the widest level
		i := len(level) - 1
		for ; i > 0 && level[i-1].Proc > s.Proc; i-- {
			level[i] = level[i-1]
		}
		level[i] = s
		levels[d] = level
	}
	h.levels = levels

	// The bytes hashed per step are the process index (4 bytes, little
	// endian), the op label and a 0 terminator; each level ends in 0xff.
	x := uint64(fnvOffset64)
	for _, level := range levels[:n] {
		for _, s := range level {
			p := uint32(s.Proc)
			for k := 0; k < 4; k++ {
				x = (x ^ uint64(byte(p>>(8*k)))) * fnvPrime64
			}
			for k := 0; k < len(s.Op); k++ {
				x = (x ^ uint64(s.Op[k])) * fnvPrime64
			}
			x *= fnvPrime64 // ^ 0
		}
		x = (x ^ 0xff) * fnvPrime64
	}
	return x
}

//gsb:hotpath
func levelDepends(level []Step, s Step, indep Independence) bool {
	for _, u := range level {
		if dependentStep(u, s, indep) {
			return true
		}
	}
	return false
}
