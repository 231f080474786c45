package sched

import (
	"reflect"
	"slices"
	"testing"
)

// Test protocols shared with the external tests.
var (
	StepsBody       = stepsBody
	CounterBody     = counterBody
	RaceBody        = raceBody
	DistinctOutputs = distinctOutputs
)

// newPORPair returns a runner for n processes and a porPolicy under
// indep, bound to each other as newWorker binds an exploration worker's.
func newPORPair(n int, indep Independence, opts ...Option) (*Runner, *porPolicy) {
	runner := NewRunner(n, DefaultIDs(n), nil, opts...)
	policy := &porPolicy{indep: indep, runner: runner}
	runner.Reset(policy)
	return runner, policy
}

// CheckPORPolicyReuse walks the whole sleep-set tree of build (n
// processes under the named memory model) depth-first, executing every
// frontier item twice: under one porPolicy re-armed with reset for every
// item, as an exploration worker does, and under a fresh policy and runner.
// Both must report the same run choices and the same branch items
// (choices and sleep sets), and no queued item may change between its
// carving and its pop — the slab's immutability contract. It returns the
// number of items walked. External tests call it with real protocols,
// which this package cannot import.
func CheckPORPolicyReuse(t testing.TB, n int, model string, build func() Body) int {
	t.Helper()
	m, err := MemModelByName(model)
	if err != nil {
		t.Fatal(err)
	}
	type queued struct {
		item frontierItem
		want frontierItem // deep copy taken when the item was carved
	}
	clone := func(it frontierItem) frontierItem {
		return frontierItem{choices: slices.Clone(it.choices), sleep: slices.Clone(it.sleep)}
	}
	runner, reused := newPORPair(n, OpIndependent, WithReuse(), WithModel(m))
	defer runner.Close()
	stack := []queued{{item: frontierItem{choices: []int{}}, want: frontierItem{choices: []int{}}}}
	walked := 0
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !reflect.DeepEqual(q.item, q.want) {
			t.Fatalf("item %d changed while queued: %+v, carved as %+v", walked, q.item, q.want)
		}
		walked++

		freshRunner, fresh := newPORPair(n, OpIndependent, WithModel(m))
		fresh.reset(q.item.choices, q.item.sleep)
		_, freshErr := freshRunner.Run(build())
		reused.reset(q.item.choices, q.item.sleep)
		_, reusedErr := runner.Run(build())
		if (freshErr == nil) != (reusedErr == nil) {
			t.Fatalf("prefix %v: fresh run error %v, reused run error %v", q.item.choices, freshErr, reusedErr)
		}
		if !slices.Equal(fresh.choices, reused.choices) {
			t.Fatalf("prefix %v: reused policy chose %v, fresh %v", q.item.choices, reused.choices, fresh.choices)
		}
		got, want := reused.branchItems(), fresh.branchItems()
		if len(got) != len(want) {
			t.Fatalf("prefix %v: reused policy branched %d items, fresh %d", q.item.choices, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("prefix %v: branch %d is %+v reused, %+v fresh", q.item.choices, i, got[i], want[i])
			}
			stack = append(stack, queued{item: got[i], want: clone(got[i])})
		}
	}
	return walked
}
