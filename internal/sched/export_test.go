package sched

import (
	"errors"
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
// skipBlocked selects the tree: true walks ReductionSleepSets, which
// leaves out the children a sleeping decide blocks, false the unfiltered
// ReductionSleepMemo walk. Both policies must report the same run
// choices, the same branch items (choices and sleep sets) and the same
// blocked count, and no queued item may change between its carving and
// its pop — the slab's immutability contract. It returns the number of
// items walked. External tests call it with real protocols, which this
// package cannot import.
func CheckPORPolicyReuse(t testing.TB, n int, model string, skipBlocked bool, build func() Body) int {
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
	reused.skipBlocked = skipBlocked
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
		fresh.skipBlocked = skipBlocked
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
		got, gotBlocked := reused.branchItems()
		want, wantBlocked := fresh.branchItems()
		if len(got) != len(want) || gotBlocked != wantBlocked {
			t.Fatalf("prefix %v: reused policy branched %d items and blocked %d, fresh %d and %d", q.item.choices, len(got), gotBlocked, len(want), wantBlocked)
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

// BlockedChildren walks the whole ReductionSleepSets tree of build (n
// processes under the named memory model) depth-first and returns every
// child its branching left out: for each frontier item, the branch items
// of an unfiltered policy on the same item that the filtered policy did
// not queue. Their number must equal the blocked counts reported.
func BlockedChildren(t testing.TB, n int, model string, build func() Body) []FrontierState {
	t.Helper()
	m, err := MemModelByName(model)
	if err != nil {
		t.Fatal(err)
	}
	runner, filtered := newPORPair(n, OpIndependent, WithReuse(), WithModel(m))
	defer runner.Close()
	filtered.skipBlocked = true
	plainRunner, plain := newPORPair(n, OpIndependent, WithReuse(), WithModel(m))
	defer plainRunner.Close()
	var dropped []FrontierState
	stack := []frontierItem{{choices: []int{}}}
	for len(stack) > 0 {
		item := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		filtered.reset(item.choices, item.sleep)
		if _, err := runner.Run(build()); err != nil && !errors.Is(err, ErrRunAborted) {
			t.Fatalf("prefix %v: %v", item.choices, err)
		}
		plain.reset(item.choices, item.sleep)
		if _, err := plainRunner.Run(build()); err != nil && !errors.Is(err, ErrRunAborted) {
			t.Fatalf("prefix %v: %v", item.choices, err)
		}
		kept, blocked := filtered.branchItems()
		all, none := plain.branchItems()
		if none != 0 || len(all) != len(kept)+blocked {
			t.Fatalf("prefix %v: unfiltered policy branched %d items (%d blocked), filtered %d plus %d blocked", item.choices, len(all), none, len(kept), blocked)
		}
		k := 0
		for _, it := range all {
			if k < len(kept) && slices.Equal(it.choices, kept[k].choices) {
				if !slices.Equal(it.sleep, kept[k].sleep) {
					t.Fatalf("prefix %v: child %v sleeps on %v filtered, %v unfiltered", item.choices, it.choices, kept[k].sleep, it.sleep)
				}
				k++
				continue
			}
			dropped = append(dropped, FrontierState{Choices: slices.Clone(it.choices), Sleep: slices.Clone(it.sleep)})
		}
		if k != len(kept) {
			t.Fatalf("prefix %v: filtered children are not a subsequence of the unfiltered ones", item.choices)
		}
		stack = append(stack, kept...)
	}
	return dropped
}
