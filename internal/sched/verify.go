package sched

import (
	"fmt"
	"sort"
)

// This file implements the two solvability-notion checks of Section 2.2:
// index-independence and comparison-basedness. Both are semantic
// properties of an algorithm; we verify them on concrete runs by replaying
// transformed schedules and comparing outputs, which catches protocols
// that misuse indexes or identity arithmetic. Like Explore, each check
// takes a build function and runs a fresh protocol instance per run, so
// protocols that allocate their shared memory per instance replay from a
// clean state.

// CheckIndexIndependence runs build() once under policy, then replays the
// run under every index permutation pi (inputs and schedule permuted as in
// the paper's definition) and verifies that output_{pi(i)} in the permuted
// run equals output_i in the original. perms is a list of permutations of
// [0..n-1]; pass nil to check a default set (identity, reversal, rotation).
func CheckIndexIndependence(n int, ids []int, policy Policy, build func() Body, perms [][]int) error {
	base := NewRunner(n, ids, policy)
	res, err := base.Run(build())
	if err != nil {
		return fmt.Errorf("base run failed: %w", err)
	}
	if perms == nil {
		perms = defaultPerms(n)
	}
	for _, perm := range perms {
		if err := checkPerm(n, ids, build, res, perm); err != nil {
			return err
		}
	}
	return nil
}

func checkPerm(n int, ids []int, build func() Body, res *Result, perm []int) error {
	// Permuted run: the process at index perm[i] receives input ids[i] and
	// steps whenever index i stepped in the base run.
	permIDs := make([]int, n)
	for i := 0; i < n; i++ {
		permIDs[perm[i]] = ids[i]
	}
	runner := NewRunner(n, permIDs, ScriptFromSchedule(PermutedSchedule(res.Schedule, perm)))
	permRes, err := runner.Run(build())
	if err != nil {
		return fmt.Errorf("permuted run failed: %w", err)
	}
	for i := 0; i < n; i++ {
		if res.Decided[i] != permRes.Decided[perm[i]] ||
			res.Outputs[i] != permRes.Outputs[perm[i]] {
			return fmt.Errorf("index dependence: process %d output (%v,%d) but permuted process %d output (%v,%d) under perm %v",
				i, res.Decided[i], res.Outputs[i],
				perm[i], permRes.Decided[perm[i]], permRes.Outputs[perm[i]], perm)
		}
	}
	return nil
}

// CheckComparisonBased runs build() once under policy with identities
// ids, then re-runs the same schedule with every provided order-isomorphic
// identity assignment (same relative order, different values) and verifies
// each process decides the same value at the same schedule position.
func CheckComparisonBased(n int, ids []int, policy Policy, build func() Body, altIDs [][]int) error {
	base := NewRunner(n, ids, policy)
	res, err := base.Run(build())
	if err != nil {
		return fmt.Errorf("base run failed: %w", err)
	}
	for _, alt := range altIDs {
		if len(alt) != n {
			return fmt.Errorf("alt identity vector %v has wrong length", alt)
		}
		if !orderIsomorphic(ids, alt) {
			return fmt.Errorf("identity vectors %v and %v are not order-isomorphic", ids, alt)
		}
		runner := NewRunner(n, alt, ScriptFromSchedule(res.Schedule))
		altRes, err := runner.Run(build())
		if err != nil {
			return fmt.Errorf("replay with ids %v failed: %w", alt, err)
		}
		for i := 0; i < n; i++ {
			if res.Decided[i] != altRes.Decided[i] || res.Outputs[i] != altRes.Outputs[i] {
				return fmt.Errorf("not comparison-based: process %d decided (%v,%d) with ids %v but (%v,%d) with ids %v",
					i, res.Decided[i], res.Outputs[i], ids,
					altRes.Decided[i], altRes.Outputs[i], alt)
			}
		}
		if len(res.Schedule) != len(altRes.Schedule) {
			return fmt.Errorf("not comparison-based: schedule lengths differ (%d vs %d) with ids %v vs %v",
				len(res.Schedule), len(altRes.Schedule), ids, alt)
		}
	}
	return nil
}

func orderIsomorphic(a, b []int) bool {
	for i := range a {
		for j := range a {
			if (a[i] < a[j]) != (b[i] < b[j]) {
				return false
			}
		}
	}
	return true
}

func defaultPerms(n int) [][]int {
	identity := make([]int, n)
	reversal := make([]int, n)
	rotation := make([]int, n)
	swap01 := make([]int, n)
	for i := 0; i < n; i++ {
		identity[i] = i
		reversal[i] = n - 1 - i
		rotation[i] = (i + 1) % n
		swap01[i] = i
	}
	if n >= 2 {
		swap01[0], swap01[1] = 1, 0
	}
	return [][]int{identity, reversal, rotation, swap01}
}

// OrderIsomorphicIDs returns an identity assignment order-isomorphic to
// ids but shifted to larger values (each rank r mapped to base + 2r),
// useful as input to CheckComparisonBased.
func OrderIsomorphicIDs(ids []int, base int) []int {
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	rank := map[int]int{}
	for r, v := range sorted {
		rank[v] = r
	}
	out := make([]int, len(ids))
	for i, v := range ids {
		out[i] = base + 2*rank[v]
	}
	return out
}
