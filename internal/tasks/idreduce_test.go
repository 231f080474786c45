package tasks

import (
	"testing"

	"repro/internal/gsb"
	"repro/internal/mem"
	"repro/internal/sched"
)

func TestIDReducerTheorem1(t *testing.T) {
	// Theorem 1: a protocol for identities in [1..2n-1] solves the task
	// for identities from any larger space [1..N] after the renaming
	// stage. Run Figure 2 (whose conflict resolution compares identities)
	// behind the reducer with huge sparse identities.
	n := 5
	spec := gsb.Renaming(n, n+1)
	ids := []int{100000, 7, 999, 35000, 123}
	for seed := int64(0); seed < 25; seed++ {
		_, err := RunVerified(spec, ids, sched.NewRandom(seed),
			func(n int) Solver {
				inner := NewSlotRenaming("F2", n, mem.SlotBox("KS", n, n-1, seed))
				return NewIDReducer("T1", n, inner)
			})
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

func TestIDReducerIntermediateIDsInRange(t *testing.T) {
	// The intermediate identities handed to the inner protocol must be
	// distinct and within [1..2n-1].
	n := 4
	ids := []int{500, 2, 77, 31}
	for seed := int64(0); seed < 20; seed++ {
		var got []int
		_, err := Run(n, ids, sched.NewRandom(seed), func(n int) Solver {
			probe := SolverFunc(func(p *sched.Proc, id int) int {
				p.Exec("probe", func() any { got = append(got, id); return nil })
				return 1 // decide anything legal for <n,1,...>; unused
			})
			return NewIDReducer("T1", n, probe)
		})
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if len(got) != n {
			t.Fatalf("seed=%d: %d intermediate ids, want %d", seed, len(got), n)
		}
		seen := map[int]bool{}
		for _, id := range got {
			if id < 1 || id > 2*n-1 {
				t.Fatalf("seed=%d: intermediate id %d outside [1..%d]", seed, id, 2*n-1)
			}
			if seen[id] {
				t.Fatalf("seed=%d: duplicate intermediate id %d", seed, id)
			}
			seen[id] = true
		}
	}
}

func TestIDReducerPreservesComparisonOrder(t *testing.T) {
	// The renaming stage is order-preserving in the following weak sense
	// required by Theorem 2: replaying the same schedule with
	// order-isomorphic identities yields identical outputs.
	n := 4
	ids := []int{40, 11, 93, 27}
	build := func() sched.Body {
		inner := NewSlotRenaming("F2", n, mem.SlotBox("KS", n, n-1, 9))
		return Body(NewIDReducer("T2", n, inner))
	}
	alts := [][]int{sched.OrderIsomorphicIDs(ids, 1000)}
	if err := sched.CheckComparisonBased(n, ids, sched.NewRandom(9), build, alts); err != nil {
		t.Fatal(err)
	}
}
