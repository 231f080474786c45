package campaign

import (
	"fmt"
	"testing"

	"repro/internal/sched"
	"repro/internal/tasks"
)

// TestProtocolsIndexIndependentAndComparisonBased runs the tasks.Solver
// contract on every protocol SelectProtocol names: under 20 seeded random
// schedules at n=3 and n=4, outputs must follow the processes under the
// default index permutations (sched.CheckIndexIndependence) and must not
// change when the identities are replaced by order-isomorphic ones
// (sched.CheckComparisonBased).
func TestProtocolsIndexIndependentAndComparisonBased(t *testing.T) {
	protocols := []string{"renaming", "grid", "slot-renaming", "wsb", "renaming-wsb", "election", "universal"}
	for _, protocol := range protocols {
		for _, n := range []int{3, 4} {
			t.Run(fmt.Sprintf("%s/n=%d", protocol, n), func(t *testing.T) {
				_, mk, err := SelectProtocol(protocol, n, 1)
				if err != nil {
					t.Fatal(err)
				}
				build := func() sched.Body { return tasks.Body(mk(n)) }
				ids := []int{5, 2, 9, 7}[:n]
				alts := [][]int{sched.OrderIsomorphicIDs(ids, 100), sched.OrderIsomorphicIDs(ids, 7)}
				for seed := int64(1); seed <= 20; seed++ {
					if err := sched.CheckIndexIndependence(n, ids, sched.NewRandom(seed), build, nil); err != nil {
						t.Errorf("seed %d: %v", seed, err)
					}
					if err := sched.CheckComparisonBased(n, ids, sched.NewRandom(seed), build, alts); err != nil {
						t.Errorf("seed %d: %v", seed, err)
					}
				}
			})
		}
	}
}
