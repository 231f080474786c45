package sched_test

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/gsb"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tasks"
)

// TestCanonicalTraceHashGolden pins CanonicalTraceHash on recorded
// schedules of the por-census instances. The hash is persisted in the
// sampler's checkpointed class sets, so a change to its value would
// silently break resuming and merging every existing sample checkpoint. Each schedule is a seeded random run
// with seed-1 oracle boxes.
func TestCanonicalTraceHashGolden(t *testing.T) {
	box := func(int) tasks.Solver { return tasks.NewBoxSolver(mem.NewTaskBox("B", gsb.Hardest(6, 3), 1)) }
	selected := func(protocol string, n int) func(int) tasks.Solver {
		_, build, err := campaign.SelectProtocol(protocol, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		return build
	}
	cases := []struct {
		name  string
		n     int
		model string
		build func(int) tasks.Solver
		want  [3]uint64 // hashes of the runs under policy seeds 1, 2, 3
	}{
		{"slot-renaming-4", 4, "", selected("slot-renaming", 4), [3]uint64{0x49e8b25997136a1c, 0x65e779499b1d5d8d, 0xf2f1623c1aa769ce}},
		{"box-6", 6, "", box, [3]uint64{0xa64fe68066587ba0, 0xa8c7e90d186b4622, 0x19d68925b623a3de}},
		{"slot-renaming-3-regular", 3, "regular", selected("slot-renaming", 3), [3]uint64{0xc8c6d40f5254970f, 0xf4acd6683a1284a7, 0x2816c71bd25e1d}},
		{"universal-4", 4, "", selected("universal", 4), [3]uint64{0x79a055851c42f49a, 0x52b8d7080552944c, 0xa4edcaa6337452f6}},
		// campaign-walk's instance: the sampler persists these as classes.
		{"slot-renaming-6", 6, "", selected("slot-renaming", 6), [3]uint64{0xa577702347bc18b2, 0x744783b003480c2b, 0xe09b12e12ca92e3f}},
	}
	// One hasher across every schedule, as a worker reuses it: stale
	// level buckets from a longer or wider schedule must not leak in.
	var hasher sched.TraceHasher
	for _, tc := range cases {
		model, err := sched.MemModelByName(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range tc.want {
			seed := int64(i + 1)
			res, err := tasks.Run(tc.n, sched.DefaultIDs(tc.n), sched.NewRandom(seed), tc.build, sched.WithModel(model))
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			if got := sched.CanonicalTraceHash(res.Schedule, sched.OpIndependent); got != want {
				t.Errorf("%s seed %d (%d steps): hash %#x, want %#x", tc.name, seed, len(res.Schedule), got, want)
			}
			if got := hasher.Hash(res.Schedule, sched.OpIndependent); got != want {
				t.Errorf("%s seed %d: reused hasher gave %#x, want %#x", tc.name, seed, got, want)
			}
			if allocs := testing.AllocsPerRun(10, func() { hasher.Hash(res.Schedule, sched.OpIndependent) }); allocs != 0 {
				t.Errorf("%s seed %d: a warm hasher allocates %.0f times, want 0", tc.name, seed, allocs)
			}
		}
	}
}
