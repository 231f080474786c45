package sched_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/gsb"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tasks"
)

// classSet records the canonical trace hash of every schedule the engine
// counts; Check sees exactly the counted runs. Workers call it
// concurrently.
type classSet struct {
	mu     sync.Mutex
	seen   map[uint64]bool
	dups   int
	verify func(*sched.Result) error
}

func (c *classSet) check(res *sched.Result) error {
	h := sched.CanonicalTraceHash(res.Schedule, sched.OpIndependent)
	c.mu.Lock()
	if c.seen[h] {
		c.dups++
	}
	c.seen[h] = true
	c.mu.Unlock()
	return c.verify(res)
}

// TestSleepSetWalkCountsEachClassOnce: the sleep-set walk counts exactly
// one schedule per Mazurkiewicz trace class. Every counted schedule's
// canonical trace hash must be new, and the number of distinct hashes
// must equal the verdict, at Workers 1, 2 and 8 and over 3- and 8-way
// shard splits, on the census instances and under the weak memory
// models, whose write-start/write-commit and safe-read decision points
// the sleep sets must stay sound across.
func TestSleepSetWalkCountsEachClassOnce(t *testing.T) {
	selected := func(protocol string, n int) (gsb.Spec, func(int) tasks.Solver) {
		spec, build, err := campaign.SelectProtocol(protocol, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		return spec, build
	}
	type instance struct {
		name  string
		model string
		spec  gsb.Spec
		build func(int) tasks.Solver
		want  int
	}
	var insts []instance
	add := func(protocol string, n int, model string, want int) {
		spec, build := selected(protocol, n)
		name := fmt.Sprintf("%s-%d", protocol, n)
		if model != "" {
			name += "-" + model
		}
		insts = append(insts, instance{name, model, spec, build, want})
	}
	add("slot-renaming", 3, "", 216)
	add("slot-renaming", 4, "", 13824)
	add("universal", 4, "", 288)
	add("slot-renaming", 3, sched.ModelRegular, 4572)
	add("slot-renaming", 3, sched.ModelSafe, 4572)
	add("slot-renaming", 3, sched.ModelStaleSnapshot, 1440)
	box := gsb.Hardest(6, 3)
	insts = append(insts, instance{"box-6", "", box,
		func(int) tasks.Solver { return tasks.NewBoxSolver(mem.NewTaskBox("B", box, 1)) }, 720})

	for _, in := range insts {
		n := in.spec.N()
		ids := sched.DefaultIDs(n)
		build := func() sched.Body { return tasks.Body(in.build(n)) }
		run := func(label string, explore func(opts sched.ExploreOptions, check func(*sched.Result) error) (int, error)) {
			classes := &classSet{seen: map[uint64]bool{}, verify: func(res *sched.Result) error { return tasks.VerifyResult(in.spec, res) }}
			opts := sched.ExploreOptions{Reduction: sched.ReductionSleepSets, Model: in.model}
			count, err := explore(opts, classes.check)
			if err != nil {
				t.Fatalf("%s %s: %v", in.name, label, err)
			}
			if classes.dups > 0 {
				t.Errorf("%s %s: %d counted schedules repeat a trace class", in.name, label, classes.dups)
			}
			if count != in.want || len(classes.seen) != in.want {
				t.Errorf("%s %s: verdict %d, %d distinct classes; want %d", in.name, label, count, len(classes.seen), in.want)
			}
		}
		for _, workers := range []int{1, 2, 8} {
			run(fmt.Sprintf("workers=%d", workers), func(opts sched.ExploreOptions, check func(*sched.Result) error) (int, error) {
				opts.Workers = workers
				return sched.Explore(context.Background(), n, ids, opts, build, check)
			})
		}
		for _, shards := range []int{3, 8} {
			run(fmt.Sprintf("shards=%d", shards), func(opts sched.ExploreOptions, check func(*sched.Result) error) (int, error) {
				opts.Workers = 2
				r := &sched.ResumableExplorer{N: n, IDs: ids, Opts: opts, Build: build, Check: check}
				states, err := r.SeedShards(context.Background(), shards)
				if err != nil {
					return 0, err
				}
				for i, st := range states {
					if states[i], _, err = r.Slice(context.Background(), st, 0); err != nil {
						return 0, err
					}
				}
				return r.Finalize(context.Background(), states...)
			})
		}
	}
}
