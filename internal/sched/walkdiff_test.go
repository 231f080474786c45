package sched_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/campaign"
	"repro/internal/gsb"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tasks"
)

// walkTrace is what one Workers-1 reduced walk verified: the choice
// sequence of every verified schedule in completion order, and the runs
// it executed.
type walkTrace struct {
	schedules [][]int
	runs      int64
}

func selectProtocol(t *testing.T, protocol string, n int) (gsb.Spec, func(int) tasks.Solver) {
	t.Helper()
	spec, build, err := campaign.SelectProtocol(protocol, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return spec, build
}

func reducedWalk(t *testing.T, red sched.Reduction, model string, spec gsb.Spec, build func(int) tasks.Solver) walkTrace {
	t.Helper()
	n := spec.N()
	reg := stats.New()
	var tr walkTrace
	opts := sched.ExploreOptions{Workers: 1, Reduction: red, Model: model, Stats: reg}
	count, err := sched.Explore(context.Background(), n, sched.DefaultIDs(n), opts,
		func() sched.Body { return tasks.Body(build(n)) },
		func(res *sched.Result) error {
			choices := make([]int, len(res.Schedule))
			for i, s := range res.Schedule {
				choices[i] = s.Proc
			}
			tr.schedules = append(tr.schedules, choices)
			return tasks.VerifyResult(spec, res)
		})
	if err != nil {
		t.Fatalf("%v: %v", red, err)
	}
	if count != len(tr.schedules) {
		t.Fatalf("%v: verdict %d, %d checked schedules", red, count, len(tr.schedules))
	}
	tr.runs = reg.Snapshot().Counter(sched.MetricRuns)
	return tr
}

// TestSleepSetWalksAgree: at Workers 1 the por walk (ReductionSleepSets)
// verifies exactly the schedules the por-memo walk (ReductionSleepMemo)
// verifies, in the same order, and never executes more runs. The
// por-memo walk branches into every awake child; the por walk may only
// leave out children that verify nothing.
func TestSleepSetWalksAgree(t *testing.T) {
	type instance struct {
		name  string
		model string
		spec  gsb.Spec
		build func(int) tasks.Solver
	}
	var insts []instance
	add := func(protocol string, n int, model string) {
		spec, build := selectProtocol(t, protocol, n)
		insts = append(insts, instance{fmt.Sprintf("%s-%d-%s", protocol, n, model), model, spec, build})
	}
	add("slot-renaming", 3, sched.ModelAtomic)
	add("slot-renaming", 3, sched.ModelRegular)
	add("universal", 3, sched.ModelAtomic)
	for _, model := range []string{sched.ModelAtomic, sched.ModelRegular, sched.ModelSafe, sched.ModelStaleSnapshot} {
		add("renaming", 2, model)
	}
	box := gsb.Hardest(5, 3)
	insts = append(insts, instance{"box-5", sched.ModelAtomic, box,
		func(int) tasks.Solver { return tasks.NewBoxSolver(mem.NewTaskBox("B", box, 1)) }})

	for _, in := range insts {
		memo := reducedWalk(t, sched.ReductionSleepMemo, in.model, in.spec, in.build)
		por := reducedWalk(t, sched.ReductionSleepSets, in.model, in.spec, in.build)
		if len(memo.schedules) < 2 {
			t.Fatalf("%s: %d schedules; the comparison is vacuous", in.name, len(memo.schedules))
		}
		if len(por.schedules) != len(memo.schedules) {
			t.Errorf("%s: por verified %d schedules, por-memo %d", in.name, len(por.schedules), len(memo.schedules))
		}
		for i := range min(len(por.schedules), len(memo.schedules)) {
			if !slices.Equal(por.schedules[i], memo.schedules[i]) {
				t.Errorf("%s: schedule %d is %v under por, %v under por-memo", in.name, i, por.schedules[i], memo.schedules[i])
				break
			}
		}
		if por.runs > memo.runs {
			t.Errorf("%s: %s = %d under por, %d under por-memo; want no more", in.name, sched.MetricRuns, por.runs, memo.runs)
		}
		t.Logf("%s: %d classes, runs %d (por) / %d (por-memo)", in.name, len(por.schedules), por.runs, memo.runs)
	}
}

// racyWSB is a seeded bug: a WSB solver deciding off a non-atomic
// increment of a shared register, so the schedules where every process
// reads before anyone writes decide 1 everywhere and violate WSB(3).
func racyWSB(int) tasks.Solver {
	c := mem.NewReg[int]("C")
	return tasks.SolverFunc(func(p *sched.Proc, id int) int {
		v, _ := c.Read(p)
		c.Write(p, v+1)
		return 1 + v%2
	})
}

// TestBlockedChildrenVerifyNothing: every child the por walk leaves out,
// re-run as a frontier item of the unfiltered por-memo walk, verifies no
// schedule and finds no failure — on slot-renaming n=3 (atomic and
// regular) and on a protocol with a seeded bug.
func TestBlockedChildrenVerifyNothing(t *testing.T) {
	slotSpec, slotBuild := selectProtocol(t, "slot-renaming", 3)
	cases := []struct {
		name  string
		model string
		spec  gsb.Spec
		build func(int) tasks.Solver
	}{
		{"slot-renaming-3", sched.ModelAtomic, slotSpec, slotBuild},
		{"slot-renaming-3-regular", sched.ModelRegular, slotSpec, slotBuild},
		{"racy-wsb-3", sched.ModelAtomic, gsb.WSB(3), racyWSB},
	}
	for _, tc := range cases {
		n := tc.spec.N()
		body := func() sched.Body { return tasks.Body(tc.build(n)) }
		dropped := sched.BlockedChildren(t, n, tc.model, body)
		if len(dropped) == 0 {
			t.Fatalf("%s: the filter dropped no child; the test is vacuous", tc.name)
		}
		checked := 0
		r := &sched.ResumableExplorer{
			N: n, IDs: sched.DefaultIDs(n),
			Opts:  sched.ExploreOptions{Workers: 1, Reduction: sched.ReductionSleepMemo, Model: tc.model},
			Build: body,
			Check: func(res *sched.Result) error { checked++; return tasks.VerifyResult(tc.spec, res) },
		}
		var runs int64
		for _, child := range dropped {
			st, done, err := r.Slice(context.Background(), &sched.ExploreState{Frontier: []sched.FrontierState{child}}, 0)
			if err != nil || !done {
				t.Fatalf("%s: child %v: done %v, %v", tc.name, child.Choices, done, err)
			}
			if st.Completed != 0 || st.Failure != nil || checked != 0 {
				t.Fatalf("%s: child %v verified %d schedules (%d checked), failure %+v; want none", tc.name, child.Choices, st.Completed, checked, st.Failure)
			}
			runs += st.Claimed
		}
		t.Logf("%s: %d dropped children, %d unfiltered runs below them", tc.name, len(dropped), runs)
	}
}
