package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"

	"repro"
)

// instance is one protocol instance a census model-checks.
type instance struct {
	protocol string // a SelectProtocol name, or "box" for the Hardest(n,3) task box
	n        int
	model    string // memory model; "" is the default atomic model
	want     int    // pinned verdict count: schedules, or trace classes under reduction
}

func (in instance) String() string {
	s := fmt.Sprintf("%s-%d", in.protocol, in.n)
	if in.model != "" {
		s += "-" + in.model
	}
	return s
}

// resolve builds the instance's task and per-run solver constructor.
func (in instance) resolve(seed int64) (repro.Spec, func(int) repro.Solver, error) {
	if in.protocol == "box" {
		spec := repro.Hardest(in.n, 3)
		return spec, func(int) repro.Solver { return repro.NewBoxSolver(repro.NewTaskBox("B", spec, seed)) }, nil
	}
	return repro.SelectProtocol(in.protocol, in.n, seed)
}

// exhaustiveInstances run with no reduction: short runs with trivial
// decisions, so runner steps, protocol construction and VerifyResult do
// most of the work. They differ in op mix (snapshot and slot box, the
// task box, test-and-set), in run length (the regular model splits every
// write into two steps) and in the task-box memo's working set.
var exhaustiveInstances = []instance{
	{"slot-renaming", 3, "", 34650},
	{"slot-renaming", 2, "regular", 252},
	{"wsb", 5, "", 113400},
	{"universal", 3, "", 624},
}

// porInstances run under sleep sets, where 87-98% of executed runs are
// aborted probes: POR decisions, independence checks and frontier items
// dominate. The regular-model instance keeps the weak-register decision
// points, which POR must stay sound under, in the measured set.
var porInstances = []instance{
	{"slot-renaming", 4, "", 13824},
	{"box", 6, "", 720},
	{"slot-renaming", 3, "regular", 4572},
	{"universal", 4, "", 288},
}

// census model-checks every instance with one ExploreVerified call each.
func census(insts []instance, reduction repro.Reduction) func(env) (session, error) {
	return func(e env) (session, error) {
		s := &censusSession{e: e, reduction: reduction, insts: insts}
		for _, in := range insts {
			spec, build, err := in.resolve(e.seed)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", in, err)
			}
			s.specs = append(s.specs, spec)
			s.builds = append(s.builds, build)
		}
		return s, nil
	}
}

type censusSession struct {
	e         env
	reduction repro.Reduction
	insts     []instance
	specs     []repro.Spec
	builds    []func(int) repro.Solver
}

func (s *censusSession) close() {}

func (s *censusSession) options(in instance) repro.ExploreOptions {
	return repro.ExploreOptions{
		Workers: benchWorkers, MaxRuns: 1 << 24, Seed: s.e.seed,
		Model: in.model, Reduction: s.reduction,
	}
}

func (s *censusSession) verdict(tr *tracer, parent int) iteration {
	var it iteration
	probes := make([]*exploreProbe, len(s.insts))
	m := startMeter()
	for i, in := range s.insts {
		ids := repro.DefaultIDs(in.n)
		var count int
		var err error
		if tr == nil {
			count, err = repro.ExploreVerified(context.Background(), s.specs[i], ids, s.options(in), s.builds[i])
		} else {
			id := tr.begin(in.String(), parent)
			probes[i] = &exploreProbe{}
			count, err = probes[i].explore(s.specs[i], ids, s.options(in), s.builds[i])
			tr.finish(id)
			tr.sum(id, "tasks.build", &probes[i].build)
			tr.sum(id, "tasks.verify", &probes[i].verify)
		}
		it.op(err == nil && count == in.want, "%s: %d schedules (want %d), error %v", in, count, in.want, err)
		it.counts = append(it.counts, count)
		it.units += count
	}
	it.verdictS, it.cpuS, it.allocs = m.stop()
	if tr != nil {
		it.layers = s.layers(probes, &it)
	}
	return it
}

// layers attributes a traced census's CPU time: tasks (solver build and
// VerifyResult, timed at the callbacks), the runner (replayed steps times
// the replay's cost per step) and the engine, which has no boundary
// reachable from outside and so gets the remainder — aborted sleep-set
// probes land there by design.
func (s *censusSession) layers(probes []*exploreProbe, it *iteration) map[string]float64 {
	l := map[string]float64{}
	var replaySteps int
	var replayTime float64
	var replayAllocs uint64
	for i, p := range probes {
		l["tasks.build_calls"] += float64(p.build.calls.Load())
		l["tasks.build_s"] += p.build.total().Seconds()
		l["tasks.verify_calls"] += float64(p.verify.calls.Load())
		l["tasks.verify_s"] += p.verify.total().Seconds()
		l["runner.steps"] += p.verify.scale(float64(p.steps.Load()))
		steps, dur, allocs, err := p.replay(s.insts[i], s.builds[i])
		it.op(err == nil, "%s: replay: %v", s.insts[i], err)
		replaySteps += steps
		replayTime += dur
		replayAllocs += allocs
		c := p.reg.Snapshot().Counters
		l["engine.runs"] += float64(c["gsb_runs_total"])
		l["engine.schedules"] += float64(c["gsb_schedules_total"])
		l["engine.aborts"] += float64(c["gsb_aborts_total"])
		l["engine.steals"] += float64(c["gsb_steals_total"])
	}
	l["tasks.share"] = ratio(l["tasks.build_s"]+l["tasks.verify_s"], it.cpuS)
	l["runner.ns_per_step"] = ratio(replayTime*1e9, float64(replaySteps))
	l["runner.allocs_per_step"] = ratio(float64(replayAllocs), float64(replaySteps))
	l["runner.share"] = ratio(l["runner.ns_per_step"]*l["runner.steps"]/1e9, it.cpuS)
	l["engine.useful_ratio"] = ratio(l["engine.schedules"], l["engine.runs"])
	l["engine.self_share"] = 1 - l["tasks.share"] - l["runner.share"]
	l["residual_share"] = l["engine.self_share"]
	return l
}

// The runner replay re-executes a uniform sample of maxReplays checked
// schedules per instance, replayRounds times each. The sample is kept
// small on purpose: memory retained while the exploration runs lengthens
// every garbage collection's mark phase and slows the very exploration
// being measured.
const (
	maxReplays   = 64
	replayRounds = 32
)

// exploreProbe wraps a traced exploration's build and check callbacks with
// timers. The timed checks also sum their runs' steps and offer their
// schedules to the replay sample.
type exploreProbe struct {
	build, verify callTimer
	steps         atomic.Int64 // over the timed checks
	reg           *repro.StatsRegistry

	mu      sync.Mutex
	offered int
	replays []replay
}

// replay is a kept schedule: script makes a fresh (single-use) policy
// replaying it, which must take steps steps.
type replay struct {
	script func() repro.Policy
	steps  int
}

// keep offers a timed check's schedule to the replay sample (reservoir
// sampling, so every timed check is equally likely to be kept).
func (p *exploreProbe) keep(res *repro.RunResult) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.offered++
	i := len(p.replays)
	if i == maxReplays {
		if i = rand.IntN(p.offered); i >= maxReplays {
			return
		}
	}
	r := replay{script: replayable(res.Schedule, repro.ScriptFromSchedule), steps: res.Steps}
	if i == len(p.replays) {
		p.replays = append(p.replays, r)
	} else {
		p.replays[i] = r
	}
}

// replayable copies a recorded schedule and returns a function making a
// fresh replay script of it. It is generic only so the engine's schedule
// type needs no name here.
func replayable[S ~[]E, E any, P repro.Policy](schedule S, script func(S) P) func() repro.Policy {
	kept := slices.Clone(schedule)
	return func() repro.Policy { return script(kept) }
}

// explore is ExploreVerified with the callbacks wrapped: the same solver
// body per run and the same VerifyResult check.
func (p *exploreProbe) explore(spec repro.Spec, ids []int, opts repro.ExploreOptions, build func(int) repro.Solver) (int, error) {
	p.reg = repro.NewStatsRegistry()
	opts.Stats = p.reg
	check := func(res *repro.RunResult) error {
		start, timed := p.verify.begin()
		if !timed {
			return repro.VerifyResult(spec, res)
		}
		err := repro.VerifyResult(spec, res)
		p.verify.end(start)
		p.steps.Add(int64(res.Steps))
		p.keep(res)
		return err
	}
	return repro.Explore(context.Background(), spec.N(), ids, opts, timedBody(build, repro.SolverBody, spec.N(), &p.build), check)
}

// timedBody is the engine's per-run build callback — a fresh solver's
// body — with the construction timed. It is generic only so the engine's
// body type needs no name here.
func timedBody[S, B any](build func(int) S, body func(S) B, n int, t *callTimer) func() B {
	return func() B {
		start, timed := t.begin()
		b := body(build(n))
		if timed {
			t.end(start)
		}
		return b
	}
}

// replay re-executes the kept schedules on one reused runner, as the
// engine's workers do, and returns the steps, time and allocations of all
// but the first (which spawns the runner's coroutines). Each replay must
// take as many steps as the recorded run.
func (p *exploreProbe) replay(in instance, build func(int) repro.Solver) (steps int, seconds float64, allocs uint64, err error) {
	if len(p.replays) == 0 {
		return 0, 0, 0, nil
	}
	model, err := repro.MemModelByName(in.model)
	if err != nil {
		return 0, 0, 0, err
	}
	runner := repro.NewRunner(in.n, repro.DefaultIDs(in.n), nil, repro.WithReuse(), repro.WithModel(model))
	defer runner.Close()
	var runs []replay
	var scripts []repro.Policy
	var bodies []func(*repro.Proc)
	for range replayRounds {
		for _, r := range p.replays {
			runs = append(runs, r)
			scripts = append(scripts, r.script())
			bodies = append(bodies, repro.SolverBody(build(in.n)))
		}
	}
	var m meter
	for i, r := range runs {
		if i == 1 {
			m = startMeter()
		}
		runner.Reset(scripts[i])
		res, err := runner.Run(bodies[i])
		if err != nil {
			return 0, 0, 0, err
		}
		if res.Steps != r.steps {
			return 0, 0, 0, fmt.Errorf("replayed run took %d steps, recorded %d", res.Steps, r.steps)
		}
		if i > 0 {
			steps += res.Steps
		}
	}
	wall, _, allocs := m.stop()
	return steps, wall, allocs, nil
}
