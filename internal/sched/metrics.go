package sched

import "repro/internal/stats"

// This file is the engine's side of the observability pipeline
// (internal/stats, docs/metrics.md): one struct of pre-resolved metric
// handles, created once per explorer or seeded pool from
// ExploreOptions.Stats. Call sites publish straight through the handles:
// a nil handle (ExploreOptions.Stats nil) does nothing, so the hot path
// pays one predictable branch when observability is off and one atomic
// add when it is on — never a registry lookup, never an allocation.

// Engine metric names. The campaign layer (internal/campaign) registers
// the checkpoint metrics; docs/metrics.md is the reference for all of
// them.
const (
	// MetricRuns counts run-budget slots executed: verified schedules,
	// sleep-set probe runs, and seeded sampler/crash-sweep runs.
	MetricRuns = "gsb_runs_total"
	// MetricSchedules counts schedules verified by exhaustive
	// exploration — one per Mazurkiewicz trace class under reduction.
	MetricSchedules = "gsb_schedules_total"
	// MetricSteals counts frontier items taken from another worker's
	// lane. Steal opportunities depend on worker interleaving, so this
	// counter is never deterministic across runs.
	MetricSteals = "gsb_steals_total"
	// MetricAborts counts sleep-set probe runs aborted by partial-order
	// reduction (ErrRunAborted): budget slots that verified no new
	// schedule but seeded sibling branches.
	MetricAborts = "gsb_aborts_total"
	// MetricBlockedBranches counts children the ReductionSleepSets walk
	// did not branch into because a process asleep on its decide would
	// block every run below them. Each would have cost at least one
	// aborted probe under ReductionSleepMemo.
	MetricBlockedBranches = "gsb_blocked_branches_total"
	// MetricPrunes counts frontier prefixes dropped against the
	// lexicographic violation bound. Pruning races discovery of the
	// bound, so this counter is only deterministic on violation-free
	// explorations (where it stays 0).
	MetricPrunes = "gsb_prunes_total"
	// MetricFrontierDepth gauges the exploration frontier: schedule
	// prefixes queued or in flight.
	MetricFrontierDepth = "gsb_frontier_depth"
	// MetricAdversaryEvents counts adversary-injected fault events:
	// crashes injected by the crash adversaries (seeded sweeps), and
	// messages dropped, delayed or reordered by the message adversary
	// (internal/msgnet publishes into the same name). Cumulative across
	// kill/resume and summed by shard merges like every counter.
	MetricAdversaryEvents = "gsb_adversary_events_total"
)

// engineMetrics carries the engine's resolved metric handles. Resolved
// from a nil registry every handle is nil, and publishing through a nil
// handle does nothing, so call sites need no guards.
type engineMetrics struct {
	runs      *stats.Counter
	schedules *stats.Counter
	steals    *stats.Counter
	aborts    *stats.Counter
	blocked   *stats.Counter
	prunes    *stats.Counter
	advEvents *stats.Counter
	frontier  *stats.Gauge
}

// newEngineMetrics resolves the engine's handles in r (all nil when r is
// nil: observability off).
func newEngineMetrics(r *stats.Registry) engineMetrics {
	return engineMetrics{
		runs:      r.Counter(MetricRuns, "Engine runs executed (verified schedules, POR probe runs, seeded sampler and crash-sweep runs)."),
		schedules: r.Counter(MetricSchedules, "Schedules verified by exhaustive exploration (one per Mazurkiewicz trace class under reduction)."),
		steals:    r.Counter(MetricSteals, "Frontier work items stolen between exploration workers."),
		aborts:    r.Counter(MetricAborts, "Sleep-set probe runs aborted by partial-order reduction."),
		blocked:   r.Counter(MetricBlockedBranches, "Children the sleep-set walk did not branch into: a process asleep on its decide blocks every run below them."),
		prunes:    r.Counter(MetricPrunes, "Frontier prefixes pruned against the lexicographic violation bound."),
		advEvents: r.Counter(MetricAdversaryEvents, "Adversary-injected fault events: crashes (crash adversaries) and message drops/delays/reorders (message adversary)."),
		frontier:  r.Gauge(MetricFrontierDepth, "Exploration frontier size: schedule prefixes queued or in flight."),
	}
}
