package repro

import (
	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/gsb"
	"repro/internal/harness"
	"repro/internal/luby"
	"repro/internal/mem"
	"repro/internal/msgnet"
	"repro/internal/nocomm"
	"repro/internal/sample"
	"repro/internal/sched"
	"repro/internal/solvability"
	"repro/internal/stats"
	"repro/internal/tasks"
	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/universal"
)

// Task algebra (internal/gsb).
type (
	// Spec describes an <n,m,l,u>-GSB task (possibly asymmetric).
	Spec = gsb.Spec
)

// Spec constructors and named instances (Section 3).
var (
	NewSym          = gsb.NewSym
	NewAsym         = gsb.NewAsym
	Election        = gsb.Election
	WSB             = gsb.WSB
	Renaming        = gsb.Renaming
	PerfectRenaming = gsb.PerfectRenaming
	KSlot           = gsb.KSlot
	Hardest         = gsb.Hardest
)

// Family structure (Section 4).
var (
	Family         = gsb.Family
	SynonymClasses = gsb.SynonymClasses
)

// Execution engine (internal/sched): the asynchronous wait-free
// shared-memory model with a pluggable adversary.
type (
	// Proc is the per-process handle inside a run.
	Proc = sched.Proc
	// Policy schedules steps and injects crashes.
	Policy = sched.Policy
	// RunResult records outputs, crashes and the schedule of a run.
	RunResult = sched.Result
	// ExploreOptions configures the parallel exploration engine: worker
	// count, run/step budgets, the crash-injection sweep mode, and the
	// partial-order reduction.
	ExploreOptions = sched.ExploreOptions
	// Reduction selects the partial-order reduction applied to
	// exhaustive exploration (ReductionNone, ReductionSleepSets,
	// ReductionSleepMemo).
	Reduction = sched.Reduction
	// SampleMode selects the statistical sampler executed when
	// ExploreOptions.SampleRuns > 0 (SampleWalk, SamplePCT).
	SampleMode = sched.SampleMode
	// SampleReport is the outcome of a statistical sampling batch:
	// runs executed, distinct-trace-class coverage, and the replayable
	// smallest failing run (index + derived seed).
	SampleReport = sample.Report
	// ProcessPanics is the panic value a run re-raises when protocol code
	// panicked: one entry per panicking process, in index order, each
	// carrying the process index and the original panic value verbatim.
	ProcessPanics = sched.ProcessPanics
)

// Partial-order reduction levels (ExploreOptions.Reduction).
const (
	ReductionNone      = sched.ReductionNone
	ReductionSleepSets = sched.ReductionSleepSets
	ReductionSleepMemo = sched.ReductionSleepMemo
)

// ModelAtomic is the default memory model (ExploreOptions.Model;
// docs/models.md), bit-identical to the pre-registry engine. The weak
// models (regular, safe, stale-snapshot) are selected by name and express
// their weakness as extra scheduler-visible decision points, so runs stay
// pure functions of (model, schedule).
const ModelAtomic = sched.ModelAtomic

// AdversaryUniformCrash is the default crash adversary
// (ExploreOptions.Adversary; docs/models.md): the strategy generating
// per-run crash policies in seeded sweeps. The others (t-resilient,
// adaptive) are selected by name.
const AdversaryUniformCrash = sched.AdversaryUniformCrash

var (
	// MemModelByName and AdversaryByName resolve a registry name, with
	// an error naming the registered set on an unknown one.
	MemModelByName  = sched.MemModelByName
	AdversaryByName = sched.AdversaryByName
	// WithModel runs a runner's shared objects under a resolved memory
	// model; pass it to NewRunner, or to RunVerified for one run.
	WithModel = sched.WithModel
)

// Statistical samplers (ExploreOptions.SampleMode): the uniform random
// walk over the pending set, and probabilistic concurrency testing
// (random priorities plus Depth-1 seeded priority-change points, with the
// classic 1/(n*k^(Depth-1)) bug-depth detection guarantee).
const (
	SampleWalk = sched.SampleWalk
	SamplePCT  = sched.SamplePCT
)

var (
	NewRunner = sched.NewRunner
	// WithReuse keeps a runner's process coroutines parked between runs
	// (Reset re-arms it per run; the caller must Close), which is the
	// zero-allocation path the exploration engines use.
	WithReuse            = sched.WithReuse
	DefaultIDs           = sched.DefaultIDs
	NewRoundRobinPolicy  = sched.NewRoundRobin
	NewRandomPolicy      = sched.NewRandom
	NewRandomCrashPolicy = sched.NewRandomCrash
	ScriptFromSchedule   = sched.ScriptFromSchedule
	// Explore model-checks a protocol over every failure-free schedule
	// (or a randomized crash sweep) with a work-stealing worker pool; it
	// is one unbounded slice of the engine a campaign runs in checkpointed
	// slices.
	Explore = sched.Explore
	// DeriveRunSeed is the single definition of per-run seed derivation
	// (seed→schedule reproducibility) shared by the crash sweep and the
	// samplers (SampleVerified), which makes any reported failing run
	// replayable.
	DeriveRunSeed = sched.DeriveRunSeed
	// CanonicalTraceHash hashes a schedule's Foata normal form under an
	// independence relation: equal hashes identify the Mazurkiewicz
	// trace class. The sampling subsystem counts coverage with it.
	CanonicalTraceHash = sched.CanonicalTraceHash
	// ErrExplorationBudget reports a schedule tree larger than MaxRuns.
	ErrExplorationBudget = sched.ErrExplorationBudget
	// ErrInvalidExploreOptions reports semantically unusable
	// ExploreOptions (e.g. a crash probability outside [0,1]).
	ErrInvalidExploreOptions = sched.ErrInvalidOptions
	// ErrScheduleDiverged reports a prefix replay that found the
	// protocol behaving non-deterministically; exploration surfaces it
	// as a per-run failure instead of a panic.
	ErrScheduleDiverged = sched.ErrScheduleDiverged
	// OpIndependent is the commutation relation partial-order reduction
	// derives from the "<object>.<kind>" op-naming contract.
	OpIndependent = sched.OpIndependent
	// Timeline and ScheduleSummary render recorded schedules for humans.
	Timeline        = sched.Timeline
	ScheduleSummary = sched.Summary
)

// Durable verification campaigns (internal/campaign): long explorations,
// sampling batches and crash sweeps that checkpoint their entire engine
// state to a versioned snapshot file, resume exactly after a kill, split
// deterministically across shards, and merge shard snapshots into the
// report an uninterrupted single process produces. cmd/gsbcampaign is the
// CLI form (start/resume/status/merge, checkpoint-on-signal).
type (
	// CampaignConfig describes one campaign (or one shard of one):
	// task, solver, options, shard index/count, checkpoint interval and
	// snapshot path.
	CampaignConfig = campaign.Config
	// CampaignRequest is a campaign in request form (protocol, n, mode
	// name and its parameters): the one mapping from a mode name to
	// options and a CampaignConfig, shared by cmd/gsbcampaign and the
	// fleet.
	CampaignRequest = campaign.Request
	// CampaignReport is a campaign outcome (final for a single shard,
	// provisional per shard until MergeCampaigns combines the set).
	CampaignReport = campaign.Report
	// CampaignHeader is the self-describing first line of a snapshot
	// file: identity, options hash, progress, and the result once done.
	CampaignHeader = campaign.Header
	// CampaignObserver is the live observability endpoint of a running
	// campaign shard: it owns the StatsRegistry the engines publish into
	// and renders it as Prometheus /metrics, a JSON /status endpoint and
	// gsbprogress/v1 NDJSON records (cmd/gsbcampaign's -metrics and
	// -progress flags; docs/metrics.md).
	CampaignObserver = campaign.Observer
	// StatsRegistry is the engine observability registry
	// (internal/stats): named atomic counters/gauges/histograms with
	// zero-allocation publishing, Prometheus rendering, and serializable
	// snapshots that campaigns checkpoint and merge. Attach one via
	// ExploreOptions.Stats (or use a CampaignObserver's).
	StatsRegistry = stats.Registry
	// TimelineRecord is one gsbtimeline/v1 coverage-timeline sample: a
	// snapshot of the cumulative campaign counters taken at each
	// checkpoint write and appended to the snapshot's NDJSON timeline
	// sidecar (<snapshot>.timeline). Kill/resume extends one continuous
	// series; MergeTimelines interleaves finished shard sidecars.
	TimelineRecord = timeline.Record
)

var (
	// RunCampaign starts a fresh campaign shard and drives it through
	// checkpointed slices to completion (or to a checkpoint-on-cancel
	// pause: ErrCampaignPaused). ResumeCampaign continues from the
	// snapshot, failing loudly (ErrCampaignOptionsMismatch) if the
	// campaign-defining options changed. MergeCampaigns combines the
	// finished shard snapshots into the single-process report, and
	// CampaignStatus reads a snapshot's header without its payload.
	RunCampaign    = campaign.Start
	ResumeCampaign = campaign.Resume
	MergeCampaigns = campaign.Merge
	CampaignStatus = campaign.ReadHeader
	// CampaignETASec is the remaining-time estimate every campaign ETA
	// uses (0 when none is honest); CampaignHeader.ShardTotal is its
	// usual total.
	CampaignETASec = campaign.ETASec
	// NewStatsRegistry creates an empty observability registry;
	// NewCampaignObserver an observer with its own registry.
	NewStatsRegistry    = stats.New
	NewCampaignObserver = campaign.NewObserver
	// ErrCampaignPaused marks an interrupted-but-checkpointed campaign;
	// ErrCampaignOptionsMismatch a resume/merge whose options do not
	// match the snapshot's.
	ErrCampaignPaused          = campaign.ErrPaused
	ErrCampaignOptionsMismatch = campaign.ErrOptionsMismatch
	// VerifyResult is the per-run acceptance rule every verification
	// mode shares (complete runs: legal output vector; crashed runs:
	// legal completable prefix).
	VerifyResult = tasks.VerifyResult
	// SelectProtocol maps a CLI protocol name to its task spec and
	// solver constructor — the registry cmd/gsbrun and cmd/gsbcampaign
	// share.
	SelectProtocol = campaign.SelectProtocol
	// Timeline sidecar access (internal/timeline): TimelineSidecarPath
	// maps a snapshot path to its NDJSON timeline file, ReadTimeline
	// loads a sidecar (tolerating a torn tail), MergeTimelines
	// interleaves shard series by (sample index, shard), and
	// WriteTimeline atomically writes a merged series — what
	// `gsbcampaign merge` uses to emit one campaign-wide timeline.
	TimelineSidecarPath = timeline.SidecarPath
	ReadTimeline        = timeline.Read
	MergeTimelines      = timeline.Merge
	WriteTimeline       = timeline.WriteFile
)

// Verification fleet (internal/fleet): the distributed form of a
// sharded campaign. A coordinator accepts submissions over the
// gsbfleet/v1 HTTP/JSON API, deals shards to registered workers,
// collects checkpoint snapshot uploads, re-deals the shard of a dead or
// stale worker (the replacement resumes from the last uploaded
// checkpoint), and auto-merges the finished shard set into a report
// equal to an uninterrupted single-process run. cmd/gsbfleet is the CLI;
// docs/fleet.md the guide.
type (
	// FleetSubmission is the body of POST /v1/campaigns — a campaign
	// plus its shard count.
	FleetSubmission = fleet.Submission
	// FleetCoordinatorConfig/FleetWorkerConfig configure the two halves.
	FleetCoordinatorConfig = fleet.CoordinatorConfig
	FleetWorkerConfig      = fleet.WorkerConfig
	// FleetCoordinator is the control plane (an http.Handler).
	FleetCoordinator = fleet.Coordinator
	// FleetClient is the gsbfleet/v1 client: one method per route.
	FleetClient = fleet.Client
	// FleetCampaignStatus / FleetStatus are the live status views.
	FleetCampaignStatus = fleet.CampaignStatus
	FleetStatus         = fleet.FleetStatus
)

var (
	NewFleetCoordinator = fleet.NewCoordinator
	NewFleetWorker      = fleet.NewWorker
)

// FleetSchema tags every gsbfleet/v1 API body; FleetStatusSchema the
// fleet-level /status response.
const (
	FleetSchema       = fleet.Schema
	FleetStatusSchema = fleet.FleetStatusSchema
)

// Shared-memory objects (internal/mem).
var (
	NewTaskBox = mem.NewTaskBox
	SlotBox    = mem.SlotBox
)

// Protocols (internal/tasks).
type (
	// Solver is a one-shot task protocol.
	Solver = tasks.Solver
)

var (
	RunVerified              = tasks.RunVerified
	ExploreVerified          = tasks.ExploreVerified
	SampleVerified           = tasks.SampleVerified
	SolverBody               = tasks.Body
	NewTASRenaming           = tasks.NewTASRenaming
	NewBoxSolver             = tasks.NewBoxSolver
	NewSlotRenaming          = tasks.NewSlotRenaming
	NewWSBFromRenaming       = tasks.NewWSBFromRenaming
	NewIDReducer             = tasks.NewIDReducer
	NewUniversalConstruction = universal.New
)

// Solvability analysis (Theorems 9-11): the statuses Classify reports.
const (
	StatusTrivial     = solvability.StatusTrivial
	StatusSolvable    = solvability.StatusSolvable
	StatusNotSolvable = solvability.StatusNotSolvable
)

var (
	Classify       = solvability.Classify
	FamilyReport   = solvability.FamilyReport
	NoCommSolvable = nocomm.Solvable
	NoCommBuild    = nocomm.Build
	NoCommVerify   = nocomm.Verify
)

// Topology certificates (Theorem 11): BoundedRoundsCheck reports whether
// a comparison-based protocol solves a task in the given number of IIS
// rounds, by an exhaustive CDCL search for a decision map.
var BoundedRoundsCheck = topology.Solvable

// Paper artifacts (Table 1, Figure 1, Figure 2) and the exhaustive
// exploration experiment.
var (
	Table1            = harness.Table1
	Figure1Text       = harness.Figure1Text
	Figure1DOT        = harness.Figure1DOT
	Figure2Experiment = harness.Figure2Experiment
	Figure2Text       = harness.Figure2Text
	ExploreExperiment = harness.ExploreExperiment
	ExploreText       = harness.ExploreText
	SampleExperiment  = harness.SampleExperiment
	SampleText        = harness.SampleText
	SolvabilityText   = harness.SolvabilityText
	GCDTableText      = harness.GCDTableText
	// ModelMatrixExperiment diffs GSB solvability across the registered
	// memory models and adversaries (docs/models.md).
	ModelMatrixExperiment = harness.ModelMatrixExperiment
	ModelMatrixText       = harness.ModelMatrixText
)

// Message-passing baselines (internal/msgnet, internal/luby).
type (
	// NetAdversary is the seeded message adversary: per-directed-edge
	// loss, delay and reordering between synchronous rounds
	// (docs/models.md). Executions are deterministic per seed.
	NetAdversary = msgnet.NetAdversary
)

var (
	Ring           = msgnet.Ring
	GNP            = msgnet.GNP
	LubyMIS        = luby.MIS
	VerifyMIS      = luby.VerifyMIS
	LubyColoring   = luby.Coloring
	VerifyColoring = luby.VerifyColoring
	RingThreeColor = luby.RingThreeColor
)
