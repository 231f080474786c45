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
	"repro/internal/profdiff"
	"repro/internal/sample"
	"repro/internal/sched"
	"repro/internal/solvability"
	"repro/internal/stats"
	"repro/internal/tasks"
	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/universal"
	"repro/internal/vecmath"
)

// Task algebra (internal/gsb).
type (
	// Spec describes an <n,m,l,u>-GSB task (possibly asymmetric).
	Spec = gsb.Spec
	// Vec is an integer vector (counting and kernel vectors).
	Vec = vecmath.Vec
	// HasseEdge is an edge of the strict-inclusion diagram (Figure 1).
	HasseEdge = gsb.HasseEdge
)

// Spec constructors and named instances (Section 3).
var (
	NewSym               = gsb.NewSym
	NewAsym              = gsb.NewAsym
	Election             = gsb.Election
	WSB                  = gsb.WSB
	KWSB                 = gsb.KWSB
	Renaming             = gsb.Renaming
	PerfectRenaming      = gsb.PerfectRenaming
	KSlot                = gsb.KSlot
	BoundedHomonymous    = gsb.BoundedHomonymous
	Hardest              = gsb.Hardest
	BalancedKernelVector = gsb.BalancedKernelVector
)

// Family structure (Section 4).
var (
	Family          = gsb.Family
	SynonymClasses  = gsb.SynonymClasses
	CanonicalFamily = gsb.CanonicalFamily
	Hasse           = gsb.Hasse
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
	// ProcessPanics is the panic value Run re-raises when protocol code
	// panicked: one ProcessPanic per panicking process, in index order,
	// each carrying the original panic value verbatim.
	ProcessPanics = sched.ProcessPanics
	ProcessPanic  = sched.ProcessPanic
)

// Partial-order reduction levels (ExploreOptions.Reduction).
const (
	ReductionNone      = sched.ReductionNone
	ReductionSleepSets = sched.ReductionSleepSets
	ReductionSleepMemo = sched.ReductionSleepMemo
)

// Memory models (ExploreOptions.Model; docs/models.md): register and
// snapshot semantics as a named, first-class execution axis. The default
// atomic model is bit-identical to the pre-registry engine; the weak
// models express their weakness as extra scheduler-visible decision
// points, so runs stay pure functions of (model, schedule).
const (
	ModelAtomic        = sched.ModelAtomic
	ModelRegular       = sched.ModelRegular
	ModelSafe          = sched.ModelSafe
	ModelStaleSnapshot = sched.ModelStaleSnapshot
)

// Crash adversaries (ExploreOptions.Adversary; docs/models.md): the
// strategy generating per-run crash policies in seeded sweeps.
const (
	AdversaryUniformCrash = sched.AdversaryUniformCrash
	AdversaryTResilient   = sched.AdversaryTResilient
	AdversaryAdaptive     = sched.AdversaryAdaptive
)

var (
	// MemModels and Adversaries list the registered names (default
	// first); MemModelByName and AdversaryByName resolve a name, with an
	// error naming the registered set on an unknown one.
	MemModels       = sched.MemModels
	MemModelByName  = sched.MemModelByName
	Adversaries     = sched.Adversaries
	AdversaryByName = sched.AdversaryByName
	// WithModel runs a runner's shared objects under a resolved memory
	// model; RunUnder / RunVerifiedUnder are the name-resolving one-shot
	// forms.
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
	// WithMaxSteps overrides a runner's per-run step budget; WithReuse
	// keeps its process coroutines parked between runs (Reset re-arms it
	// per run; the caller must Close), which is the zero-allocation path
	// the exploration engines use.
	WithMaxSteps         = sched.WithMaxSteps
	WithReuse            = sched.WithReuse
	DefaultIDs           = sched.DefaultIDs
	NewRoundRobinPolicy  = sched.NewRoundRobin
	NewRandomPolicy      = sched.NewRandom
	NewRandomCrashPolicy = sched.NewRandomCrash
	NewScriptPolicy      = sched.NewScript
	ScriptFromSchedule   = sched.ScriptFromSchedule
	// Explore model-checks a protocol over every failure-free schedule
	// (or a randomized crash sweep) with a work-stealing worker pool; it
	// is one unbounded slice of the engine a campaign runs in checkpointed
	// slices. ExploreSequential is the historical depth-first baseline it
	// is differentially tested against.
	Explore           = sched.Explore
	ExploreCrashes    = sched.ExploreCrashes
	ExploreSequential = sched.ExploreSequential
	// DeriveRunSeed is the single definition of per-run seed derivation
	// (seed→schedule reproducibility) shared by the crash sweep and the
	// samplers (SampleVerified), which makes any reported failing run
	// replayable.
	DeriveRunSeed = sched.DeriveRunSeed
	// NewPCTPolicy builds the standalone PCT scheduling policy (random
	// priorities + depth-1 seeded change points), e.g. to replay a
	// failing PCT run from its derived seed.
	NewPCTPolicy = sample.NewPCT
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
	// CampaignReport is a campaign outcome (final for a single shard,
	// provisional per shard until MergeCampaigns combines the set).
	CampaignReport = campaign.Report
	// CampaignHeader is the self-describing first line of a snapshot
	// file: identity, options hash, progress, and the result once done.
	CampaignHeader = campaign.Header
	// CampaignMode names a campaign's verification mode.
	CampaignMode = campaign.Mode
	// CampaignObserver is the live observability endpoint of a running
	// campaign shard: it owns the StatsRegistry the engines publish into
	// and renders it as Prometheus /metrics, a JSON /status endpoint and
	// gsbprogress/v1 NDJSON records (cmd/gsbcampaign's -metrics and
	// -progress flags; docs/metrics.md).
	CampaignObserver = campaign.Observer
	// CampaignStatusRecord is one live progress observation — the /status
	// response body (schema gsbstatus/v1) and the NDJSON progress record
	// (schema gsbprogress/v1).
	CampaignStatusRecord = campaign.StatusRecord
	// StatsRegistry is the engine observability registry
	// (internal/stats): named atomic counters/gauges/histograms with
	// zero-allocation publishing, Prometheus rendering, and serializable
	// snapshots that campaigns checkpoint and merge. Attach one via
	// ExploreOptions.Stats (or use a CampaignObserver's).
	StatsRegistry = stats.Registry
	// StatsSnapshot is a serializable point-in-time copy of a registry:
	// carried in campaign checkpoints and final reports.
	StatsSnapshot = stats.Snapshot
	// TimelineRecord is one gsbtimeline/v1 coverage-timeline sample: a
	// snapshot of the cumulative campaign counters taken at each
	// checkpoint write and appended to the snapshot's NDJSON timeline
	// sidecar (<snapshot>.timeline). Kill/resume extends one continuous
	// series; MergeTimelines interleaves finished shard sidecars.
	TimelineRecord = timeline.Record
)

// Campaign modes (derived from ExploreOptions by CampaignModeOf).
const (
	CampaignExhaustive = campaign.ModeExhaustive
	CampaignPOR        = campaign.ModePOR
	CampaignPORMemo    = campaign.ModePORMemo
	CampaignWalk       = campaign.ModeWalk
	CampaignPCT        = campaign.ModePCT
	CampaignCrash      = campaign.ModeCrash
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
	CampaignStatus = campaign.Status
	CampaignModeOf = campaign.ModeOf
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
	SelectProtocol = harness.SelectProtocol
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
	// FleetCoordinator is the control plane (an http.Handler);
	// FleetWorker a campaign-running agent.
	FleetCoordinator = fleet.Coordinator
	FleetWorker      = fleet.Worker
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

// Profile-diff regression explanations (internal/profdiff): a minimal
// stdlib-only pprof profile.proto reader and per-function flat-time
// differ, so the gsbbench -compare gate can explain a regression by
// naming the hot-path functions whose flat share moved.
type (
	// PprofProfile is the flat-value view of one parsed pprof profile.
	PprofProfile = profdiff.Profile
	// ProfileDelta is one function's flat-share change between two
	// profiles (positive Diff: the function grew).
	ProfileDelta = profdiff.Delta
)

var (
	// ParseProfile reads a pprof CPU profile (gzipped or bare proto);
	// DiffProfiles compares per-function flat shares largest-move-first;
	// FormatProfileDiff renders the top-n deltas as an aligned table; and
	// ExplainProfileDiff is the one-call file-to-table form gsbbench
	// prints under a failed regression gate.
	ParseProfile       = profdiff.ParseFile
	DiffProfiles       = profdiff.Diff
	FormatProfileDiff  = profdiff.Format
	ExplainProfileDiff = profdiff.Explain
)

// Shared-memory objects (internal/mem).
var (
	NewTaskBox         = mem.NewTaskBox
	PerfectRenamingBox = mem.PerfectRenamingBox
	SlotBox            = mem.SlotBox
	WSBBox             = mem.WSBBox
	// Adaptive oracle objects contrasted with GSB tasks in Section 1.
	NewKTAS            = mem.NewKTAS
	NewKLeaderElection = mem.NewKLeaderElection
	// Agreement-task oracles (the non-GSB foil: outputs relate to inputs).
	NewConsensus     = mem.NewConsensus
	NewKSetAgreement = mem.NewKSetAgreement
)

// Protocols (internal/tasks).
type (
	// Solver is a one-shot task protocol.
	Solver = tasks.Solver
	// SolverFunc adapts a function to Solver.
	SolverFunc = tasks.SolverFunc
)

var (
	Run = tasks.Run
	// RunOn / RunVerifiedOn execute on a caller-owned (typically
	// reusable) runner re-armed per call — the zero-allocation form of
	// Run / RunVerified for seed sweeps and other many-run loops.
	RunOn                          = tasks.RunOn
	RunVerifiedOn                  = tasks.RunVerifiedOn
	RunVerified                    = tasks.RunVerified
	RunUnder                       = tasks.RunUnder
	RunVerifiedUnder               = tasks.RunVerifiedUnder
	ExploreVerified                = tasks.ExploreVerified
	SampleVerified                 = tasks.SampleVerified
	SolverBody                     = tasks.Body
	NewSnapshotRenaming            = tasks.NewSnapshotRenaming
	NewGridRenaming                = tasks.NewGridRenaming
	NewISRenaming                  = tasks.NewISRenaming
	NewFetchIncRenaming            = tasks.NewFetchIncRenaming
	NewTASRenaming                 = tasks.NewTASRenaming
	NewBoxSolver                   = tasks.NewBoxSolver
	NewElectionFromPerfectRenaming = tasks.NewElectionFromPerfectRenaming
	NewSlotRenaming                = tasks.NewSlotRenaming
	NewWSBFromRenaming             = tasks.NewWSBFromRenaming
	NewRenamingFromWSB             = tasks.NewRenamingFromWSB
	NewKWSBFromRenaming            = tasks.NewKWSBFromRenaming
	NewWSBFromSlotTask             = tasks.NewWSBFromSlotTask
	NewIDReducer                   = tasks.NewIDReducer
	NewUniversalConstruction       = universal.New
)

// Solvability analysis (Theorems 9-11).
type (
	// SolvabilityReport classifies one task.
	SolvabilityReport = solvability.Report
	// SolvabilityStatus is the classification outcome.
	SolvabilityStatus = solvability.Status
	// DecisionFunc is a communication-free algorithm (Theorem 9).
	DecisionFunc = nocomm.DecisionFunc
)

// Solvability statuses.
const (
	StatusInfeasible  = solvability.StatusInfeasible
	StatusTrivial     = solvability.StatusTrivial
	StatusSolvable    = solvability.StatusSolvable
	StatusNotSolvable = solvability.StatusNotSolvable
	StatusUnknown     = solvability.StatusUnknown
)

var (
	Classify            = solvability.Classify
	FamilyReport        = solvability.FamilyReport
	BinomialGCD         = solvability.BinomialGCD
	BinomialsPrime      = solvability.BinomialsPrime
	GCDTable            = solvability.GCDTable
	NoCommSolvable      = nocomm.Solvable
	NoCommBuild         = nocomm.Build
	NoCommVerify        = nocomm.Verify
	IdentityRenamingMap = nocomm.IdentityRenaming
)

// Topology certificates (Theorem 11).
type (
	// IISComplex is the iterated-immediate-snapshot protocol complex.
	IISComplex = topology.Complex
)

var (
	BuildIIS           = topology.BuildIIS
	BoundedRoundsCheck = topology.Solvable
	// BoundedRoundsCheckSAT is the CDCL-backed variant: it exhausts
	// instances (e.g. WSB) whose constraints defeat plain backtracking.
	BoundedRoundsCheckSAT = topology.SolvableSAT
)

// Paper artifacts (Table 1, Figure 1, Figure 2) and the exhaustive
// exploration experiment.
var (
	Table1             = harness.Table1
	Figure1Text        = harness.Figure1Text
	Figure1DOT         = harness.Figure1DOT
	Figure2Experiment  = harness.Figure2Experiment
	Figure2Text        = harness.Figure2Text
	ExploreExperiment  = harness.ExploreExperiment
	ExploreText        = harness.ExploreText
	SampleExperiment   = harness.SampleExperiment
	SampleText         = harness.SampleText
	CampaignExperiment = harness.CampaignExperiment
	CampaignText       = harness.CampaignText
	SolvabilityText    = harness.SolvabilityText
	GCDTableText       = harness.GCDTableText
	// ModelMatrixExperiment diffs GSB solvability across the registered
	// memory models and adversaries (docs/models.md).
	ModelMatrixExperiment = harness.ModelMatrixExperiment
	ModelMatrixText       = harness.ModelMatrixText
)

// Message-passing baselines (internal/msgnet, internal/luby).
type (
	// Graph is an undirected message-passing topology.
	Graph = msgnet.Graph
	// NetAdversary is the seeded message adversary: per-directed-edge
	// loss, delay and reordering between synchronous rounds
	// (docs/models.md). Executions are deterministic per seed.
	NetAdversary = msgnet.NetAdversary
)

var (
	NewGraph       = msgnet.NewGraph
	Ring           = msgnet.Ring
	Complete       = msgnet.Complete
	GNP            = msgnet.GNP
	LubyMIS        = luby.MIS
	VerifyMIS      = luby.VerifyMIS
	LubyColoring   = luby.Coloring
	VerifyColoring = luby.VerifyColoring
	RingThreeColor = luby.RingThreeColor
	// RunAdversarial executes a msgnet protocol under a message
	// adversary; Synchronize wraps fault-free protocols so they tolerate
	// it (retransmission repairs loss; buffering absorbs delay and
	// reordering). The *Under variants are the baselines composed with
	// both: the symmetry-breaking algorithms running under faults.
	RunAdversarial      = msgnet.RunAdversarial
	Synchronize         = msgnet.Synchronize
	LubyMISUnder        = luby.MISUnder
	LubyColoringUnder   = luby.ColoringUnder
	RingThreeColorUnder = luby.RingThreeColorUnder
)
