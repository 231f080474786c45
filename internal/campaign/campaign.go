package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/gsb"
	"repro/internal/sample"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tasks"
	"repro/internal/timeline"
)

// Mode names a campaign's verification mode. It is derived from the
// exploration options (ModeOf), not chosen independently, so a snapshot's
// mode always agrees with its options.
type Mode string

const (
	ModeExhaustive Mode = "exhaustive"
	ModePOR        Mode = "por"
	ModePORMemo    Mode = "por-memo"
	ModeWalk       Mode = "sample-walk"
	ModePCT        Mode = "sample-pct"
	ModeCrash      Mode = "crash-sweep"
)

// ModeOf derives the campaign mode selected by opts.
func ModeOf(opts sched.ExploreOptions) Mode {
	switch {
	case opts.CrashRuns > 0:
		return ModeCrash
	case opts.SampleRuns > 0 && opts.SampleMode == sched.SamplePCT:
		return ModePCT
	case opts.SampleRuns > 0:
		return ModeWalk
	case opts.Reduction == sched.ReductionSleepMemo:
		return ModePORMemo
	case opts.Reduction == sched.ReductionSleepSets:
		return ModePOR
	default:
		return ModeExhaustive
	}
}

// family groups modes by engine: the enumerating explore/POR engine, the
// sampling batch, or the crash sweep.
func (m Mode) family() string {
	switch m {
	case ModeExhaustive, ModePOR, ModePORMemo:
		return "explore"
	case ModeWalk, ModePCT:
		return "sample"
	case ModeCrash:
		return "crash"
	}
	return "unknown"
}

// ErrPaused is returned (wrapped) by Start and Resume when the campaign
// was interrupted — context canceled, typically by a signal — after
// writing a checkpoint: the snapshot on disk resumes exactly where the
// campaign stopped.
var ErrPaused = errors.New("campaign: paused at a checkpoint (resume from the snapshot)")

// DefaultCheckpointEvery is the checkpoint interval (runs between
// snapshot writes) used when Config.CheckpointEvery is zero.
const DefaultCheckpointEvery = 5000

// Config describes one campaign (or one shard of one).
type Config struct {
	// Protocol is a free-form label recorded in snapshot headers;
	// cmd/gsbcampaign uses it to rebuild the solver on resume and merge.
	Protocol string
	// Spec is the task the campaign verifies every run against; Build
	// constructs a fresh solver per run, exactly as for ExploreVerified.
	Spec  gsb.Spec
	IDs   []int
	Opts  sched.ExploreOptions
	Build func(n int) tasks.Solver
	// Shard/Of select one shard of an Of-way campaign; zero values mean
	// the whole campaign (shard 0 of 1). Sharding is deterministic:
	// every shard derives its own slice of the work without
	// coordination, and Merge combines the finished snapshots.
	Shard, Of int
	// CheckpointEvery is the number of runs between checkpoint writes
	// (0: DefaultCheckpointEvery). Smaller means less work lost on a
	// kill and more write overhead.
	CheckpointEvery int
	// Path is the snapshot file.
	Path string
	// Force lets Start overwrite an existing snapshot file.
	Force bool
	// OnCheckpoint, when set, observes every snapshot write (the header
	// just written). Tests use it to kill campaigns at exact checkpoint
	// boundaries; the CLI uses it for progress logging.
	OnCheckpoint func(Header)
	// Observer, when set, is the campaign's live observability endpoint
	// (see NewObserver): the engines publish into its registry, and its
	// Handler/Progress views report live rates, ETA and checkpoint age.
	// When nil and Opts.Stats is also nil, the campaign still keeps a
	// private registry so checkpoints carry cumulative counters.
	Observer *Observer
}

// timelinePath is the campaign's gsbtimeline/v1 sidecar file
// (timeline.SidecarPath of Path). The timeline is only kept for observed
// campaigns: its timestamps belong to the observer layer.
func (c *Config) timelinePath() string {
	return timeline.SidecarPath(c.Path)
}

// Campaign-layer metric names (the engine-layer ones are the sched Metric
// constants; docs/metrics.md is the reference for all of them).
const (
	// MetricCheckpointWrites counts snapshot writes, cumulative across
	// resumed lives like every counter.
	MetricCheckpointWrites = "gsb_checkpoint_writes_total"
	// MetricCheckpointSeconds is the snapshot write latency histogram
	// (encode, write, sync, rename). The timed write happens after the
	// registry is snapshotted into the checkpoint, so write N's latency
	// first appears in checkpoint N+1 (and live on the endpoints).
	MetricCheckpointSeconds = "gsb_checkpoint_write_seconds"
	// MetricCheckpointEncodeSeconds is the encode part of each write:
	// rendering header and payload to bytes, before any file I/O.
	MetricCheckpointEncodeSeconds = "gsb_checkpoint_encode_seconds"
	// MetricCheckpointBytes gauges the size of the last snapshot written.
	MetricCheckpointBytes = "gsb_checkpoint_bytes"
)

// ensureStats resolves the registry the campaign's engines publish into:
// the caller's (Opts.Stats), the observer's, or a fresh private one —
// checkpoints carry cumulative counters either way.
func (c *Config) ensureStats() *stats.Registry {
	if c.Opts.Stats == nil && c.Observer != nil {
		c.Opts.Stats = c.Observer.Registry()
	}
	if c.Opts.Stats == nil {
		c.Opts.Stats = stats.New()
	}
	return c.Opts.Stats
}

func (c *Config) normalize() error {
	if c.Of <= 0 {
		c.Of = 1
	}
	if c.Shard < 0 || c.Shard >= c.Of {
		return fmt.Errorf("campaign: shard %d outside [0, %d)", c.Shard, c.Of)
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = DefaultCheckpointEvery
	}
	if c.Path == "" {
		return fmt.Errorf("campaign: snapshot path is required")
	}
	if c.Build == nil {
		return fmt.Errorf("campaign: solver constructor is required")
	}
	if len(c.IDs) == 0 {
		c.IDs = sched.DefaultIDs(c.Spec.N())
	}
	if err := c.Opts.Validate(); err != nil {
		return err
	}
	return nil
}

// header renders the campaign identity of cfg (progress fields zero).
func (c *Config) header() Header {
	h := Header{
		Magic:    Magic,
		Version:  Version,
		Mode:     ModeOf(c.Opts),
		Protocol: c.Protocol,
		Task:     c.Spec.String(),
		N:        c.Spec.N(),
		IDs:      c.IDs,
		Options:  optionsHeader(c.Opts),
		Shard:    c.Shard,
		Of:       c.Of,
	}
	h.OptionsHash = optionsHash(h)
	return h
}

// Report is a campaign outcome. For a single-shard campaign (Of == 1) it
// is final and identical to the uninterrupted mode's report; for one
// shard of many it is provisional (raw shard counts) until Merge combines
// the shard set.
type Report struct {
	Mode     Mode   `json:"mode"`
	Protocol string `json:"protocol"`
	Task     string `json:"task"`
	Shard    int    `json:"shard"`
	Of       int    `json:"of"`
	// Schedules is the verified schedule count with exactly the mode's
	// usual semantics: interleavings (exhaustive), trace classes (POR),
	// sampled/swept runs, or — on a violation — the count up to and
	// including the reported run.
	Schedules int `json:"schedules"`
	// Classes/Coverage are the sampling modes' distinct-trace-class
	// coverage figures.
	Classes  int     `json:"classes,omitempty"`
	Coverage float64 `json:"coverage,omitempty"`
	Depth    int     `json:"pct_depth,omitempty"`
	// Violation is the verdict of a failed campaign ("" when every run
	// verified); FailedRun/FailedSeed identify the replayable failing
	// run in the seeded modes (-1/0 otherwise).
	Violation  string `json:"violation,omitempty"`
	FailedRun  int    `json:"failed_run"`
	FailedSeed int64  `json:"failed_seed,omitempty"`
	// Done distinguishes a finished campaign from a paused one;
	// Checkpoints counts snapshot writes in this process.
	Done        bool `json:"done"`
	Checkpoints int  `json:"checkpoints"`
	// Stats is the observability registry's cumulative totals at
	// completion: summed across resumed lives, and — for a merged report —
	// across shards (with the exact-count counters recomputed, see Merge).
	Stats *stats.Snapshot `json:"stats,omitempty"`
}

func (c *Config) body() func() sched.Body {
	n := c.Spec.N()
	return func() sched.Body { return tasks.Body(c.Build(n)) }
}

func (c *Config) check() func(*sched.Result) error {
	spec := c.Spec
	return func(res *sched.Result) error { return tasks.VerifyResult(spec, res) }
}

// Start begins a fresh campaign (shard): it derives this shard's initial
// engine state, then runs checkpointed slices until done or interrupted.
// An existing snapshot at cfg.Path is refused unless cfg.Force — resuming
// by accident is confusing, overwriting a half-done campaign is worse.
//
// The returned error is the campaign verdict: nil when every run
// verified, the violation otherwise, or one wrapping ErrPaused when ctx
// was canceled after a checkpoint.
func Start(ctx context.Context, cfg Config) (Report, error) {
	if err := cfg.normalize(); err != nil {
		return Report{}, err
	}
	if !cfg.Force {
		if _, err := os.Stat(cfg.Path); err == nil {
			return Report{}, fmt.Errorf("campaign: snapshot %s already exists (resume it, or pass force to overwrite)", cfg.Path)
		}
	}
	cfg.ensureStats()
	// A fresh campaign starts a fresh timeline: drop any stale sidecar
	// left by a previous campaign at the same path.
	_ = os.Remove(cfg.timelinePath())
	p, err := initialState(ctx, &cfg)
	if err != nil {
		return Report{}, err
	}
	return run(ctx, &cfg, p)
}

// Resume continues a campaign from its snapshot. The snapshot's campaign
// identity (mode, task, protocol, n, ids, options, shard) must match
// cfg exactly — ErrOptionsMismatch otherwise, because a resume under
// different options would verify something other than what the snapshot
// started. Worker count and checkpoint interval may differ freely.
func Resume(ctx context.Context, cfg Config) (Report, error) {
	if err := cfg.normalize(); err != nil {
		return Report{}, err
	}
	h, p, err := readSnapshot(cfg.Path)
	if err != nil {
		return Report{}, err
	}
	if err := matchHeader(cfg.header(), h); err != nil {
		return Report{}, err
	}
	cfg.ensureStats()
	return run(ctx, &cfg, p)
}

// matchHeader compares the campaign identity of a config against a
// snapshot header.
func matchHeader(want, got Header) error {
	if want.OptionsHash != got.OptionsHash || want.Shard != got.Shard {
		return fmt.Errorf("%w: snapshot is %s shard %d/%d of %q on %s (hash %s), resume asked for %s shard %d/%d of %q on %s (hash %s)",
			ErrOptionsMismatch,
			got.Mode, got.Shard, got.Of, got.Protocol, got.Task, got.OptionsHash,
			want.Mode, want.Shard, want.Of, want.Protocol, want.Task, want.OptionsHash)
	}
	return nil
}

// initialState derives the fresh engine state of cfg's shard.
func initialState(ctx context.Context, cfg *Config) (payload, error) {
	n := cfg.Spec.N()
	switch ModeOf(cfg.Opts).family() {
	case "explore":
		// Every shard re-runs the same deterministic expansion, whose
		// results are attributed to shard 0 — so only shard 0 publishes
		// the expansion's stats, keeping summed shard totals equal to an
		// unsharded run's (see sched.ResumableExplorer.SeedShards).
		opts := cfg.Opts
		if cfg.Shard != 0 {
			opts.Stats = nil
		}
		r := &sched.ResumableExplorer{N: n, IDs: cfg.IDs, Opts: opts, Build: cfg.body(), Check: cfg.check()}
		states, err := r.SeedShards(ctx, cfg.Of)
		if err != nil {
			return payload{}, err
		}
		return payload{Explore: states[cfg.Shard]}, nil
	case "sample":
		r := &sample.ResumableBatch{N: n, IDs: cfg.IDs, Opts: cfg.Opts, Build: cfg.body(), Check: cfg.check()}
		st, err := r.Init(cfg.Shard, cfg.Of)
		if err != nil {
			return payload{}, err
		}
		return payload{Sample: st}, nil
	case "crash":
		return payload{Crash: &sched.SeededState{Shard: cfg.Shard, Of: cfg.Of}}, nil
	}
	return payload{}, fmt.Errorf("campaign: options select no known mode")
}

// run drives checkpointed slices of the engine from state p to
// completion, pause, or error.
func run(ctx context.Context, cfg *Config, p payload) (Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := cfg.Spec.N()
	h := cfg.header()
	checkpoints := 0
	var parts [3][]byte // snapshot parts; parts[0] is the buffer every checkpoint reuses

	reg := cfg.ensureStats()
	if p.Stats != nil {
		// Cumulative counters: fold the checkpointed totals of previous
		// process lives into this life's registry before any engine runs.
		reg.Restore(*p.Stats)
	}
	ckptWrites := reg.Counter(MetricCheckpointWrites, "Campaign snapshot writes.")
	ckptSeconds := reg.Histogram(MetricCheckpointSeconds, "Campaign snapshot write latency in seconds (encode, write, sync, rename).", nil)
	ckptEncode := reg.Histogram(MetricCheckpointEncodeSeconds, "Campaign snapshot encode latency in seconds (the encode part of each write).", nil)
	ckptBytes := reg.Gauge(MetricCheckpointBytes, "Size in bytes of the last campaign snapshot written.")
	var tl *timeline.Writer
	if cfg.Observer != nil {
		// Observed campaigns keep the timeline sidecar. Open recovers the
		// append position from previous lives (and truncates a torn tail),
		// so a resumed campaign continues the same monotone series.
		var terr error
		tl, terr = timeline.Open(cfg.timelinePath())
		if terr != nil {
			return Report{}, terr
		}
		defer tl.Close()
		cfg.Observer.attach(h, h.ShardTotal(), cfg.timelinePath())
	}

	slice := func(p payload) (payload, bool, error) {
		switch {
		case p.Explore != nil:
			r := &sched.ResumableExplorer{N: n, IDs: cfg.IDs, Opts: cfg.Opts, Build: cfg.body(), Check: cfg.check()}
			st, done, err := r.Slice(ctx, p.Explore, cfg.CheckpointEvery)
			return payload{Explore: st}, done, err
		case p.Sample != nil:
			r := &sample.ResumableBatch{N: n, IDs: cfg.IDs, Opts: cfg.Opts, Build: cfg.body(), Check: cfg.check()}
			st, done, err := r.Slice(ctx, p.Sample, cfg.CheckpointEvery)
			return payload{Sample: st}, done, err
		default:
			st, done, err := sched.SeededSlice(ctx, n, cfg.IDs, cfg.Opts, cfg.Opts.CrashRuns,
				sched.CrashSweepPolicies(n, cfg.Opts), cfg.body(),
				sched.CrashSweepCheck(n, cfg.Opts, cfg.check()),
				p.Crash, cfg.CheckpointEvery)
			return payload{Crash: st}, done, err
		}
	}

	for {
		next, done, err := slice(p)
		if err != nil {
			// Engine errors (invalid options, exhausted MaxRuns) are
			// terminal, not resumable: the previous snapshot, if any,
			// stays on disk untouched.
			return Report{}, err
		}
		p = next
		h.Done = done
		h.Runs, h.Frontier = progress(p)
		var rep Report
		var verdict error
		if done {
			rep, verdict = finalize(ctx, cfg, p)
			rep.Checkpoints = checkpoints + 1
		}
		// Snapshot the registry into the checkpoint (and the final
		// report) before the timed write: the write's own latency lands
		// live on the endpoints and in the next checkpoint.
		snap := reg.Snapshot()
		p.Stats = &snap
		if done {
			rep.Stats = &snap
			h.Result = &rep
		}
		// Timeline sample BEFORE the snapshot write: a kill between the
		// two leaves a sample the snapshot doesn't know about, and the
		// resumed life's writer dedups it — the reverse order would lose
		// samples instead, breaking kill-resume ≡ uninterrupted.
		if tl != nil {
			if _, _, terr := tl.Append(cfg.Observer.sample(h, snap)); terr != nil {
				return Report{}, terr
			}
		}
		wstart := time.Now() //gsb:nondeterminism-ok feeds the checkpoint-latency histograms only, never a verdict or count
		var werr error
		if parts, werr = encodeSnapshot(parts[0][:0], h, p); werr != nil {
			return Report{}, werr
		}
		ckptEncode.Observe(time.Since(wstart).Seconds()) //gsb:nondeterminism-ok observability histogram; not part of campaign state
		if werr = timeline.AtomicWrite(cfg.Path, parts[:]...); werr != nil {
			return Report{}, fmt.Errorf("campaign: checkpoint: %w", werr)
		}
		ckptSeconds.Observe(time.Since(wstart).Seconds()) //gsb:nondeterminism-ok observability histogram; not part of campaign state
		ckptWrites.Inc()
		ckptBytes.Set(int64(len(parts[0]) + len(parts[1]) + len(parts[2])))
		checkpoints++
		if cfg.Observer != nil {
			cfg.Observer.checkpoint(h)
		}
		if cfg.OnCheckpoint != nil {
			cfg.OnCheckpoint(h)
		}
		if done {
			return rep, verdict
		}
		if cerr := ctx.Err(); cerr != nil {
			rep := provisionalReport(cfg, p)
			rep.Checkpoints = checkpoints
			rep.Stats = p.Stats
			return rep, fmt.Errorf("%w (snapshot %s, %d runs done): %v", ErrPaused, cfg.Path, h.Runs, cerr)
		}
	}
}

// progress extracts the header progress gauges from an engine state.
func progress(p payload) (runs int64, frontier int) {
	switch {
	case p.Explore != nil:
		return p.Explore.Completed, len(p.Explore.Frontier)
	case p.Sample != nil:
		return p.Sample.Pool.Completed, 0
	case p.Crash != nil:
		return p.Crash.Completed, 0
	}
	return 0, 0
}

// provisionalReport renders a paused or single-shard-incomplete state.
func provisionalReport(cfg *Config, p payload) Report {
	rep := Report{
		Mode: ModeOf(cfg.Opts), Protocol: cfg.Protocol, Task: cfg.Spec.String(),
		Shard: cfg.Shard, Of: cfg.Of, FailedRun: -1,
	}
	runs, _ := progress(p)
	rep.Schedules = int(runs)
	return rep
}

// finalize turns a completed shard state into its report and verdict.
// For a single-shard campaign this is the exact report of the
// uninterrupted mode; for one shard of many the counts are the shard's
// raw contribution and the verdict is the shard's own smallest failure
// (Merge settles the campaign-wide one).
func finalize(ctx context.Context, cfg *Config, p payload) (Report, error) {
	rep := provisionalReport(cfg, p)
	rep.Done = true
	if cfg.Of == 1 {
		return settle(ctx, cfg, rep, []payload{p})
	}
	// Provisional shard verdict: raw counts plus this shard's own
	// failure, loudly labeled by Shard/Of fields.
	var err error
	var pool *sched.SeededState
	switch {
	case p.Explore != nil:
		if f := p.Explore.Failure; f != nil {
			err = f.Err()
		}
	case p.Sample != nil:
		rep.Depth = p.Sample.Depth
		rep.Classes = p.Sample.Classes.Len()
		pool = &p.Sample.Pool
	case p.Crash != nil:
		pool = p.Crash
	}
	if pool != nil && pool.Failure != nil {
		rep.FailedRun = pool.Failure.Run
		err = pool.Failure.Err()
	}
	return withVerdict(cfg, rep, err)
}

// settle runs the family Finalize over the engine states of a complete
// shard set — the one state of a single-shard campaign, or every shard's
// state of a merge, indexed by shard — and renders its report and
// verdict. It is the campaign's only settle step, and the same Finalize
// the one-shot entry points run.
func settle(ctx context.Context, cfg *Config, rep Report, payloads []payload) (Report, error) {
	n := cfg.Spec.N()
	var err error
	switch ModeOf(cfg.Opts).family() {
	case "explore":
		states := make([]*sched.ExploreState, len(payloads))
		for i, p := range payloads {
			states[i] = p.Explore
		}
		r := &sched.ResumableExplorer{N: n, IDs: cfg.IDs, Opts: cfg.Opts, Build: cfg.body(), Check: cfg.check()}
		rep.Schedules, err = r.Finalize(ctx, states...)
	case "sample":
		states := make([]*sample.BatchState, len(payloads))
		for i, p := range payloads {
			states[i] = p.Sample
		}
		r := &sample.ResumableBatch{N: n, IDs: cfg.IDs, Opts: cfg.Opts, Build: cfg.body(), Check: cfg.check()}
		var srep sample.Report
		srep, err = r.Finalize(ctx, states...)
		rep.Schedules, rep.Classes, rep.Coverage, rep.Depth = srep.Runs, srep.Classes, srep.Coverage(), srep.Depth
		rep.FailedRun = srep.FailedRun
	default: // crash sweep
		states := make([]*sched.SeededState, len(payloads))
		for i, p := range payloads {
			states[i] = p.Crash
		}
		rep.Schedules, rep.FailedRun, err = sched.FinalizeSeeded(ctx, cfg.Opts.CrashRuns, states...)
	}
	return withVerdict(cfg, rep, err)
}

// withVerdict records err as the report's violation, and the failing run's
// replay seed in the seeded modes.
func withVerdict(cfg *Config, rep Report, err error) (Report, error) {
	if rep.FailedRun >= 0 {
		rep.FailedSeed = sched.DeriveRunSeed(cfg.Opts.Seed, rep.FailedRun)
	}
	if err != nil {
		rep.Violation = err.Error()
	}
	return rep, err
}
