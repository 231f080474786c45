package campaign

import (
	"flag"
	"fmt"

	"repro/internal/sched"
)

// Request is a campaign in the vocabulary its callers speak: a protocol
// name, an instance size and a request mode name plus that mode's
// parameters. `gsbcampaign start` builds one from its flags and the
// fleet from a gsbfleet/v1 submission; both turn it into engine options
// and a Config here, so a campaign started either way has the same
// identity and options hash (docs/checkpoint-format.md maps each request
// mode to its header mode and options).
type Request struct {
	Protocol string
	N        int
	// Mode is the request mode name: exhaustive | por | por-memo |
	// walk | pct | crash.
	Mode string
	// Runs is the sampled/swept run budget (walk, pct and crash modes).
	Runs      int
	PCTDepth  int
	CrashProb float64
	// Model and Adversary are registry names (sched.MemModels,
	// sched.Adversaries); empty means the default.
	Model     string
	Adversary string
	Seed      int64
	MaxRuns   int
	MaxSteps  int
	// CheckpointEvery is the checkpoint interval in runs (0: the
	// default).
	CheckpointEvery int
}

// BindFlags declares the request's flags on fs, each storing into its
// field with the default a request starts from: -protocol -n -mode -runs
// -pct-depth -crash -model -adversary -seed -maxruns -maxsteps -every.
// `gsbcampaign start` and `gsbfleet submit` declare their requests
// through it, so both speak one flag vocabulary.
func (r *Request) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&r.Protocol, "protocol", "slot-renaming", "protocol to verify (see gsbrun)")
	fs.IntVar(&r.N, "n", 4, "number of processes")
	fs.StringVar(&r.Mode, "mode", "exhaustive", "verification mode: exhaustive | por | por-memo | walk | pct | crash")
	fs.IntVar(&r.Runs, "runs", 0, "sampled/swept runs (walk, pct and crash modes)")
	fs.IntVar(&r.PCTDepth, "pct-depth", 0, "PCT bug depth (pct mode; 0 = default)")
	fs.Float64Var(&r.CrashProb, "crash", 0.05, "per-decision crash probability (crash mode)")
	fs.StringVar(&r.Model, "model", "", "memory model for shared registers/snapshots (empty = atomic; see gsbrun -model)")
	fs.StringVar(&r.Adversary, "adversary", "", "crash adversary (crash mode; empty = uniform-crash; see gsbrun -adversary)")
	fs.Int64Var(&r.Seed, "seed", 1, "campaign seed (oracle draws and per-run schedule seeds)")
	fs.IntVar(&r.MaxRuns, "maxruns", 0, "exploration run budget (0 = default)")
	fs.IntVar(&r.MaxSteps, "maxsteps", 0, "per-run step budget (0 = default)")
	fs.IntVar(&r.CheckpointEvery, "every", 0, "checkpoint interval in runs (0 = default); in a fleet, also the upload interval")
}

// maxRequestN bounds a request's process count. It is far beyond any
// instance the engines can verify, and keeps resolving a request cheap:
// task specs and process id lists grow with n, and a fleet coordinator
// resolves requests straight off the network.
const maxRequestN = 1 << 10

// MaxShards bounds how many shards a fleet submission may deal a
// campaign as (fleet's Submission.Validate enforces it). A coordinator
// allocates a shard state and a queue entry per shard when it accepts a
// submission, before any work runs, and every shard of an enumerating
// mode seeds its frontier with a multiple of the shard count, so an
// unbounded count from the network could exhaust it.
const MaxShards = 1 << 10

// requestModes maps each request mode name to the header mode it
// selects.
var requestModes = map[string]Mode{
	"exhaustive": ModeExhaustive,
	"por":        ModePOR,
	"por-memo":   ModePORMemo,
	"walk":       ModeWalk,
	"pct":        ModePCT,
	"crash":      ModeCrash,
}

// Validate checks the request against the protocol, mode, memory-model
// and adversary registries without touching any file, so a typo is
// rejected before a snapshot or a fleet task exists.
func (r Request) Validate() error {
	_, err := r.Config(0, 1, "")
	return err
}

// Options maps the request's mode and its parameters to the engine
// options (worker count zero: the caller picks its own). It is the only
// place a request mode name is interpreted; ModeOf of the result is the
// mode's header mode.
func (r Request) Options() (sched.ExploreOptions, error) {
	opts := sched.ExploreOptions{
		Seed: r.Seed, MaxRuns: r.MaxRuns, MaxSteps: r.MaxSteps,
		Model: r.Model, Adversary: r.Adversary,
	}
	mode, ok := requestModes[r.Mode]
	if !ok {
		return opts, fmt.Errorf("campaign: unknown mode %q (want exhaustive, por, por-memo, walk, pct or crash)", r.Mode)
	}
	if r.Adversary != "" && mode != ModeCrash {
		return opts, fmt.Errorf("campaign: adversary %q selects a crash-sweep strategy and needs mode crash, got mode %s", r.Adversary, r.Mode)
	}
	switch mode {
	case ModePOR:
		opts.Reduction = sched.ReductionSleepSets
	case ModePORMemo:
		opts.Reduction = sched.ReductionSleepMemo
	case ModeWalk:
		opts.SampleRuns = r.Runs
	case ModePCT:
		opts.SampleRuns = r.Runs
		opts.SampleMode = sched.SamplePCT
		opts.Depth = r.PCTDepth
	case ModeCrash:
		opts.CrashRuns = r.Runs
		opts.CrashProb = r.CrashProb
	}
	if mode.family() != "explore" && r.Runs <= 0 {
		return opts, fmt.Errorf("campaign: mode %s needs runs > 0", r.Mode)
	}
	if mode == ModeCrash && r.CrashProb <= 0 {
		return opts, fmt.Errorf("campaign: mode crash needs crash_prob > 0, got %g (a sweep that never crashes)", r.CrashProb)
	}
	if err := opts.Validate(); err != nil {
		return opts, fmt.Errorf("campaign: %w", err)
	}
	return opts, nil
}

// Config resolves the request into the config of shard `shard` of an
// `of`-way campaign whose snapshot lives at path. Every caller deriving
// a shard's config from the same request gets the same campaign
// identity, whatever its path.
func (r Request) Config(shard, of int, path string) (Config, error) {
	if r.N < 2 || r.N > maxRequestN {
		return Config{}, fmt.Errorf("campaign: need n >= 2 and n <= %d, got %d", maxRequestN, r.N)
	}
	if r.CheckpointEvery < 0 {
		return Config{}, fmt.Errorf("campaign: need checkpoint_every >= 0, got %d", r.CheckpointEvery)
	}
	spec, build, err := SelectProtocol(r.Protocol, r.N, r.Seed)
	if err != nil {
		return Config{}, fmt.Errorf("campaign: %w", err)
	}
	opts, err := r.Options()
	if err != nil {
		return Config{}, err
	}
	return Config{
		Protocol: r.Protocol, Spec: spec, Opts: opts, Build: build,
		Shard: shard, Of: of, CheckpointEvery: r.CheckpointEvery, Path: path,
	}, nil
}
