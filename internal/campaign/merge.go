package campaign

import (
	"context"
	"fmt"

	"repro/internal/sample"
	"repro/internal/stats"
)

// mergeStats sums the shard snapshots' observability totals: the merged
// counters equal an uninterrupted unsharded run's (the sampler's class
// counter is recomputed by Merge, see there). Nil when no shard carried
// stats — snapshots written by a build predating the stats payload field.
func mergeStats(payloads []payload) *stats.Snapshot {
	var sum stats.Snapshot
	found := false
	for _, p := range payloads {
		if p.Stats == nil {
			continue
		}
		sum = sum.Add(*p.Stats)
		found = true
	}
	if !found {
		return nil
	}
	return &sum
}

// Merge combines the finished shard snapshots of one campaign into the
// single report — verdict, schedule/class counts, lex-min violation —
// that one uninterrupted single-process run of the whole campaign
// produces. cfg supplies the campaign definition (the same one the
// shards ran under; verified against every snapshot's options hash) and,
// for the enumerating modes, the solver constructor: a merged violation
// re-runs the engine's counting pass against the settled
// lexicographically smallest failure, exactly as the one-shot engine
// does after discovery.
//
// paths must be the complete shard set: exactly one snapshot per shard
// of the campaign's Of, each marked done. Anything else — a missing or
// duplicate shard, an unfinished shard, a snapshot from a different
// campaign or option set — is a loud error, never a silently partial
// report.
func Merge(ctx context.Context, cfg Config, paths []string) (Report, error) {
	if len(paths) == 0 {
		return Report{}, fmt.Errorf("campaign: merge needs at least one snapshot")
	}
	cfg.Path = paths[0] // normalize() requires a path; merge never writes one
	cfg.Of = len(paths)
	cfg.Shard = 0
	if err := cfg.normalize(); err != nil {
		return Report{}, err
	}
	want := cfg.header()

	payloads := make([]payload, len(paths)) // indexed by shard
	seen := make(map[int]string, len(paths))
	for _, path := range paths {
		h, p, err := readSnapshot(path)
		if err != nil {
			return Report{}, err
		}
		if h.Of != len(paths) {
			return Report{}, fmt.Errorf("campaign: %s is shard %d of a %d-way campaign, but %d snapshots were given", path, h.Shard, h.Of, len(paths))
		}
		if h.OptionsHash != want.OptionsHash {
			return Report{}, fmt.Errorf("%w: %s has hash %s, the merge config hashes to %s", ErrOptionsMismatch, path, h.OptionsHash, want.OptionsHash)
		}
		if dup, ok := seen[h.Shard]; ok {
			return Report{}, fmt.Errorf("campaign: %s and %s are both shard %d", dup, path, h.Shard)
		}
		seen[h.Shard] = path
		if !h.Done {
			return Report{}, fmt.Errorf("campaign: %s (shard %d) has not finished (%d runs done); resume it before merging", path, h.Shard, h.Runs)
		}
		payloads[h.Shard] = p
	}

	rep := Report{
		Mode: ModeOf(cfg.Opts), Protocol: cfg.Protocol, Task: cfg.Spec.String(),
		Shard: 0, Of: len(paths), Done: true, FailedRun: -1,
	}
	rep.Stats = mergeStats(payloads)
	rep, err := settle(ctx, &cfg, rep, payloads)
	// The sampler's class counter is recomputed from the merged report:
	// per-shard first sightings over-count classes shared between shards.
	// On a violation it keeps the raw summed figure — the report's counts
	// then describe the lex-min violation, not the work done.
	if rep.Stats != nil && rep.Stats.Counters != nil && rep.Violation == "" && ModeOf(cfg.Opts).family() == "sample" {
		rep.Stats.Counters[sample.MetricClasses] = int64(rep.Classes)
	}
	return rep, err
}
