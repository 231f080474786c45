package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/campaign"
	"repro/internal/sched"
	"repro/internal/tasks"
	"repro/internal/timeline"
)

// CampaignRow is one line of the campaign-resilience experiment: one
// verification mode of the Figure 2 protocol run three ways — the
// uninterrupted single process, a campaign killed at its first checkpoint
// and resumed, and a 3-way shard split merged back — with Match
// confirming all three produced the identical report.
type CampaignRow struct {
	Mode      campaign.Mode
	N         int
	Schedules int // uninterrupted reference count
	Classes   int // sampling coverage (0 outside the sampling modes)
	Resumes   int // kill/resume cycles the interrupted campaign needed
	Samples   int // timeline samples the kill/resume chain appended
	Match     bool
}

// CampaignExperiment exercises the durable-campaign subsystem on the
// Figure 2 slot-renaming protocol at size n: for each mode, it compares
// the uninterrupted engines against a kill/resume campaign chain and a
// 3-shard merge, in a temporary directory that is removed afterwards.
// It is the harness-level smoke of the differential guarantees the
// campaign package's tests establish exhaustively.
//
// model and adversary select the execution model (registry names,
// empty = defaults): model applies to every mode, adversary to the
// crash-sweep mode. The differential guarantees are model-independent —
// kill/resume and shard-merge must reproduce the uninterrupted run under
// weak registers and biased crash adversaries exactly as under the
// defaults.
func CampaignExperiment(n, workers, sampleRuns int, model, adversary string) ([]CampaignRow, error) {
	if workers <= 0 {
		workers = 1
	}
	if _, err := sched.MemModelByName(model); err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	if _, err := sched.AdversaryByName(adversary); err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	dir, err := os.MkdirTemp("", "gsb-campaign-experiment-*")
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	defer os.RemoveAll(dir)

	spec, build, err := campaign.SelectProtocol("slot-renaming", n, 1)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	modes := []struct {
		mode campaign.Mode
		opts sched.ExploreOptions
	}{
		{campaign.ModePOR, sched.ExploreOptions{Workers: workers, Seed: 1, Reduction: sched.ReductionSleepSets, Model: model}},
		{campaign.ModeWalk, sched.ExploreOptions{Workers: workers, Seed: 1, SampleRuns: sampleRuns, Model: model}},
		{campaign.ModeCrash, sched.ExploreOptions{Workers: workers, Seed: 1, CrashRuns: sampleRuns, CrashProb: 0.05, Model: model, Adversary: adversary}},
	}

	var rows []CampaignRow
	for _, m := range modes {
		row := CampaignRow{Mode: m.mode, N: n}

		// Uninterrupted single-process reference.
		var refCount int
		if m.opts.SampleRuns > 0 {
			rep, rerr := tasks.SampleVerified(context.Background(), spec, sched.DefaultIDs(n), m.opts, build)
			if rerr != nil {
				return nil, fmt.Errorf("harness: campaign reference %s: %w", m.mode, rerr)
			}
			refCount, row.Classes = rep.Runs, rep.Classes
		} else {
			refCount, err = tasks.ExploreVerified(context.Background(), spec, sched.DefaultIDs(n), m.opts, build)
			if err != nil {
				return nil, fmt.Errorf("harness: campaign reference %s: %w", m.mode, err)
			}
		}
		row.Schedules = refCount

		// Kill at the first checkpoint, then resume to completion.
		cfg := campaign.Config{
			Protocol: "slot-renaming", Spec: spec, Opts: m.opts, Build: build,
			CheckpointEvery: 50, Path: filepath.Join(dir, string(m.mode)+".ckpt"),
		}
		ctx, cancel := context.WithCancel(context.Background())
		cfg.OnCheckpoint = func(campaign.Header) { cancel() }
		cfg.Observer = campaign.NewObserver() // a fresh observer per life, like the CLI
		rep, rerr := campaign.Start(ctx, cfg)
		cancel()
		for errors.Is(rerr, campaign.ErrPaused) {
			row.Resumes++
			if row.Resumes > 1000 {
				return nil, fmt.Errorf("harness: campaign %s failed to finish", m.mode)
			}
			cfg.OnCheckpoint = nil
			cfg.Observer = campaign.NewObserver()
			rep, rerr = campaign.Resume(context.Background(), cfg)
		}
		if rerr != nil {
			return nil, fmt.Errorf("harness: campaign %s: %w", m.mode, rerr)
		}
		resumedOK := rep.Schedules == refCount && rep.Classes == row.Classes

		// Timeline continuity: across every kill/resume life the sidecar
		// must hold one gapless sample series ending done — the observable
		// form of the "kill/resume is invisible" guarantee.
		recs, terr := timeline.Read(timeline.SidecarPath(cfg.Path))
		if terr != nil {
			return nil, fmt.Errorf("harness: campaign %s timeline: %w", m.mode, terr)
		}
		row.Samples = len(recs)
		timelineOK := len(recs) > 0
		for i, rec := range recs {
			if rec.Index != int64(i) {
				timelineOK = false
			}
		}
		if timelineOK {
			last := recs[len(recs)-1]
			// Runs counts executed budget slots, so it can exceed the
			// verified-schedule count under reduction but never trail it.
			timelineOK = last.Done && last.Runs >= int64(refCount)
		}

		// 3-way shard split, merged.
		const shards = 3
		paths := make([]string, shards)
		for s := 0; s < shards; s++ {
			paths[s] = filepath.Join(dir, fmt.Sprintf("%s-shard%d.ckpt", m.mode, s))
			scfg := cfg
			scfg.OnCheckpoint = nil
			scfg.Shard, scfg.Of, scfg.Path = s, shards, paths[s]
			if _, serr := campaign.Start(context.Background(), scfg); serr != nil {
				return nil, fmt.Errorf("harness: campaign %s shard %d: %w", m.mode, s, serr)
			}
		}
		mcfg := cfg
		mcfg.OnCheckpoint = nil
		merged, merr := campaign.Merge(context.Background(), mcfg, paths)
		if merr != nil {
			return nil, fmt.Errorf("harness: campaign %s merge: %w", m.mode, merr)
		}
		row.Match = resumedOK && timelineOK && merged.Schedules == refCount && merged.Classes == row.Classes
		rows = append(rows, row)
	}
	return rows, nil
}

// CampaignText renders the campaign-resilience experiment rows.
func CampaignText(rows []CampaignRow) string {
	var b strings.Builder
	b.WriteString("Durable campaigns: kill/resume and 3-shard merge reproduce the uninterrupted run\n")
	b.WriteString("  mode         n  schedules  classes  resumes  samples  match\n")
	for _, r := range rows {
		match := "OK"
		if !r.Match {
			match = "MISMATCH"
		}
		fmt.Fprintf(&b, "  %-11s %2d  %9d  %7d  %7d  %7d  %s\n", r.Mode, r.N, r.Schedules, r.Classes, r.Resumes, r.Samples, match)
	}
	return b.String()
}
