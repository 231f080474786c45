package main

import (
	"context"
	"os"
	"path/filepath"
	"time"

	"repro"
)

// walkConfig is a durable walk-sampling campaign.
type walkConfig struct {
	protocol string
	n        int
	runs     int // sampled runs
	every    int // runs between checkpoints
	// classes is the distinct trace classes the batch covers at seed 1.
	// Other seeds cover other classes, so only seed 1 is pinned.
	classes int
}

// campaignWalk is the walk campaign CI kills and resumes (slot-renaming
// n=6) at CI's checkpoint interval (1,000 runs), with a fifth of the runs
// of a 300,000-run campaign at the default interval (5,000), so both
// write 60 checkpoints. Nearly every run is a new trace class, so each
// checkpoint re-encodes a class set that grows with progress: the
// campaign layer does much of the work, the sampler and Foata hashing the
// rest.
var campaignWalk = walkConfig{protocol: "slot-renaming", n: 6, runs: 60000, every: 1000, classes: 59927}

func walkCampaign(cfg walkConfig) func(env) (session, error) {
	return func(e env) (session, error) {
		spec, build, err := repro.SelectProtocol(cfg.protocol, cfg.n, e.seed)
		if err != nil {
			return nil, err
		}
		return &walkSession{e: e, cfg: cfg, spec: spec, build: build, path: filepath.Join(e.dir, "walk.ckpt")}, nil
	}
}

type walkSession struct {
	e     env
	cfg   walkConfig
	spec  repro.Spec
	build func(int) repro.Solver
	path  string
}

func (s *walkSession) close() {}

func (s *walkSession) options() repro.ExploreOptions {
	return repro.ExploreOptions{Workers: benchWorkers, Seed: s.e.seed, SampleRuns: s.cfg.runs, SampleMode: repro.SampleWalk}
}

func (s *walkSession) verdict(tr *tracer, parent int) iteration {
	var it iteration
	obs := repro.NewCampaignObserver()
	cc := repro.CampaignConfig{
		Protocol: s.cfg.protocol, Spec: s.spec, Opts: s.options(), Build: s.build,
		CheckpointEvery: s.cfg.every, Path: s.path, Force: true, Observer: obs,
	}
	var checkpoints int
	var bytesLast, bytesWritten int64
	span := tr.begin("campaign", parent)
	if tr != nil {
		last := time.Now()
		cc.OnCheckpoint = func(repro.CampaignHeader) {
			now := time.Now()
			tr.add("checkpoint-interval", span, last, now)
			last = now
			checkpoints++
			if fi, err := os.Stat(s.path); err == nil {
				bytesLast = fi.Size()
				bytesWritten += bytesLast
			}
		}
	}
	m := startMeter()
	rep, err := repro.RunCampaign(context.Background(), cc)
	it.verdictS, it.cpuS, it.allocs = m.stop()
	tr.finish(span)
	pinned := s.e.seed != 1 || rep.Classes == s.cfg.classes
	it.op(err == nil && rep.Done && rep.Schedules == s.cfg.runs && pinned,
		"walk campaign: done=%v, %d runs (want %d), %d classes (want %d at seed 1), error %v",
		rep.Done, rep.Schedules, s.cfg.runs, rep.Classes, s.cfg.classes, err)
	it.counts = []int{rep.Schedules, rep.Classes}
	it.units = rep.Schedules
	if tr == nil {
		return it
	}

	// The same batch without the campaign: what sampling alone costs.
	sspan := tr.begin("sample", parent)
	sm := startMeter()
	srep, serr := repro.SampleVerified(context.Background(), s.spec, repro.DefaultIDs(s.cfg.n), s.options(), s.build)
	sampleS, _, _ := sm.stop()
	tr.finish(sspan)
	it.op(serr == nil && srep.Runs == rep.Schedules && srep.Classes == rep.Classes,
		"sampling alone: %d runs, %d classes (campaign: %d, %d), error %v", srep.Runs, srep.Classes, rep.Schedules, rep.Classes, serr)

	snap := obs.Registry().Snapshot()
	ckpt := snap.Histograms["gsb_checkpoint_write_seconds"]
	recs, terr := repro.ReadTimeline(repro.TimelineSidecarPath(s.path))
	it.op(terr == nil && len(recs) == checkpoints, "timeline: %d records for %d checkpoints, error %v", len(recs), checkpoints, terr)
	var timelineBytes float64
	if fi, err := os.Stat(repro.TimelineSidecarPath(s.path)); err == nil {
		timelineBytes = float64(fi.Size())
	}
	l := map[string]float64{
		"engine.runs":               float64(snap.Counters["gsb_runs_total"]),
		"engine.steals":             float64(snap.Counters["gsb_steals_total"]),
		"engine.useful_ratio":       ratio(float64(rep.Classes), float64(rep.Schedules)),
		"sample.runs":               float64(srep.Runs),
		"sample.classes":            float64(srep.Classes),
		"sample.verdict_s":          sampleS,
		"sample.share":              ratio(sampleS, it.verdictS),
		"campaign.self_s":           it.verdictS - sampleS,
		"campaign.share":            ratio(it.verdictS-sampleS, it.verdictS),
		"campaign.checkpoints":      float64(checkpoints),
		"campaign.checkpoint_s":     ckpt.Sum,
		"campaign.checkpoint_share": ratio(ckpt.Sum, it.verdictS),
		"campaign.bytes_last":       float64(bytesLast),
		"campaign.bytes_written":    float64(bytesWritten),
		"timeline.records":          float64(len(recs)),
		"timeline.bytes":            timelineBytes,
	}
	l["residual_share"] = 1 - l["sample.share"] - l["campaign.checkpoint_share"]
	it.layers = l
	return it
}
