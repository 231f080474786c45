package campaign

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/sched"
)

// The execution model (opts.Model, opts.Adversary) is campaign identity:
// these tests pin the default-normalization contract — explicitly naming
// the defaults is byte-identical to not naming them, so pre-registry
// snapshots stay resumable — and the fail-loudly contract for changed
// models, plus the differential guarantees under non-default axes.

// withExecModel returns opts with the execution model set.
func withExecModel(opts sched.ExploreOptions, model, adversary string) sched.ExploreOptions {
	opts.Model = model
	opts.Adversary = adversary
	return opts
}

// TestCampaignExplicitDefaultsIdentical runs every mode at workers 1, 2
// and 8 twice — zero-valued model/adversary versus the explicitly named
// defaults — and requires identical reports, verdicts AND options hashes.
// Hash equality is what lets a snapshot written by the pre-registry
// engine resume under a binary that names its defaults.
func TestCampaignExplicitDefaultsIdentical(t *testing.T) {
	cases := append(campCases(t), racyCase())
	for _, tc := range cases {
		for _, mode := range campModes {
			for _, workers := range []int{1, 2, 8} {
				label := fmt.Sprintf("%s %s workers=%d", tc.name, mode, workers)
				opts := optsFor(mode, workers)
				dir := t.TempDir()

				zeroPath := filepath.Join(dir, "zero.ckpt")
				zeroRep, zeroErr := Start(context.Background(), cfgFor(tc, opts, zeroPath))

				named := withExecModel(opts, sched.ModelAtomic, sched.AdversaryUniformCrash)
				namedPath := filepath.Join(dir, "named.ckpt")
				namedRep, namedErr := Start(context.Background(), cfgFor(tc, named, namedPath))

				if namedRep.Schedules != zeroRep.Schedules || namedRep.Classes != zeroRep.Classes ||
					errText(namedErr) != errText(zeroErr) {
					t.Errorf("%s: named defaults (%d, %d, %q) differ from zero defaults (%d, %d, %q)",
						label, namedRep.Schedules, namedRep.Classes, errText(namedErr),
						zeroRep.Schedules, zeroRep.Classes, errText(zeroErr))
				}
				zh, err := ReadHeader(zeroPath)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				nh, err := ReadHeader(namedPath)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if zh.OptionsHash != nh.OptionsHash {
					t.Errorf("%s: options hash %s under zero defaults, %s under named defaults — old snapshots would not resume",
						label, zh.OptionsHash, nh.OptionsHash)
				}
				if nh.Options.Model != "" || nh.Options.Adversary != "" {
					t.Errorf("%s: header stores (%q, %q) for the named defaults, want normalized-empty",
						label, nh.Options.Model, nh.Options.Adversary)
				}
			}
		}
	}
}

// TestCampaignResumeRejectsChangedModel: a snapshot paused under one
// memory model (or adversary) must refuse to resume under another — the
// options hash covers the execution model.
func TestCampaignResumeRejectsChangedModel(t *testing.T) {
	tc := campCases(t)[0]
	opts := withExecModel(optsFor(ModePOR, 2), sched.ModelRegular, "")
	path := filepath.Join(t.TempDir(), "c.ckpt")
	cfg := cfgFor(tc, opts, path)
	cfg.CheckpointEvery = 20
	ctx, cancel := context.WithCancel(context.Background())
	cfg.OnCheckpoint = func(Header) { cancel() }
	if _, err := Start(ctx, cfg); !errors.Is(err, ErrPaused) {
		t.Fatalf("campaign did not pause: %v", err)
	}
	cancel()
	cfg.OnCheckpoint = nil

	changed := cfg
	changed.Opts = withExecModel(optsFor(ModePOR, 2), sched.ModelSafe, "")
	if _, err := Resume(context.Background(), changed); !errors.Is(err, ErrOptionsMismatch) {
		t.Errorf("resume under a changed model: %v, want ErrOptionsMismatch", err)
	}

	// Unchanged model resumes to completion.
	if rep, err := Resume(context.Background(), cfg); err != nil || !rep.Done {
		t.Errorf("resume under the original model: (%+v, %v)", rep, err)
	}

	// Same for the adversary axis, on a crash-sweep campaign.
	aOpts := withExecModel(optsFor(ModeCrash, 2), "", sched.AdversaryTResilient)
	aPath := filepath.Join(t.TempDir(), "a.ckpt")
	aCfg := cfgFor(tc, aOpts, aPath)
	aCfg.CheckpointEvery = 20
	aCtx, aCancel := context.WithCancel(context.Background())
	aCfg.OnCheckpoint = func(Header) { aCancel() }
	if _, err := Start(aCtx, aCfg); !errors.Is(err, ErrPaused) {
		t.Fatalf("crash campaign did not pause: %v", err)
	}
	aCancel()
	aCfg.OnCheckpoint = nil
	changedAdv := aCfg
	changedAdv.Opts = withExecModel(optsFor(ModeCrash, 2), "", sched.AdversaryAdaptive)
	if _, err := Resume(context.Background(), changedAdv); !errors.Is(err, ErrOptionsMismatch) {
		t.Errorf("resume under a changed adversary: %v, want ErrOptionsMismatch", err)
	}
}

// TestCampaignDifferentialsUnderNonDefaultModel: the kill/resume and
// 3-shard-merge differentials hold under a non-default memory model AND
// each non-default adversary — the campaign machinery is model-agnostic.
func TestCampaignDifferentialsUnderNonDefaultModel(t *testing.T) {
	cases := append(campCases(t), racyCase())
	for _, tc := range cases {
		for _, mode := range campModes {
			adversaries := []string{""}
			if mode == ModeCrash {
				adversaries = []string{sched.AdversaryAdaptive, sched.AdversaryTResilient}
			}
			for _, adversary := range adversaries {
				opts := withExecModel(optsFor(mode, 2), sched.ModelRegular, adversary)
				label := fmt.Sprintf("%s %s model=regular adversary=%q", tc.name, mode, adversary)
				dir := t.TempDir()

				// Kill at the first checkpoint, resume to completion.
				cfg := cfgFor(tc, opts, filepath.Join(dir, "kr.ckpt"))
				cfg.CheckpointEvery = 50
				ctx, cancel := context.WithCancel(context.Background())
				cfg.OnCheckpoint = func(Header) { cancel() }
				rep, err := Start(ctx, cfg)
				cancel()
				for attempt := 0; errors.Is(err, ErrPaused); attempt++ {
					if attempt > 1000 {
						t.Fatalf("%s: campaign failed to finish", label)
					}
					cfg.OnCheckpoint = nil
					rep, err = Resume(context.Background(), cfg)
				}
				checkAgainstReference(t, label+" kill/resume", tc, opts, rep, err)

				// 3-shard split, merged.
				const shards = 3
				paths := make([]string, shards)
				for s := 0; s < shards; s++ {
					paths[s] = filepath.Join(dir, fmt.Sprintf("shard-%d.ckpt", s))
					scfg := cfgFor(tc, opts, paths[s])
					scfg.Shard, scfg.Of = s, shards
					if _, serr := Start(context.Background(), scfg); serr != nil && !isCampaignVerdict(serr) {
						t.Fatalf("%s shard %d: %v", label, s, serr)
					}
				}
				merged, merr := Merge(context.Background(), cfgFor(tc, opts, paths[0]), paths)
				checkAgainstReference(t, label+" merge", tc, opts, merged, merr)
			}
		}
	}
}

// isCampaignVerdict distinguishes a property-violation verdict (expected
// for the racy case) from an operational campaign error.
func isCampaignVerdict(err error) bool {
	return err != nil && !errors.Is(err, ErrPaused) && !errors.Is(err, ErrOptionsMismatch)
}

// TestAdversaryEventsCumulativeAcrossLives: the gsb_adversary_events_total
// counter is checkpointed with the engine state, so a kill/resume chain
// reports exactly the uninterrupted sweep's total, and a shard merge
// reports the sum of its shards — injected faults are never lost or
// double-counted across lives.
func TestAdversaryEventsCumulativeAcrossLives(t *testing.T) {
	tc := campCases(t)[0]
	opts := withExecModel(optsFor(ModeCrash, 2), "", sched.AdversaryTResilient)
	opts.CrashProb = 0.15

	events := func(rep Report) int64 {
		if rep.Stats == nil {
			t.Fatal("campaign report has no stats snapshot")
		}
		return rep.Stats.Counters[sched.MetricAdversaryEvents]
	}

	// Uninterrupted reference.
	refRep, err := Start(context.Background(), cfgFor(tc, opts, filepath.Join(t.TempDir(), "ref.ckpt")))
	if err != nil {
		t.Fatal(err)
	}
	want := events(refRep)
	if want == 0 {
		t.Fatal("reference sweep injected no crashes at CrashProb 0.15")
	}

	// Kill/resume chain.
	cfg := cfgFor(tc, opts, filepath.Join(t.TempDir(), "kr.ckpt"))
	cfg.CheckpointEvery = 50
	ctx, cancel := context.WithCancel(context.Background())
	cfg.OnCheckpoint = func(Header) { cancel() }
	rep, rerr := Start(ctx, cfg)
	cancel()
	resumes := 0
	for errors.Is(rerr, ErrPaused) {
		if resumes++; resumes > 1000 {
			t.Fatal("campaign failed to finish")
		}
		cfg.OnCheckpoint = nil
		rep, rerr = Resume(context.Background(), cfg)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
	if resumes == 0 {
		t.Fatal("campaign was never interrupted (the test is vacuous)")
	}
	if got := events(rep); got != want {
		t.Errorf("kill/resume chain reports %d adversary events, uninterrupted sweep %d", got, want)
	}

	// 3-shard merge: the merged total is the sum over the disjoint shards,
	// which for a seeded sweep is exactly the uninterrupted total.
	const shards = 3
	dir := t.TempDir()
	paths := make([]string, shards)
	for s := 0; s < shards; s++ {
		paths[s] = filepath.Join(dir, fmt.Sprintf("shard-%d.ckpt", s))
		scfg := cfgFor(tc, opts, paths[s])
		scfg.Shard, scfg.Of = s, shards
		if _, serr := Start(context.Background(), scfg); serr != nil {
			t.Fatalf("shard %d: %v", s, serr)
		}
	}
	merged, merr := Merge(context.Background(), cfgFor(tc, opts, paths[0]), paths)
	if merr != nil {
		t.Fatal(merr)
	}
	if got := events(merged); got != want {
		t.Errorf("3-shard merge reports %d adversary events, uninterrupted sweep %d", got, want)
	}
}
