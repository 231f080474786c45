package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gsb"
	"repro/internal/mem"
	"repro/internal/nocomm"
	"repro/internal/sample"
	"repro/internal/sched"
	"repro/internal/tasks"
)

// campCase is a task plus solver small enough to campaign over in every
// mode: the same <4,2>/<5,3> family members the exploration engine's own
// differentials use, plus a seeded-bug case whose runs fail on a
// schedule-dependent subset.
type campCase struct {
	name  string
	spec  gsb.Spec
	build func(n int) tasks.Solver
}

func campCases(t *testing.T) []campCase {
	t.Helper()
	// <4,2,-,-> family member: WSB(4) solved from a (2n-2)-renaming
	// oracle box (2 scheduled steps per process, 2520 interleavings).
	wsb := campCase{
		name: "wsb-4-2",
		spec: gsb.WSB(4),
		build: func(n int) tasks.Solver {
			return tasks.NewWSBFromRenaming(n, tasks.NewBoxSolver(mem.NewTaskBox("R", gsb.Renaming(4, 6), 1)))
		},
	}
	// <5,3,-,-> family member: 3-bounded homonymous renaming solved
	// communication-free via Theorem 9 (1 step per process).
	spec53 := gsb.BoundedHomonymous(5, 3)
	delta, ok := nocomm.Build(spec53)
	if !ok {
		t.Fatalf("%v unexpectedly not solvable without communication", spec53)
	}
	bh := campCase{
		name: "bounded-homonymous-5-3",
		spec: spec53,
		build: func(n int) tasks.Solver {
			return tasks.SolverFunc(func(p *sched.Proc, id int) int { return delta[id-1] })
		},
	}
	return []campCase{wsb, bh}
}

// racyCase plants a schedule-dependent bug: a "perfect renaming" solver
// deciding off a racy shared counter, so lost updates yield duplicate
// names on some — not all — interleavings. Campaigns must report exactly
// the reference engines' lexicographically smallest violation.
func racyCase() campCase {
	return campCase{
		name: "racy-renaming-3",
		spec: gsb.PerfectRenaming(3),
		build: func(n int) tasks.Solver {
			counter := 0
			return tasks.SolverFunc(func(p *sched.Proc, id int) int {
				v := p.Exec("X.read", func() any { return counter }).(int)
				p.Exec("X.write", func() any { counter = v + 1; return nil })
				return v + 1
			})
		},
	}
}

var campModes = []Mode{ModeExhaustive, ModePOR, ModePORMemo, ModeWalk, ModePCT, ModeCrash}

// optsFor builds the exploration options selecting the given mode.
func optsFor(mode Mode, workers int) sched.ExploreOptions {
	opts := sched.ExploreOptions{Workers: workers, Seed: 3}
	switch mode {
	case ModePOR:
		opts.Reduction = sched.ReductionSleepSets
	case ModePORMemo:
		opts.Reduction = sched.ReductionSleepMemo
	case ModeWalk:
		opts.SampleRuns = 300
	case ModePCT:
		opts.SampleRuns = 300
		opts.SampleMode = sched.SamplePCT
		opts.Depth = 3
	case ModeCrash:
		opts.CrashRuns = 300
		opts.CrashProb = 0.05
	}
	return opts
}

// reference runs the uninterrupted single-process mode and returns its
// count, sampling report (zero outside sampling) and verdict text.
func reference(t *testing.T, tc campCase, opts sched.ExploreOptions) (int, sample.Report, string) {
	t.Helper()
	ids := sched.DefaultIDs(tc.spec.N())
	if opts.SampleRuns > 0 {
		rep, err := tasks.SampleVerified(context.Background(), tc.spec, ids, opts, tc.build)
		return rep.Runs, rep, errText(err)
	}
	count, err := tasks.ExploreVerified(context.Background(), tc.spec, ids, opts, tc.build)
	return count, sample.Report{}, errText(err)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func cfgFor(tc campCase, opts sched.ExploreOptions, path string) Config {
	return Config{
		Protocol:        tc.name,
		Spec:            tc.spec,
		Opts:            opts,
		Build:           tc.build,
		CheckpointEvery: 100,
		Path:            path,
	}
}

// checkAgainstReference compares a campaign report + verdict against the
// uninterrupted single-process reference of the same options.
func checkAgainstReference(t *testing.T, label string, tc campCase, opts sched.ExploreOptions, rep Report, err error) {
	t.Helper()
	wantCount, wantSample, wantErr := reference(t, tc, opts)
	if rep.Schedules != wantCount || errText(err) != wantErr {
		t.Errorf("%s: campaign (%d, %q), reference (%d, %q)", label, rep.Schedules, errText(err), wantCount, wantErr)
	}
	if opts.SampleRuns > 0 && rep.Classes != wantSample.Classes {
		t.Errorf("%s: campaign found %d classes, reference %d", label, rep.Classes, wantSample.Classes)
	}
}

// TestCampaignUninterruptedMatchesReference: a campaign that never
// pauses reports exactly what the one-shot engines report, in every mode
// at workers 1, 2 and 8.
func TestCampaignUninterruptedMatchesReference(t *testing.T) {
	for _, tc := range campCases(t) {
		for _, mode := range campModes {
			for _, workers := range []int{1, 2, 8} {
				opts := optsFor(mode, workers)
				path := filepath.Join(t.TempDir(), "c.ckpt")
				rep, err := Start(context.Background(), cfgFor(tc, opts, path))
				label := fmt.Sprintf("%s %s workers=%d", tc.name, mode, workers)
				if !rep.Done {
					t.Errorf("%s: campaign not done", label)
				}
				checkAgainstReference(t, label, tc, opts, rep, err)
			}
		}
	}
}

// TestCampaignKillResumeMatchesReference kills campaigns at random
// checkpoints — the in-memory engine is discarded, only the snapshot
// file survives — and resumes until done, possibly dying several times.
// The final report must be identical to the uninterrupted reference, in
// every mode, for clean and violating protocols.
func TestCampaignKillResumeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := append(campCases(t), racyCase())
	for _, tc := range cases {
		for _, mode := range campModes {
			opts := optsFor(mode, 2)
			path := filepath.Join(t.TempDir(), "c.ckpt")
			label := fmt.Sprintf("%s %s", tc.name, mode)

			cfg := cfgFor(tc, opts, path)
			cfg.CheckpointEvery = 50
			var rep Report
			var err error
			for attempt := 0; ; attempt++ {
				if attempt > 1000 {
					t.Fatalf("%s: campaign failed to finish after %d kills", label, attempt)
				}
				ctx, cancel := context.WithCancel(context.Background())
				killAt := 1 + rng.Intn(3)
				seen := 0
				cfg.OnCheckpoint = func(Header) {
					if seen++; seen == killAt {
						cancel()
					}
				}
				if attempt == 0 {
					rep, err = Start(ctx, cfg)
				} else {
					rep, err = Resume(ctx, cfg)
				}
				cancel()
				if !errors.Is(err, ErrPaused) {
					break
				}
			}
			if !rep.Done {
				t.Errorf("%s: campaign not done after resume chain", label)
			}
			checkAgainstReference(t, label, tc, opts, rep, err)
		}
	}
}

// TestCampaignShardMergeMatchesReference runs every campaign as 3
// independent shards — each checkpointing and being killed/resumed on
// its own — and asserts the merged report is identical to the
// uninterrupted single-process reference, in every mode, for clean and
// violating protocols.
func TestCampaignShardMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cases := append(campCases(t), racyCase())
	for _, tc := range cases {
		for _, mode := range campModes {
			const shards = 3
			opts := optsFor(mode, 2)
			dir := t.TempDir()
			label := fmt.Sprintf("%s %s", tc.name, mode)
			paths := make([]string, shards)
			for s := 0; s < shards; s++ {
				paths[s] = filepath.Join(dir, fmt.Sprintf("shard-%d.ckpt", s))
				cfg := cfgFor(tc, opts, paths[s])
				cfg.Shard, cfg.Of = s, shards
				cfg.CheckpointEvery = 40
				var err error
				for attempt := 0; ; attempt++ {
					if attempt > 1000 {
						t.Fatalf("%s shard %d: failed to finish", label, s)
					}
					ctx, cancel := context.WithCancel(context.Background())
					if rng.Intn(2) == 0 { // half the attempts die at the first checkpoint
						cfg.OnCheckpoint = func(Header) { cancel() }
					} else {
						cfg.OnCheckpoint = nil
					}
					if attempt == 0 {
						_, err = Start(ctx, cfg)
					} else {
						_, err = Resume(ctx, cfg)
					}
					cancel()
					if !errors.Is(err, ErrPaused) {
						break
					}
				}
			}
			mergeCfg := cfgFor(tc, opts, paths[0])
			rep, err := Merge(context.Background(), mergeCfg, paths)
			checkAgainstReference(t, label, tc, opts, rep, err)
		}
	}
}

// TestCampaignResumeRejectsChangedOptions: resuming a snapshot under any
// changed campaign-defining option fails loudly with ErrOptionsMismatch.
func TestCampaignResumeRejectsChangedOptions(t *testing.T) {
	tc := campCases(t)[0]
	opts := optsFor(ModeWalk, 2)
	path := filepath.Join(t.TempDir(), "c.ckpt")
	cfg := cfgFor(tc, opts, path)
	cfg.CheckpointEvery = 50

	ctx, cancel := context.WithCancel(context.Background())
	cfg.OnCheckpoint = func(Header) { cancel() }
	_, err := Start(ctx, cfg)
	cancel()
	if !errors.Is(err, ErrPaused) {
		t.Fatalf("expected a paused campaign, got %v", err)
	}

	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"seed", func(c *Config) { c.Opts.Seed = 4 }},
		{"runs", func(c *Config) { c.Opts.SampleRuns = 301 }},
		{"mode", func(c *Config) { c.Opts.SampleMode = sched.SamplePCT }},
		{"reduction", func(c *Config) { c.Opts.SampleRuns = 0; c.Opts.Reduction = sched.ReductionSleepSets }},
		{"protocol", func(c *Config) { c.Protocol = "other" }},
	}
	for _, m := range mutations {
		bad := cfg
		bad.OnCheckpoint = nil
		m.mutate(&bad)
		if _, err := Resume(context.Background(), bad); !errors.Is(err, ErrOptionsMismatch) {
			t.Errorf("resume with changed %s: got %v, want ErrOptionsMismatch", m.name, err)
		}
	}
	// Changing only execution details must be allowed.
	ok := cfg
	ok.OnCheckpoint = nil
	ok.Opts.Workers = 7
	ok.CheckpointEvery = 999
	if rep, err := Resume(context.Background(), ok); err != nil || !rep.Done {
		t.Errorf("resume with changed workers/interval: (%+v, %v)", rep, err)
	}
}

// TestCampaignSnapshotValidation: corrupted and foreign files are
// rejected with specific errors, and Start refuses to overwrite an
// existing snapshot without Force.
func TestCampaignSnapshotValidation(t *testing.T) {
	dir := t.TempDir()
	tc := campCases(t)[1]
	opts := optsFor(ModeExhaustive, 1)
	path := filepath.Join(dir, "c.ckpt")
	cfg := cfgFor(tc, opts, path)
	if _, err := Start(context.Background(), cfg); err != nil {
		t.Fatalf("campaign: %v", err)
	}

	if _, err := Start(context.Background(), cfg); err == nil {
		t.Error("second Start over an existing snapshot succeeded without Force")
	}
	cfg.Force = true
	if _, err := Start(context.Background(), cfg); err != nil {
		t.Errorf("Start with Force: %v", err)
	}

	notSnap := filepath.Join(dir, "not-a-snapshot")
	if err := os.WriteFile(notSnap, []byte("{\"magic\":\"nope\"}\n{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Path = notSnap
	if _, err := Resume(context.Background(), bad); err == nil {
		t.Error("resume of a non-snapshot file succeeded")
	}

	// A truncated payload (header only) must be rejected, not treated as
	// an empty state.
	if _, err := ReadHeader(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nl := 0
	for i, b := range data {
		if b == '\n' {
			nl = i
			break
		}
	}
	trunc := filepath.Join(dir, "truncated.ckpt")
	if err := os.WriteFile(trunc, data[:nl+1], 0o644); err != nil {
		t.Fatal(err)
	}
	bad.Path = trunc
	if _, err := Resume(context.Background(), bad); err == nil {
		t.Error("resume of a truncated snapshot succeeded")
	}

	// Status on the good snapshot reports a finished campaign.
	st, err := ReadHeader(path)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if !st.Done || st.Mode != ModeExhaustive || st.Result == nil || st.Result.Schedules == 0 {
		t.Errorf("status of a finished campaign: %+v", st)
	}
}

// TestDecodeHeaderValidation: decodeHeader rejects each kind of bad
// header line with its own error, including a header whose hash is right
// but whose mode is not the one its options select.
func TestDecodeHeaderValidation(t *testing.T) {
	valid := Header{
		Mode: ModeWalk, Protocol: "slot-renaming", Task: "wait-free", N: 4,
		IDs: []int{1, 2, 3, 4}, Of: 2, Shard: 1,
		Options: optionsHeader(sched.ExploreOptions{Seed: 1, SampleRuns: 3000}),
	}
	// line renders h with its magic, version and a hash that covers it.
	line := func(h Header) string {
		h.Magic, h.Version = Magic, Version
		h.OptionsHash = optionsHash(h)
		b, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	with := func(edit func(*Header)) string {
		h := valid
		edit(&h)
		return line(h)
	}
	for _, tc := range []struct {
		name string
		data string
		want []string // substrings of the error; none for a valid header
	}{
		{"valid", line(valid), nil},
		{"no header line", `{"magic":"gsb-campaign"}`, []string{"no header line"}},
		{"not JSON", "gsb-campaign\n", []string{"not JSON"}},
		{"wrong magic", strings.Replace(line(valid), Magic, "nope", 1), []string{"not a campaign snapshot"}},
		{"wrong version", strings.Replace(line(valid), fmt.Sprintf(`"version":%d`, Version), `"version":99`, 1), []string{"format version 99"}},
		{"hash mismatch", strings.Replace(line(valid), `"seed":1`, `"seed":2`, 1), []string{"hash"}},
		{"invalid shard", with(func(h *Header) { h.Shard = 2 }), []string{"shard 2 of 2"}},
		{"mode contradicts options", with(func(h *Header) { h.Mode = ModeCrash }), []string{string(ModeCrash), string(ModeWalk)}},
		{"pct mode over walk options", with(func(h *Header) { h.Mode = ModePCT }), []string{string(ModePCT), string(ModeWalk)}},
	} {
		_, _, err := decodeHeader([]byte(tc.data))
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, w)
			}
		}
	}
}

// TestDecodeSnapshotPoolAndClassRuns: a seeded payload must carry a pool
// of the header's shard (a zero pool is shard 0 of 1), and every class of
// a sample payload must have been first seen at a run its pool has
// executed: a non-negative run of the shard below its next index.
func TestDecodeSnapshotPoolAndClassRuns(t *testing.T) {
	header := func(mode Mode, shard, of int, opts sched.ExploreOptions) string {
		h := Header{Magic: Magic, Version: Version, Mode: mode, Protocol: "reg", Task: "wait-free",
			N: 2, IDs: []int{1, 2}, Shard: shard, Of: of, Options: optionsHeader(opts)}
		h.OptionsHash = optionsHash(h)
		b, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	// Shard 1 of 2 has run 1, 3 and 5 at next index 3.
	walk := header(ModeWalk, 1, 2, sched.ExploreOptions{Seed: 1, SampleRuns: 10})
	sample := func(pool, classes string) string {
		return fmt.Sprintf(`{"sample":{"pool":%s,"classes":%s}}`, pool, classes)
	}
	pool := `{"shard":1,"of":2,"next":3,"completed":3}`
	walk0 := header(ModeWalk, 0, 1, sched.ExploreOptions{Seed: 1, SampleRuns: 10})
	crash0 := header(ModeCrash, 0, 1, sched.ExploreOptions{Seed: 1, CrashRuns: 10, CrashProb: 0.1})
	crash1 := header(ModeCrash, 1, 2, sched.ExploreOptions{Seed: 1, CrashRuns: 10, CrashProb: 0.1})
	for _, tc := range []struct {
		name string
		data string
		want string // a substring of the error; empty for a valid snapshot
	}{
		{"valid sample", walk + sample(pool, `{"7":1,"8":5,"9":3}`), ""},
		{"valid sample, no classes", walk + sample(pool, `{}`), ""},
		{"valid sample, zero pool", walk0 + sample(`{"next":3,"completed":3}`, `{"7":0,"8":2}`), ""},
		{"valid crash, zero pool", crash0 + `{"crash":{"next":4,"completed":4}}`, ""},
		{"valid crash", crash1 + `{"crash":{"shard":1,"of":2,"next":4,"completed":4}}`, ""},
		{"sample pool of another shard", walk + sample(`{"shard":0,"of":2,"next":3,"completed":3}`, `{}`),
			"pool is shard 0 of 2, the header's is shard 1 of 2"},
		{"sample pool of another split", walk + sample(`{"shard":1,"of":3,"next":3,"completed":3}`, `{}`),
			"pool is shard 1 of 3"},
		{"zero sample pool under shard 1", walk + sample(`{"next":3,"completed":3}`, `{}`),
			"pool is shard 0 of 0, the header's is shard 1 of 2"},
		{"crash pool of another shard", crash0 + `{"crash":{"shard":1,"of":2,"next":4,"completed":4}}`,
			"pool is shard 1 of 2, the header's is shard 0 of 1"},
		{"zero crash pool under shard 1", crash1 + `{"crash":{"next":4,"completed":4}}`,
			"pool is shard 0 of 0, the header's is shard 1 of 2"},
		{"class at a negative run", walk + sample(pool, `{"7":1,"8":-1}`), "class 8 first seen at run -1, not a run shard 1 of 2 has executed"},
		{"class at another shard's run", walk + sample(pool, `{"7":1,"8":4}`), "class 8 first seen at run 4, not a run shard 1 of 2"},
		{"class at the shard's next run", walk + sample(pool, `{"7":1,"8":7}`), "class 8 first seen at run 7, not a run shard 1 of 2"},
		{"class after the shard's next run", walk + sample(pool, `{"8":9}`), "class 8 first seen at run 9, not a run shard 1 of 2"},
		{"class at a zero pool's next run", walk0 + sample(`{"next":3,"completed":3}`, `{"8":3}`), "class 8 first seen at run 3, not a run shard 0 of 1"},
	} {
		_, _, err := decodeSnapshot([]byte(tc.data))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

// TestCampaignResumeAfterDone: resuming a finished campaign is a cheap
// no-op that reproduces the final report.
func TestCampaignResumeAfterDone(t *testing.T) {
	tc := campCases(t)[1]
	opts := optsFor(ModePOR, 2)
	path := filepath.Join(t.TempDir(), "c.ckpt")
	cfg := cfgFor(tc, opts, path)
	rep1, err1 := Start(context.Background(), cfg)
	if err1 != nil {
		t.Fatalf("start: %v", err1)
	}
	rep2, err2 := Resume(context.Background(), cfg)
	if err2 != nil || rep2.Schedules != rep1.Schedules || !rep2.Done {
		t.Errorf("resume after done: (%+v, %v), first run (%+v)", rep2, err2, rep1)
	}
}
