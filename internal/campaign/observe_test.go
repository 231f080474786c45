package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sample"
	"repro/internal/sched"
	"repro/internal/stats"
)

// statsCounters extracts the deterministic engine counters from a report:
// runs always; schedules for the explore family; classes for the sample
// family. Steals, prunes and the checkpoint metrics are inherently
// interleaving- or life-dependent and are never differential-tested.
func statsCounters(t *testing.T, label string, rep Report) map[string]int64 {
	t.Helper()
	if rep.Stats == nil {
		t.Fatalf("%s: report carries no stats snapshot", label)
	}
	out := map[string]int64{sched.MetricRuns: rep.Stats.Counter(sched.MetricRuns)}
	switch rep.Mode.family() {
	case "explore":
		out[sched.MetricSchedules] = rep.Stats.Counter(sched.MetricSchedules)
		out[sched.MetricAborts] = rep.Stats.Counter(sched.MetricAborts)
		out[sched.MetricBlockedBranches] = rep.Stats.Counter(sched.MetricBlockedBranches)
	case "sample":
		out[sample.MetricClasses] = rep.Stats.Counter(sample.MetricClasses)
	}
	return out
}

func diffCounters(t *testing.T, label string, got, want map[string]int64) {
	t.Helper()
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s: %s = %d, want %d (uninterrupted reference)", label, name, g, w)
		}
	}
}

// TestCampaignStatsKillResumeCumulative is the resume-preserves-counters
// differential: a campaign killed at random checkpoints and resumed until
// done must report exactly the cumulative counter totals of an
// uninterrupted run — not the last process life's. Clean (non-violating)
// protocols only: with a violation in flight, pruning races make the
// work-done counters legitimately nondeterministic.
func TestCampaignStatsKillResumeCumulative(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	killed := 0 // campaigns that died at least once across the matrix
	for _, tc := range campCases(t) {
		for _, mode := range campModes {
			opts := optsFor(mode, 2)
			label := fmt.Sprintf("%s %s", tc.name, mode)

			ref, err := Start(context.Background(), cfgFor(tc, opts, filepath.Join(t.TempDir(), "ref.ckpt")))
			if err != nil {
				t.Fatalf("%s: reference campaign: %v", label, err)
			}
			want := statsCounters(t, label, ref)

			cfg := cfgFor(tc, opts, filepath.Join(t.TempDir(), "c.ckpt"))
			cfg.CheckpointEvery = 50
			var rep Report
			lives := 0
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
				lives++
				if !errors.Is(err, ErrPaused) {
					break
				}
			}
			if err != nil {
				t.Fatalf("%s: resumed campaign: %v", label, err)
			}
			if lives >= 2 {
				killed++
				// The registry is snapshotted before each timed write, so
				// checkpoint N records N-1 writes: a multi-life campaign
				// must still have accumulated earlier lives' writes.
				if w := rep.Stats.Counter(MetricCheckpointWrites); w < 1 {
					t.Errorf("%s: %s = %d across %d lives", label, MetricCheckpointWrites, w, lives)
				}
			}
			diffCounters(t, label, statsCounters(t, label, rep), want)
		}
	}
	if killed == 0 {
		t.Fatal("no campaign in the matrix was ever killed; the differential tested nothing")
	}
}

// TestCampaignStatsMergeCumulative: the merged stats of a 3-way sharded
// campaign equal an unsharded run's — runs, schedules and aborts sum
// exactly, and the sampler's class counter is recomputed by Merge.
func TestCampaignStatsMergeCumulative(t *testing.T) {
	for _, tc := range campCases(t) {
		for _, mode := range campModes {
			const shards = 3
			opts := optsFor(mode, 2)
			label := fmt.Sprintf("%s %s", tc.name, mode)

			ref, err := Start(context.Background(), cfgFor(tc, opts, filepath.Join(t.TempDir(), "ref.ckpt")))
			if err != nil {
				t.Fatalf("%s: reference campaign: %v", label, err)
			}
			want := statsCounters(t, label, ref)

			dir := t.TempDir()
			paths := make([]string, shards)
			for s := 0; s < shards; s++ {
				paths[s] = filepath.Join(dir, fmt.Sprintf("shard-%d.ckpt", s))
				cfg := cfgFor(tc, opts, paths[s])
				cfg.Shard, cfg.Of = s, shards
				cfg.CheckpointEvery = 40
				if _, err := Start(context.Background(), cfg); err != nil {
					t.Fatalf("%s shard %d: %v", label, s, err)
				}
			}
			rep, err := Merge(context.Background(), cfgFor(tc, opts, paths[0]), paths)
			if err != nil {
				t.Fatalf("%s: merge: %v", label, err)
			}
			diffCounters(t, label, statsCounters(t, label, rep), want)
		}
	}
}

// TestObserverEndpoints runs a deterministic walk campaign to completion
// under an Observer and golden-checks the /metrics and /status endpoints
// against the final report.
func TestObserverEndpoints(t *testing.T) {
	tc := campCases(t)[0]
	opts := optsFor(ModeWalk, 2)
	obs := NewObserver()
	cfg := cfgFor(tc, opts, filepath.Join(t.TempDir(), "c.ckpt"))
	cfg.CheckpointEvery = 100
	cfg.Observer = obs
	rep, err := Start(context.Background(), cfg)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}

	srv := httptest.NewServer(obs.Handler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	metrics := string(raw)
	for _, line := range []string{
		fmt.Sprintf("%s %d", sched.MetricRuns, opts.SampleRuns),
		fmt.Sprintf("%s %d", sample.MetricClasses, rep.Classes),
		fmt.Sprintf("%s %d", MetricCheckpointWrites, rep.Checkpoints),
		"# TYPE " + MetricCheckpointSeconds + " histogram",
	} {
		if !strings.Contains(metrics, line+"\n") {
			t.Errorf("/metrics missing line %q in:\n%s", line, metrics)
		}
	}

	res, err = srv.Client().Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st StatusRecord
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if st.Schema != StatusSchema {
		t.Errorf("/status schema = %q, want %q", st.Schema, StatusSchema)
	}
	if !st.Done || st.Runs != int64(opts.SampleRuns) || st.Classes != int64(rep.Classes) {
		t.Errorf("/status = %+v, want done with runs=%d classes=%d", st, opts.SampleRuns, rep.Classes)
	}
	if st.Mode != ModeWalk || st.Protocol != tc.name || st.Of != 1 {
		t.Errorf("/status identity = %+v", st)
	}
	if st.TotalRuns != int64(opts.SampleRuns) || st.Checkpoints != int64(rep.Checkpoints) {
		t.Errorf("/status totals = %+v, want total_runs=%d checkpoints=%d", st, opts.SampleRuns, rep.Checkpoints)
	}
	if st.LastCheckpointAgeSec == nil || *st.LastCheckpointAgeSec < 0 {
		t.Errorf("/status last_checkpoint_age_sec = %v, want >= 0", st.LastCheckpointAgeSec)
	}

	prog := obs.Progress()
	if prog.Schema != ProgressSchema || prog.Time == "" {
		t.Errorf("progress record = %+v, want schema %q with a timestamp", prog, ProgressSchema)
	}
	if prog.Runs != int64(opts.SampleRuns) {
		t.Errorf("progress runs = %d, want %d", prog.Runs, opts.SampleRuns)
	}
}

// TestObserverAdversaryEventsEndpoint golden-checks the
// gsb_adversary_events_total exposition: a crash-sweep campaign under a
// non-default adversary serves the counter on /metrics, and the exposed
// figure equals the final report's checkpointed total.
func TestObserverAdversaryEventsEndpoint(t *testing.T) {
	tc := campCases(t)[0]
	opts := optsFor(ModeCrash, 2)
	opts.CrashProb = 0.15
	opts.Adversary = sched.AdversaryTResilient
	obs := NewObserver()
	cfg := cfgFor(tc, opts, filepath.Join(t.TempDir(), "c.ckpt"))
	cfg.Observer = obs
	rep, err := Start(context.Background(), cfg)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	events := rep.Stats.Counter(sched.MetricAdversaryEvents)
	if events == 0 {
		t.Fatal("sweep injected no crashes at CrashProb 0.15; the golden is vacuous")
	}

	srv := httptest.NewServer(obs.Handler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf("%s %d", sched.MetricAdversaryEvents, events)
	if !strings.Contains(string(raw), line+"\n") {
		t.Errorf("/metrics missing line %q in:\n%s", line, raw)
	}
}

// TestObserverRebaseAfterResume: a resumed campaign's runs/sec measures
// the current life while its run counters stay cumulative — the rate base
// must re-anchor past the restored totals, or a freshly resumed campaign
// would report an absurd instantaneous rate.
func TestObserverRebaseAfterResume(t *testing.T) {
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

	obs := NewObserver()
	cfg.OnCheckpoint = nil
	cfg.Observer = obs
	rep, err := Resume(context.Background(), cfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	st := obs.status()
	if st.Runs != int64(opts.SampleRuns) {
		t.Errorf("resumed status runs = %d, want cumulative %d", st.Runs, opts.SampleRuns)
	}
	// The restored 50 runs happened in the first life: this life's rate
	// base must exclude them, so rate * elapsed is bounded by the runs
	// this life actually executed.
	thisLife := float64(st.RunsPerSec) * st.ElapsedSec
	if thisLife > float64(opts.SampleRuns-50)+1 {
		t.Errorf("rate %f over %fs implies %f runs this life, more than the %d it ran",
			st.RunsPerSec, st.ElapsedSec, thisLife, opts.SampleRuns-50)
	}
	if rep.Stats.Counter(sched.MetricRuns) != int64(opts.SampleRuns) {
		t.Errorf("final stats runs = %d, want %d", rep.Stats.Counter(sched.MetricRuns), opts.SampleRuns)
	}
}

// TestEtaSec pins the eta_sec emission rule: 0 (the field is omitted
// from gsbstatus/v1 serialization) whenever no honest estimate exists.
func TestEtaSec(t *testing.T) {
	cases := []struct {
		name  string
		total int64
		runs  int64
		rate  float64
		done  bool
		want  float64
	}{
		{"unknown total (enumerating family)", 0, 500, 100, false, 0},
		{"no rate yet", 300, 100, 0, false, 0},
		{"done", 300, 300, 100, true, 0},
		{"runs at budget", 300, 300, 100, false, 0},
		{"runs past budget (probe overshoot)", 300, 450, 100, false, 0},
		{"mid-flight", 300, 100, 100, false, 2},
	}
	for _, c := range cases {
		if got := ETASec(c.total, c.runs, c.rate, c.done); got != c.want {
			t.Errorf("%s: ETASec(%d, %d, %g, %v) = %g, want %g",
				c.name, c.total, c.runs, c.rate, c.done, got, c.want)
		}
	}
}

// TestStatusOmitsETAForUnknownTotal is the gsbstatus/v1 golden
// regression for the enumerating family: a mid-flight exhaustive
// campaign has a positive rate but no knowable total, so the serialized
// status must carry neither eta_sec nor total_runs — never a bogus
// estimate.
func TestStatusOmitsETAForUnknownTotal(t *testing.T) {
	tc := campCases(t)[0]
	opts := optsFor(ModeExhaustive, 2)
	obs := NewObserver()
	cfg := cfgFor(tc, opts, filepath.Join(t.TempDir(), "c.ckpt"))
	cfg.CheckpointEvery = 50
	cfg.Observer = obs

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mid []byte
	cfg.OnCheckpoint = func(h Header) {
		if mid == nil && !h.Done {
			b, err := json.Marshal(obs.status())
			if err != nil {
				t.Errorf("marshal mid-flight status: %v", err)
			}
			mid = b
			cancel()
		}
	}
	_, err := Start(ctx, cfg)
	if err != nil && !errors.Is(err, ErrPaused) {
		t.Fatalf("campaign: %v", err)
	}
	if mid == nil {
		t.Fatal("campaign finished without a mid-flight checkpoint; shrink CheckpointEvery")
	}
	var st StatusRecord
	if jerr := json.Unmarshal(mid, &st); jerr != nil {
		t.Fatal(jerr)
	}
	if st.Done || st.Runs == 0 || st.RunsPerSec <= 0 {
		t.Fatalf("mid-flight status not usable for the regression: %s", mid)
	}
	for _, key := range []string{"eta_sec", "total_runs"} {
		if strings.Contains(string(mid), `"`+key+`"`) {
			t.Errorf("mid-flight exhaustive status serialized %q: %s", key, mid)
		}
	}
}

// TestStatusETAPresentForSeededTotal is the counterpart golden: a
// mid-flight walk campaign knows its budget, so eta_sec must be present
// and positive.
func TestStatusETAPresentForSeededTotal(t *testing.T) {
	tc := campCases(t)[0]
	opts := optsFor(ModeWalk, 2)
	obs := NewObserver()
	cfg := cfgFor(tc, opts, filepath.Join(t.TempDir(), "c.ckpt"))
	cfg.CheckpointEvery = 100
	cfg.Observer = obs

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mid []byte
	cfg.OnCheckpoint = func(h Header) {
		if mid == nil && !h.Done {
			mid, _ = json.Marshal(obs.status())
			cancel()
		}
	}
	_, err := Start(ctx, cfg)
	if err != nil && !errors.Is(err, ErrPaused) {
		t.Fatalf("campaign: %v", err)
	}
	if mid == nil {
		t.Fatal("campaign finished without a mid-flight checkpoint")
	}
	var st StatusRecord
	if jerr := json.Unmarshal(mid, &st); jerr != nil {
		t.Fatal(jerr)
	}
	if st.TotalRuns != int64(opts.SampleRuns) {
		t.Errorf("mid-flight walk total_runs = %d, want %d", st.TotalRuns, opts.SampleRuns)
	}
	if !strings.Contains(string(mid), `"eta_sec"`) || st.ETASec <= 0 {
		t.Errorf("mid-flight walk status carries no positive eta_sec: %s", mid)
	}
}

// TestCheckpointEncodeTimedWithinWrite: every snapshot write is also
// timed as an encode, and the encode is part of the write, in every
// mode family.
func TestCheckpointEncodeTimedWithinWrite(t *testing.T) {
	tc := campCases(t)[0]
	for _, mode := range []Mode{ModeExhaustive, ModeWalk, ModeCrash} {
		reg := stats.New()
		opts := optsFor(mode, 2)
		opts.Stats = reg
		rep, err := Start(context.Background(), cfgFor(tc, opts, filepath.Join(t.TempDir(), "c.ckpt")))
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		snap := reg.Snapshot()
		writes := snap.Counter(MetricCheckpointWrites)
		enc, wr := snap.Histograms[MetricCheckpointEncodeSeconds], snap.Histograms[MetricCheckpointSeconds]
		if writes < 2 || writes != int64(rep.Checkpoints) {
			t.Errorf("%s: %d writes counted, report says %d checkpoints", mode, writes, rep.Checkpoints)
		}
		if enc.Count != writes || wr.Count != writes {
			t.Errorf("%s: %d encodes and %d timed writes for %d writes", mode, enc.Count, wr.Count, writes)
		}
		if enc.Sum > wr.Sum {
			t.Errorf("%s: encode time %gs exceeds write time %gs", mode, enc.Sum, wr.Sum)
		}
	}
}
