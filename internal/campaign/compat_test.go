package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sched"
)

// The snapshots under testdata/pormemo were written by a build whose
// por-memo mode kept a canonical-trace memo and checkpointed its class
// hashes under "memo_hashes": one slot-renaming n=3 campaign paused at
// its first checkpoint (31 classes counted), and the three finished
// shards of a 3-way split. They pin that snapshots already on disk keep
// resuming and merging to the same verdict and counters.
var porMemoRequest = Request{Protocol: "slot-renaming", N: 3, Mode: "por-memo", Seed: 1}

const porMemoClasses = 216

// TestPORMemoSnapshotsResumeAndMerge resumes the paused snapshot and
// merges the finished shards, and checks both against an uninterrupted
// campaign of the same request: 216 classes and identical runs,
// schedules and aborts counters.
func TestPORMemoSnapshotsResumeAndMerge(t *testing.T) {
	ref := porMemoCampaign(t, 0, 1, filepath.Join(t.TempDir(), "ref.ckpt"))
	refRep, err := Start(context.Background(), ref)
	if err != nil || refRep.Schedules != porMemoClasses {
		t.Fatalf("reference campaign: %d classes, %v; want %d", refRep.Schedules, err, porMemoClasses)
	}
	want := statsCounters(t, "reference", refRep)

	raw, err := os.ReadFile(filepath.Join("testdata", "pormemo", "paused.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "paused.ckpt")
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	rep, err := Resume(context.Background(), porMemoCampaign(t, 0, 1, path))
	if err != nil || !rep.Done || rep.Schedules != porMemoClasses {
		t.Fatalf("resumed paused snapshot: done=%v, %d classes, %v; want %d", rep.Done, rep.Schedules, err, porMemoClasses)
	}
	diffCounters(t, "resumed", statsCounters(t, "resumed", rep), want)

	paths := make([]string, 3)
	for s := range paths {
		paths[s] = filepath.Join("testdata", "pormemo", fmt.Sprintf("shard-%d.ckpt", s))
	}
	rep, err = Merge(context.Background(), porMemoCampaign(t, 0, 3, paths[0]), paths)
	if err != nil || !rep.Done || rep.Schedules != porMemoClasses {
		t.Fatalf("merged shards: done=%v, %d classes, %v; want %d", rep.Done, rep.Schedules, err, porMemoClasses)
	}
	diffCounters(t, "merged", statsCounters(t, "merged", rep), want)
}

// testdata/por/paused.ckpt is a slot-renaming n=3 por campaign paused at
// its first checkpoint (29 classes counted, 200 runs claimed), written
// by a build whose por walk branched into every awake child. Its
// frontier holds such children; a later walk may treat them as it
// likes, but the campaign must still finish with the same classes.
//
// TestPORSnapshotResumes resumes it to the 216 classes of slot-renaming
// n=3 and checks the cumulative schedules counter agrees.
func TestPORSnapshotResumes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "por", "paused.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "paused.ckpt")
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	req := porMemoRequest
	req.Mode = "por"
	cfg, err := req.Config(0, 1, path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Opts.Workers = 2
	rep, err := Resume(context.Background(), cfg)
	if err != nil || !rep.Done || rep.Schedules != porMemoClasses {
		t.Fatalf("resumed paused snapshot: done=%v, %d classes, %v; want %d", rep.Done, rep.Schedules, err, porMemoClasses)
	}
	if got := statsCounters(t, "resumed", rep)[sched.MetricSchedules]; got != porMemoClasses {
		t.Errorf("resumed: %s = %d, want %d", sched.MetricSchedules, got, porMemoClasses)
	}
}

func porMemoCampaign(t *testing.T, shard, of int, path string) Config {
	t.Helper()
	cfg, err := porMemoRequest.Config(shard, of, path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Opts.Workers = 2
	return cfg
}

// The snapshots under testdata/failrecord were written by a build whose
// sample state recorded its smallest failing run twice, as the pool's
// failure and again under "failed_run", "violation" and
// "failed_message". For each campaign below and each of its shards they
// hold the first checkpoint (when the shard was not yet done there,
// "-first") and the final one ("-last"). reports.json holds what that
// build reported on resuming each file and on merging each campaign's
// final shard snapshots. They pin that snapshots already on disk keep
// resuming and merging to the same verdicts and counts.
type failRecordCase struct {
	name string
	tc   campCase
	mode Mode
	of   int
}

func failRecordCases(t *testing.T) []failRecordCase {
	wsb := campCases(t)[0]
	var cases []failRecordCase
	for _, of := range []int{1, 2} {
		cases = append(cases,
			failRecordCase{"walk-pass", wsb, ModeWalk, of},
			failRecordCase{"walk-fail", racyCase(), ModeWalk, of},
			failRecordCase{"pct-pass", wsb, ModePCT, of},
			failRecordCase{"pct-fail", racyCase(), ModePCT, of},
			failRecordCase{"por-fail", racyCase(), ModePOR, of},
		)
	}
	return append(cases, failRecordCase{"crash-fail", racyCase(), ModeCrash, 1})
}

func (c failRecordCase) config(shard int, path string) Config {
	cfg := cfgFor(c.tc, optsFor(c.mode, 2), path)
	cfg.Shard, cfg.Of = shard, c.of
	cfg.CheckpointEvery = 50
	return cfg
}

// file names one snapshot of the case: which is "first" or "last".
func (c failRecordCase) file(shard int, which string) string {
	return fmt.Sprintf("%s-of%d-s%d-%s.ckpt", c.name, c.of, shard, which)
}

func (c failRecordCase) mergeKey() string { return fmt.Sprintf("%s-of%d-merge", c.name, c.of) }

// pinnedReport is a report without what varies from run to run: its
// stats and this process's checkpoint count.
func pinnedReport(rep Report) Report {
	rep.Stats, rep.Checkpoints = nil, 0
	return rep
}

// TestFailureRecordSnapshotsResumeAndMerge resumes every snapshot under
// testdata/failrecord and merges each campaign's final shard snapshots,
// and checks each report against the one the writing build gave.
func TestFailureRecordSnapshotsResumeAndMerge(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "failrecord", "reports.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]Report
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	checked := 0
	check := func(key string, rep Report, err error) {
		t.Helper()
		checked++
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no pinned report", key)
			return
		}
		if got := pinnedReport(rep); got != w {
			t.Errorf("%s:\n got %+v\nwant %+v", key, got, w)
		}
		if errText(err) != w.Violation {
			t.Errorf("%s: verdict %q, want %q", key, errText(err), w.Violation)
		}
	}
	for _, c := range failRecordCases(t) {
		lasts := make([]string, c.of)
		for s := 0; s < c.of; s++ {
			for _, which := range []string{"first", "last"} {
				name := c.file(s, which)
				src := filepath.Join("testdata", "failrecord", name)
				data, err := os.ReadFile(src)
				if which == "first" && os.IsNotExist(err) {
					continue // the shard was done at its first checkpoint
				}
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(t.TempDir(), name)
				if err := os.WriteFile(path, data, 0o600); err != nil {
					t.Fatal(err)
				}
				rep, err := Resume(ctx, c.config(s, path))
				check(name, rep, err)
				if which == "last" {
					lasts[s] = src
				}
			}
		}
		rep, err := Merge(ctx, c.config(0, lasts[0]), lasts)
		check(c.mergeKey(), rep, err)
	}
	if checked != len(want) {
		t.Errorf("checked %d reports, %d are pinned", checked, len(want))
	}
}
