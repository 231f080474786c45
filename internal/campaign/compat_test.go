package campaign

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
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

func porMemoCampaign(t *testing.T, shard, of int, path string) Config {
	t.Helper()
	cfg, err := porMemoRequest.Config(shard, of, path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Opts.Workers = 2
	return cfg
}
