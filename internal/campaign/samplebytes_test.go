package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sched"
	"repro/internal/stats"
)

// TestSampleCheckpointBytesGolden pins the exact bytes of the `sample`
// payload value in every checkpoint file of a small walk campaign
// (slot-renaming n=4, 3,000 runs, a checkpoint every 1,000, seed 1). The
// `stats` part is left out: it carries timings. A change to how the
// sampler's state is encoded — field order, class-key order, escaping —
// changes these hashes; the expected values must never be edited to make
// an encoder pass. They changed once, on purpose, when the sample state
// stopped writing its second failure record: they are the hashes of the
// earlier bytes with the retired `,"failed_run":-1` cut out.
func TestSampleCheckpointBytesGolden(t *testing.T) {
	want := []string{
		"28057f908b94cbd1f920182b44d7c6c5050d24e7f224ca9f4081537e19f3afd6",
		"86e2ab29dd129ff4280a68427c3063c24aecc7d4ae4956c31b98a212411df3bd",
		"bd384f7391d11179c4835f02961ac7416b36eb42f23072e4da28a051662d355e",
	}
	spec, build, err := SelectProtocol("slot-renaming", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "walk.ckpt")
	var got []string
	cfg := Config{
		Protocol: "slot-renaming", Spec: spec, Build: build,
		Opts:            sched.ExploreOptions{Workers: 2, Seed: 1, SampleRuns: 3000, SampleMode: sched.SampleWalk},
		CheckpointEvery: 1000,
		Path:            path,
		OnCheckpoint: func(Header) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_, rest, err := decodeHeader(data)
			if err != nil {
				t.Fatal(err)
			}
			var p struct {
				Sample json.RawMessage `json:"sample"`
			}
			if err := json.Unmarshal(rest, &p); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(p.Sample)
			got = append(got, hex.EncodeToString(sum[:]))
		},
	}
	if _, err := Start(context.Background(), cfg); err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d checkpoints, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("checkpoint %d: sample bytes hash %s, want %s", i+1, got[i], want[i])
		}
	}
}

// TestCheckpointBytesGaugeIsFileSize: after every checkpoint,
// gsb_checkpoint_bytes equals the snapshot's size on disk, which for a
// sample snapshot is the sum of all three parts the writer hands over.
func TestCheckpointBytesGaugeIsFileSize(t *testing.T) {
	spec, build, err := SelectProtocol("slot-renaming", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []sched.ExploreOptions{
		{Workers: 2, Seed: 1, SampleRuns: 3000, SampleMode: sched.SampleWalk},
		{Workers: 2, Seed: 1, CrashRuns: 3000, CrashProb: 0.05},
	} {
		reg := stats.New()
		opts.Stats = reg
		path := filepath.Join(t.TempDir(), "c.ckpt")
		checkpoints := 0
		cfg := Config{
			Protocol: "slot-renaming", Spec: spec, Build: build, Opts: opts,
			CheckpointEvery: 1000, Path: path,
			OnCheckpoint: func(Header) {
				checkpoints++
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				if got := reg.Gauge(MetricCheckpointBytes, "").Value(); got != fi.Size() {
					t.Errorf("%s checkpoint %d: %s = %d, snapshot is %d bytes", ModeOf(opts), checkpoints, MetricCheckpointBytes, got, fi.Size())
				}
			},
		}
		if _, err := Start(context.Background(), cfg); err != nil {
			t.Fatalf("%s: %v", ModeOf(opts), err)
		}
		if checkpoints != 3 {
			t.Fatalf("%s: %d checkpoints, want 3", ModeOf(opts), checkpoints)
		}
	}
}
