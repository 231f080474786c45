package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
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
// stopped writing its second failure record: they were the hashes of the
// earlier bytes with the retired `,"failed_run":-1` cut out. They changed
// a second time, on purpose, when the class object went from decimal key
// order to first-run order (by value, the smallest run that produced the
// class), so that each checkpoint appends its new classes; every class
// object is checked to list strictly increasing values.
func TestSampleCheckpointBytesGolden(t *testing.T) {
	want := []string{
		"9b6334fbe1368ada736c77da2c54bf34f0ec9be8a2739360e41c64cb7b45adba",
		"596152edd72f786a1aca1a45624f94abc3dacab95ec37e47e974a5abc72f11b6",
		"64d73aa09e591e3eaf3e4b85f56758fad4833cb9f1cc4e3dffe28a928ce6139d",
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
			raw := sampleBytes(t, path)
			sum := sha256.Sum256(raw)
			got = append(got, hex.EncodeToString(sum[:]))
			checkFirstRunOrder(t, raw)
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

// sampleBytes returns the `sample` payload value of the snapshot at path.
func sampleBytes(t *testing.T, path string) []byte {
	t.Helper()
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
	return p.Sample
}

// TestResumedSampleCheckpointBytes: a walk or PCT campaign killed at
// checkpoint k and resumed writes, at every later checkpoint, the same
// `sample` bytes as the uninterrupted campaign. The uninterrupted life
// appends each checkpoint's fresh classes to the class object it kept,
// while the resumed life encodes the decoded map from scratch; first-run
// order makes both the same bytes.
func TestResumedSampleCheckpointBytes(t *testing.T) {
	spec, build, err := SelectProtocol("slot-renaming", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []sched.SampleMode{sched.SampleWalk, sched.SamplePCT} {
		opts := sched.ExploreOptions{Workers: 2, Seed: 3, SampleRuns: 4000, SampleMode: mode}
		// run starts a campaign, killed at checkpoint kill (0: never),
		// resumes it, and returns the sample bytes of each checkpoint the
		// resumed life writes, or of every checkpoint when never killed.
		run := func(kill int) [][]byte {
			path := filepath.Join(t.TempDir(), "c.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var got [][]byte
			checkpoints := 0
			cfg := Config{
				Protocol: "slot-renaming", Spec: spec, Build: build, Opts: opts,
				CheckpointEvery: 500, Path: path,
				OnCheckpoint: func(Header) {
					checkpoints++
					if checkpoints == kill {
						cancel()
					}
					got = append(got, sampleBytes(t, path))
				},
			}
			_, err := Start(ctx, cfg)
			if kill == 0 {
				if err != nil {
					t.Fatalf("%s: %v", ModeOf(opts), err)
				}
				return got
			}
			if !errors.Is(err, ErrPaused) {
				t.Fatalf("%s killed at checkpoint %d: %v, want a pause", ModeOf(opts), kill, err)
			}
			got = nil
			if _, err := Resume(context.Background(), cfg); err != nil {
				t.Fatalf("%s resumed after checkpoint %d: %v", ModeOf(opts), kill, err)
			}
			return got
		}
		want := run(0)
		if len(want) != 8 {
			t.Fatalf("%s: %d checkpoints, want 8", ModeOf(opts), len(want))
		}
		for _, kill := range []int{1, 4, 7} {
			got := run(kill)
			if len(got) != len(want)-kill {
				t.Fatalf("%s killed at checkpoint %d: resumed life wrote %d checkpoints, want %d", ModeOf(opts), kill, len(got), len(want)-kill)
			}
			for i, b := range got {
				if !bytes.Equal(b, want[kill+i]) {
					t.Errorf("%s killed at checkpoint %d: checkpoint %d writes\n%s\nthe uninterrupted campaign wrote\n%s", ModeOf(opts), kill, kill+i+1, b, want[kill+i])
				}
			}
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

// checkFirstRunOrder fails unless the class object of the sample state
// encoded in raw lists its values in strictly increasing order: the
// first-run order of a real batch, where each run produces one class.
func checkFirstRunOrder(t *testing.T, raw []byte) {
	t.Helper()
	var st struct {
		Classes json.RawMessage `json:"classes"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(st.Classes))
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	prev := -1
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var v int
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		if v <= prev {
			t.Fatalf("class %v at run %d follows a class at run %d", key, v, prev)
		}
		prev = v
	}
}
