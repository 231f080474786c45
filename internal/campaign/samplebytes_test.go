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
)

// TestSampleCheckpointBytesGolden pins the exact bytes of the `sample`
// payload value in every checkpoint file of a small walk campaign
// (slot-renaming n=4, 3,000 runs, a checkpoint every 1,000, seed 1). The
// `stats` part is left out: it carries timings. A change to how the
// sampler's state is encoded — field order, class-key order, escaping —
// changes these hashes; the expected values must never be edited to make
// an encoder pass.
func TestSampleCheckpointBytesGolden(t *testing.T) {
	want := []string{
		"a79f9007f36fa2c583c1fc0ecc16203de8098810f49f720296c22b71c51b3c66",
		"77e57f8040f09471e85be53e3602c8afc479c3a829055270686ecdffc4e2b1f1",
		"1f1f6f2f60e871f84e93e9de434a14a1849c2036b5d51a9962c65a3871103886",
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
