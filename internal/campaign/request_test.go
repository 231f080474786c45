package campaign

import (
	"path/filepath"
	"testing"
)

// TestRequestIdentity pins the options hash every request mode maps to.
// Snapshots written by earlier builds resume only while the mapping from
// a request to engine options hashes exactly as it did when they were
// started, so these values must never change; a new request field or
// mode gets a new row instead. The golden hashes were captured from the
// gsbfleet/v1 submission path, which shares this mapping with
// `gsbcampaign start`.
func TestRequestIdentity(t *testing.T) {
	cases := []struct {
		req    Request
		shards int
		mode   Mode
		hash   string
	}{
		{Request{Protocol: "slot-renaming", N: 3, Mode: "exhaustive", Seed: 1}, 1, ModeExhaustive, "80af56025dc3ca7c"},
		{Request{Protocol: "wsb", N: 4, Mode: "por", Seed: 1}, 2, ModePOR, "54cc67e388f42c8e"},
		{Request{Protocol: "slot-renaming", N: 4, Mode: "por-memo", Seed: 1, MaxRuns: 1 << 20}, 2, ModePORMemo, "caa3b4e92404017d"},
		{Request{Protocol: "slot-renaming", N: 6, Mode: "walk", Runs: 60000, Seed: 1}, 3, ModeWalk, "60577d2925bb0802"},
		{Request{Protocol: "wsb", N: 4, Mode: "pct", Runs: 500, PCTDepth: 3, Seed: 7}, 1, ModePCT, "413a275271698dac"},
		{Request{Protocol: "renaming", N: 3, Mode: "crash", Runs: 200, CrashProb: 0.05, Seed: 1, MaxSteps: 4096}, 1, ModeCrash, "406655685a969b22"},
		{Request{Protocol: "wsb", N: 4, Mode: "crash", Runs: 100, CrashProb: 0.1, Model: "regular", Adversary: "t-resilient", Seed: 3}, 2, ModeCrash, "2f1ffbd00fb6ba54"},
	}
	for _, tc := range cases {
		t.Run(tc.req.Mode+"/"+tc.req.Protocol, func(t *testing.T) {
			cfg, err := tc.req.Config(0, tc.shards, filepath.Join(t.TempDir(), "c.ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			h, err := Identity(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if h.Mode != tc.mode || h.OptionsHash != tc.hash {
				t.Errorf("identity = %s %s, want %s %s", h.Mode, h.OptionsHash, tc.mode, tc.hash)
			}
			// Every shard's share of the run budget adds up to the
			// request's runs (0 for the enumerating modes).
			var sum int64
			for s := 0; s < tc.shards; s++ {
				hs := h
				hs.Shard = s
				sum += hs.ShardTotal()
			}
			if want := int64(tc.req.Runs); sum != want {
				t.Errorf("shard totals sum to %d over %d shards, want %d", sum, tc.shards, want)
			}
		})
	}
	// Uneven splits, including more shards than runs.
	for _, split := range []struct{ runs, of int }{{10, 3}, {2, 3}, {7, 2}, {1, 1}} {
		var sum int64
		for s := 0; s < split.of; s++ {
			h := Header{Mode: ModeWalk, Shard: s, Of: split.of}
			h.Options.SampleRuns = split.runs
			sum += h.ShardTotal()
		}
		if sum != int64(split.runs) {
			t.Errorf("%d runs over %d shards: shard totals sum to %d", split.runs, split.of, sum)
		}
	}
}

// TestShardTotal pins each shard's own share: seeded modes divide their
// run budget by residue across shards, enumerating modes have no
// up-front total.
func TestShardTotal(t *testing.T) {
	h := func(mode Mode, runs, shard, of int) Header {
		hh := Header{Mode: mode, Shard: shard, Of: of}
		if mode == ModeCrash {
			hh.Options.CrashRuns = runs
		} else {
			hh.Options.SampleRuns = runs
		}
		return hh
	}
	cases := []struct {
		name string
		h    Header
		want int64
	}{
		{"walk-shard0", h(ModeWalk, 10, 0, 3), 4},
		{"walk-shard1", h(ModeWalk, 10, 1, 3), 3},
		{"walk-shard2", h(ModeWalk, 10, 2, 3), 3},
		{"pct", h(ModePCT, 6, 0, 2), 3},
		{"crash", h(ModeCrash, 7, 1, 2), 3},
		{"more-shards-than-runs", h(ModeWalk, 2, 2, 3), 0},
		{"exhaustive-unknown", h(ModeExhaustive, 0, 0, 1), 0},
		{"por-unknown", h(ModePOR, 0, 0, 1), 0},
		{"no-shard-count", h(ModeWalk, 10, 0, 0), 0},
	}
	for _, tc := range cases {
		if got := tc.h.ShardTotal(); got != tc.want {
			t.Errorf("%s: ShardTotal = %d, want %d", tc.name, got, tc.want)
		}
	}
}
