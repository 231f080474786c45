package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

func TestMain(m *testing.M) {
	if os.Getenv("GSB_CLI_UNDER_TEST") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runSelf(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GSB_CLI_UNDER_TEST=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &ee):
		code = ee.ExitCode()
	default:
		t.Fatalf("exec: %v", err)
	}
	return out.String(), errb.String(), code
}

// TestGsbcampaignInvalidUsage: every malformed invocation exits with the
// usage code (2) or the failure code (1) and a diagnostic — never a
// panic, never code 0.
func TestGsbcampaignInvalidUsage(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.ckpt")
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantMsg  string
	}{
		{"no-command", nil, 2, "usage"},
		{"unknown-command", []string{"explode"}, 2, "unknown command"},
		{"start-no-ckpt", []string{"start"}, 2, "-ckpt is required"},
		{"start-bad-mode", []string{"start", "-ckpt", missing, "-mode", "bogus"}, 2, "unknown mode"},
		{"start-walk-no-runs", []string{"start", "-ckpt", missing, "-mode", "walk"}, 2, "needs runs"},
		{"start-bad-shard", []string{"start", "-ckpt", missing, "-shard", "3/2"}, 2, "-shard wants i/m"},
		{"start-shard-not-a-pair", []string{"start", "-ckpt", missing, "-shard", "x"}, 2, "-shard wants i/m"},
		{"start-n-too-small", []string{"start", "-ckpt", missing, "-n", "1"}, 2, "need n >= 2"},
		{"start-bad-protocol", []string{"start", "-ckpt", missing, "-protocol", "bogus"}, 2, "unknown protocol"},
		{"start-undefined-flag", []string{"start", "-bogus"}, 2, "flag provided but not defined"},
		{"start-bad-crash-prob", []string{"start", "-ckpt", missing, "-mode", "crash", "-runs", "10", "-crash", "1.5"}, 2, "outside [0, 1]"},
		{"start-crash-never-crashes", []string{"start", "-ckpt", missing, "-mode", "crash", "-runs", "10", "-crash", "0"}, 2, "needs crash_prob > 0"},
		{"resume-no-ckpt", []string{"resume"}, 2, "-ckpt is required"},
		{"resume-missing-file", []string{"resume", "-ckpt", missing}, 1, "no such file"},
		{"status-no-ckpt", []string{"status"}, 2, "-ckpt is required"},
		{"status-missing-file", []string{"status", "-ckpt", missing}, 1, "no such file"},
		{"merge-no-paths", []string{"merge"}, 2, "at least one snapshot"},
		{"merge-missing-file", []string{"merge", missing}, 1, "no such file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runSelf(t, tc.args...)
			if code != tc.wantCode {
				t.Errorf("args %v: exit %d, want %d\nstdout: %s\nstderr: %s", tc.args, code, tc.wantCode, stdout, stderr)
			}
			if !strings.Contains(strings.ToLower(stderr), strings.ToLower(tc.wantMsg)) {
				t.Errorf("args %v: stderr %q does not mention %q", tc.args, stderr, tc.wantMsg)
			}
		})
	}
}

// TestGsbcampaignLifecycle drives a small campaign through the CLI:
// start to completion, refuse to restart over the snapshot, status,
// resume-after-done, a 2-shard split and merge — checking the JSON
// record schema and the shard/merge count consistency along the way.
func TestGsbcampaignLifecycle(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "c.ckpt")
	base := []string{"-protocol", "wsb", "-n", "4", "-mode", "por", "-seed", "1"}

	stdout, stderr, code := runSelf(t, append([]string{"start", "-ckpt", ckpt, "-json"}, base...)...)
	if code != 0 {
		t.Fatalf("start: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(stdout)), &rec); err != nil {
		t.Fatalf("start output is not JSON: %v\n%s", err, stdout)
	}
	if rec["schema"] != "gsbcampaign/v1" || rec["done"] != true {
		t.Fatalf("start record: %v", rec)
	}
	schedules := rec["schedules"].(float64)
	if schedules <= 0 {
		t.Fatalf("start verified no schedules: %v", rec)
	}

	if _, stderr, code := runSelf(t, append([]string{"start", "-ckpt", ckpt}, base...)...); code != 1 || !strings.Contains(stderr, "already exists") {
		t.Errorf("restart over an existing snapshot: exit %d, stderr %q", code, stderr)
	}

	stdout, _, code = runSelf(t, "status", "-ckpt", ckpt)
	if code != 0 || !strings.Contains(stdout, "done") || !strings.Contains(stdout, "verified") {
		t.Errorf("status: exit %d\n%s", code, stdout)
	}

	stdout, stderr, code = runSelf(t, "resume", "-ckpt", ckpt, "-json")
	if code != 0 {
		t.Fatalf("resume after done: exit %d\nstderr: %s", code, stderr)
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(stdout)), &rec); err != nil || rec["schedules"].(float64) != schedules {
		t.Errorf("resume after done: %v (err %v), want %v schedules", rec, err, schedules)
	}

	// 2-shard split + merge reproduces the single-shard count.
	paths := []string{filepath.Join(dir, "s0.ckpt"), filepath.Join(dir, "s1.ckpt")}
	for s, p := range paths {
		args := append([]string{"start", "-ckpt", p, "-shard", []string{"0/2", "1/2"}[s], "-json"}, base...)
		if stdout, stderr, code := runSelf(t, args...); code != 0 {
			t.Fatalf("shard %d: exit %d\nstdout: %s\nstderr: %s", s, code, stdout, stderr)
		}
	}
	stdout, stderr, code = runSelf(t, "merge", "-json", paths[0], paths[1])
	if code != 0 {
		t.Fatalf("merge: exit %d\nstderr: %s", code, stderr)
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(stdout)), &rec); err != nil {
		t.Fatalf("merge output is not JSON: %v\n%s", err, stdout)
	}
	if rec["schedules"].(float64) != schedules || rec["done"] != true {
		t.Errorf("merge record %v, want %v schedules", rec, schedules)
	}

	// Merging a shard set with a missing member fails loudly.
	if _, stderr, code := runSelf(t, "merge", paths[0]); code != 1 || !strings.Contains(stderr, "shard") {
		t.Errorf("merge of an incomplete shard set: exit %d, stderr %q", code, stderr)
	}
}

// TestGsbcampaignStatusWatch: -watch on a finished, verified snapshot
// prints one progress line and the verdict line and exits 0; on a
// missing snapshot it exits 1.
func TestGsbcampaignStatusWatch(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "c.ckpt")
	if stdout, stderr, code := runSelf(t, "start", "-ckpt", ckpt, "-protocol", "wsb", "-n", "4", "-mode", "por", "-seed", "1"); code != 0 {
		t.Fatalf("start: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	h, err := repro.CampaignStatus(ckpt)
	if err != nil || h.Result == nil {
		t.Fatalf("status of the finished campaign: %+v, %v", h, err)
	}
	stdout, stderr, code := runSelf(t, "status", "-ckpt", ckpt, "-watch", "-interval", "10ms")
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	wantVerdict := fmt.Sprintf("verdict: %d schedules verified", h.Result.Schedules)
	if code != 0 || len(lines) != 2 || !strings.Contains(lines[0], fmt.Sprintf(": %d runs", h.Runs)) || lines[1] != wantVerdict {
		t.Errorf("watch: exit %d, want 0, a progress line at %d runs and %q\nstdout: %s\nstderr: %s", code, h.Runs, wantVerdict, stdout, stderr)
	}

	missing := filepath.Join(t.TempDir(), "missing.ckpt")
	if _, stderr, code := runSelf(t, "status", "-ckpt", missing, "-watch", "-interval", "10ms"); code != 1 || !strings.Contains(stderr, "no such file") {
		t.Errorf("watch of a missing snapshot: exit %d, want 1; stderr %q", code, stderr)
	}
}

// TestGsbcampaignBadResumeTamper: a snapshot whose header was edited
// after the fact fails the hash check on resume — the loud-failure
// contract for drifted or corrupted campaign state.
func TestGsbcampaignBadResumeTamper(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "c.ckpt")
	if _, stderr, code := runSelf(t, "start", "-ckpt", ckpt, "-protocol", "wsb", "-n", "4", "-mode", "por"); code != 0 {
		t.Fatalf("start: exit %d\n%s", code, stderr)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte(`"seed":1`), []byte(`"seed":2`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper target not found in the snapshot header")
	}
	if err := os.WriteFile(ckpt, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr, code := runSelf(t, "resume", "-ckpt", ckpt); code != 1 || !strings.Contains(stderr, "hash") {
		t.Errorf("resume of a tampered snapshot: exit %d, stderr %q", code, stderr)
	}
}

// TestGsbcampaignMergeTimeline: every CLI campaign leaves a timeline
// sidecar next to its snapshot, and `merge -timeline FILE` interleaves
// the shard sidecars into one campaign-wide gsbtimeline/v1 NDJSON file.
func TestGsbcampaignMergeTimeline(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-protocol", "wsb", "-n", "4", "-mode", "por", "-seed", "1"}
	paths := []string{filepath.Join(dir, "s0.ckpt"), filepath.Join(dir, "s1.ckpt")}
	for s, p := range paths {
		args := append([]string{"start", "-ckpt", p, "-shard", []string{"0/2", "1/2"}[s], "-json"}, base...)
		if stdout, stderr, code := runSelf(t, args...); code != 0 {
			t.Fatalf("shard %d: exit %d\nstdout: %s\nstderr: %s", s, code, stdout, stderr)
		}
		if _, err := os.Stat(repro.TimelineSidecarPath(p)); err != nil {
			t.Fatalf("shard %d left no timeline sidecar: %v", s, err)
		}
	}
	out := filepath.Join(dir, "campaign.timeline")
	_, stderr, code := runSelf(t, "merge", "-timeline", out, paths[0], paths[1])
	if code != 0 {
		t.Fatalf("merge: exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "merged timeline") {
		t.Errorf("merge did not announce the merged timeline: %q", stderr)
	}
	recs, err := repro.ReadTimeline(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("merged timeline has %d samples, want one per shard at least", len(recs))
	}
	shards := map[int]bool{}
	for _, r := range recs {
		if r.Schema != "gsbtimeline/v1" {
			t.Fatalf("merged record schema %q", r.Schema)
		}
		shards[r.Shard] = true
	}
	if !shards[0] || !shards[1] {
		t.Errorf("merged timeline covers shards %v, want both", shards)
	}
}

// TestSparkline pins the watch sparkline rendering: runs by default,
// classes preferred when the mode counts them, empty when there is
// nothing to draw, last-w truncation.
func TestSparkline(t *testing.T) {
	if s := sparkline(nil, 8); s != "" {
		t.Errorf("empty timeline sparkline = %q", s)
	}
	if s := sparkline([]repro.TimelineRecord{{Runs: 0}}, 8); s != "" {
		t.Errorf("all-zero sparkline = %q", s)
	}
	runs := []repro.TimelineRecord{{Runs: 0}, {Runs: 50}, {Runs: 100}}
	if s := sparkline(runs, 8); s != "▁▄█" {
		t.Errorf("runs sparkline = %q, want ▁▄█", s)
	}
	classes := []repro.TimelineRecord{{Runs: 100, Classes: 10}, {Runs: 200, Classes: 40}}
	if s := sparkline(classes, 8); s != "▂█" {
		t.Errorf("classes sparkline = %q, want ▂█", s)
	}
	if s := sparkline(runs, 2); s != "▄█" {
		t.Errorf("truncated sparkline = %q, want the last 2 samples", s)
	}
}
