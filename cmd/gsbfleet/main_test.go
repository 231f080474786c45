package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

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

// TestGsbfleetInvalidUsage: every malformed invocation exits with the
// usage code (2) or failure code (1) and a diagnostic — never a panic,
// never code 0. Submissions are validated client-side, so a typo never
// even reaches a coordinator (the dummy URL below is never dialed).
func TestGsbfleetInvalidUsage(t *testing.T) {
	dummy := "http://127.0.0.1:1"
	missing := filepath.Join(t.TempDir(), "missing.ckpt")
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantMsg  string
	}{
		{"no-command", nil, 2, "usage"},
		{"unknown-command", []string{"explode"}, 2, "unknown command"},
		{"coordinator-no-data", []string{"coordinator"}, 2, "-data is required"},
		{"worker-no-coordinator", []string{"worker"}, 2, "-coordinator is required"},
		{"submit-no-coordinator", []string{"submit"}, 2, "-coordinator is required"},
		{"submit-bad-mode", []string{"submit", "-coordinator", dummy, "-mode", "bogus"}, 2, "unknown mode"},
		{"submit-bad-protocol", []string{"submit", "-coordinator", dummy, "-protocol", "bogus"}, 2, "unknown protocol"},
		{"submit-n-too-small", []string{"submit", "-coordinator", dummy, "-n", "1"}, 2, "n >= 2"},
		{"submit-walk-no-runs", []string{"submit", "-coordinator", dummy, "-mode", "walk"}, 2, "needs runs"},
		{"submit-adversary-without-crash", []string{"submit", "-coordinator", dummy, "-adversary", "uniform-crash"}, 2, "needs mode crash"},
		{"submit-negative-shards", []string{"submit", "-coordinator", dummy, "-shards", "-3"}, 2, "shards >= 1"},
		{"submit-too-many-shards", []string{"submit", "-coordinator", dummy, "-shards", "1025"}, 2, "shards <= 1024"},
		{"submit-undefined-flag", []string{"submit", "-bogus"}, 2, "flag provided but not defined"},
		{"submit-unreachable", []string{"submit", "-coordinator", dummy, "-protocol", "wsb", "-n", "4"}, 1, "refused"},
		{"submit-wait-zero-interval", []string{"submit", "-coordinator", dummy, "-wait", "-interval", "0"}, 2, "-interval must be positive"},
		{"status-no-coordinator", []string{"status"}, 2, "-coordinator is required"},
		{"status-watch-negative-interval", []string{"status", "-coordinator", dummy, "-watch", "-interval", "-1s"}, 2, "-interval must be positive"},
		{"result-no-id", []string{"result", "-coordinator", dummy}, 2, "-id are required"},
		{"upload-no-flags", []string{"upload"}, 2, "need -coordinator"},
		{"upload-no-file", []string{"upload", "-coordinator", dummy, "-id", "c1", "-shard", "0"}, 2, "one snapshot file"},
		{"upload-missing-file", []string{"upload", "-coordinator", dummy, "-id", "c1", "-shard", "0", missing}, 1, "no such file"},
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

// daemon is a coordinator or worker subprocess whose stderr is captured
// while it runs. drained closes once the capture has read stderr to EOF.
type daemon struct {
	cmd     *exec.Cmd
	stderr  *lockedBuffer
	drained chan struct{}
}

type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// startDaemon launches a gsbfleet subcommand, waits for announce to
// appear on stderr, and returns the first regexp group.
func startDaemon(t *testing.T, announce string, args ...string) (*daemon, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GSB_CLI_UNDER_TEST=1")
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, stderr: &lockedBuffer{}, drained: make(chan struct{})}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	re := regexp.MustCompile(announce)
	found := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.stderr.mu.Lock()
			d.stderr.b.WriteString(line + "\n")
			d.stderr.mu.Unlock()
			if m := re.FindStringSubmatch(line); m != nil {
				select {
				case found <- m[len(m)-1]:
				default:
				}
			}
		}
	}()
	select {
	case got := <-found:
		return d, got
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon %v never announced %q; stderr:\n%s", args, announce, d.stderr.String())
		return nil, ""
	}
}

// sigterm drains the daemon and asserts a clean exit.
func (d *daemon) sigterm(t *testing.T, label string) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("%s: signal: %v", label, err)
	}
	// Wait closes the stderr pipe, so read it to EOF first: the daemon's
	// last lines would otherwise be lost.
	<-d.drained
	err := d.cmd.Wait()
	var ee *exec.ExitError
	if err != nil && (!errors.As(err, &ee) || ee.ExitCode() != 0) {
		t.Errorf("%s: SIGTERM exit: %v\nstderr:\n%s", label, err, d.stderr.String())
	}
}

// TestGsbfleetLifecycle drives a whole fleet through the CLI over a real
// HTTP listener on :0: coordinator up, worker up, submit -wait a 2-shard
// campaign, check status and result, then SIGTERM-drain the worker and
// the coordinator.
func TestGsbfleetLifecycle(t *testing.T) {
	dataDir := t.TempDir()
	coord, url := startDaemon(t, `serving gsbfleet/v1 on (http://\S+)`,
		"coordinator", "-listen", "127.0.0.1:0", "-data", dataDir, "-heartbeat", "2s")
	worker, _ := startDaemon(t, `registered as (\S+)`,
		"worker", "-coordinator", url, "-name", "cli-worker", "-work", t.TempDir(), "-poll", "50ms")

	stdout, stderr, code := runSelf(t,
		"submit", "-coordinator", url, "-protocol", "wsb", "-n", "4", "-mode", "por",
		"-shards", "2", "-every", "50", "-wait", "-interval", "100ms", "-json")
	if code != 0 {
		t.Fatalf("submit -wait: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	var st repro.FleetCampaignStatus
	if err := json.Unmarshal([]byte(strings.TrimSpace(stdout)), &st); err != nil {
		t.Fatalf("submit -wait output is not JSON: %v\n%s", err, stdout)
	}
	if st.State != "done" || st.Report == nil || st.Report.Schedules <= 0 || st.Violation != "" {
		t.Fatalf("submit -wait status: %+v", st)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("campaign ran as %d shards, want 2", len(st.Shards))
	}

	stdout, stderr, code = runSelf(t, "status", "-coordinator", url, "-json")
	if code != 0 {
		t.Fatalf("status: exit %d\n%s", code, stderr)
	}
	var fs repro.FleetStatus
	if err := json.Unmarshal([]byte(strings.TrimSpace(stdout)), &fs); err != nil {
		t.Fatalf("status output is not JSON: %v\n%s", err, stdout)
	}
	if fs.Schema != repro.FleetStatusSchema || len(fs.Workers) != 1 || fs.Done != 2 {
		t.Errorf("fleet status: %+v", fs)
	}
	if fs.Workers[0].Name != "cli-worker" {
		t.Errorf("worker name %q, want cli-worker", fs.Workers[0].Name)
	}

	// The human rendering of the same state.
	stdout, _, code = runSelf(t, "status", "-coordinator", url)
	if code != 0 || !strings.Contains(stdout, "cli-worker") || !strings.Contains(stdout, "done") {
		t.Errorf("text status: exit %d\n%s", code, stdout)
	}

	stdout, stderr, code = runSelf(t, "result", "-coordinator", url, "-id", st.ID)
	if code != 0 || !strings.Contains(stdout, "verified") {
		t.Errorf("result: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if _, stderr, code = runSelf(t, "result", "-coordinator", url, "-id", "c9999"); code != 1 || !strings.Contains(stderr, "unknown campaign") {
		t.Errorf("result of unknown campaign: exit %d, stderr %q", code, stderr)
	}

	worker.sigterm(t, "worker")
	if !strings.Contains(worker.stderr.String(), "drained") {
		t.Errorf("worker did not announce its drain:\n%s", worker.stderr.String())
	}
	coord.sigterm(t, "coordinator")
	if !strings.Contains(coord.stderr.String(), "stopped") {
		t.Errorf("coordinator did not announce its stop:\n%s", coord.stderr.String())
	}
}

// TestGsbfleetUploadTamper: `gsbfleet upload` imports an externally-run
// shard snapshot; a tampered snapshot is rejected with exit 1, the
// intact one is accepted and auto-merges into a result — a campaign
// completed with no worker at all.
func TestGsbfleetUploadTamper(t *testing.T) {
	// A coordinator in-process (its handler on a real :0 listener).
	c, err := repro.NewFleetCoordinator(repro.FleetCoordinatorConfig{
		DataDir:        t.TempDir(),
		ReconcileEvery: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	defer c.Close()

	// Run the identical single-shard campaign locally — the external
	// execution whose snapshot the operator imports.
	spec, build, err := repro.SelectProtocol("wsb", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "external.ckpt")
	cfg := repro.CampaignConfig{
		Protocol: "wsb", Spec: spec, Opts: repro.ExploreOptions{Seed: 1},
		Build: build, Shard: 0, Of: 1, CheckpointEvery: 50, Path: ckpt,
	}
	if _, err := repro.RunCampaign(t.Context(), cfg); err != nil {
		t.Fatalf("external campaign: %v", err)
	}

	stdout, stderr, code := runSelf(t,
		"submit", "-coordinator", srv.URL, "-protocol", "wsb", "-n", "4",
		"-mode", "exhaustive", "-seed", "1", "-shards", "1", "-every", "50", "-json")
	if code != 0 {
		t.Fatalf("submit: exit %d\n%s", code, stderr)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(stdout)), &sub); err != nil {
		t.Fatalf("submit output: %v\n%s", err, stdout)
	}

	// Hand-edit the snapshot header: the upload must fail the hash check
	// with exit 1 and change nothing on the coordinator.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte(`"seed":1`), []byte(`"seed":2`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper target not found in the snapshot header")
	}
	bad := filepath.Join(t.TempDir(), "tampered.ckpt")
	if err := os.WriteFile(bad, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr, code := runSelf(t, "upload", "-coordinator", srv.URL, "-id", sub.ID, "-shard", "0", bad); code != 1 || !strings.Contains(stderr, "hash") {
		t.Errorf("tampered upload: exit %d, stderr %q (want exit 1 mentioning the hash)", code, stderr)
	}

	// The intact snapshot imports cleanly and completes the campaign.
	stdout, stderr, code = runSelf(t, "upload", "-coordinator", srv.URL, "-id", sub.ID, "-shard", "0", ckpt)
	if code != 0 || !strings.Contains(stdout, "done=true") {
		t.Fatalf("upload: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		stdout, stderr, code = runSelf(t, "result", "-coordinator", srv.URL, "-id", sub.ID)
		if code == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never merged: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !strings.Contains(stdout, "verified") {
		t.Errorf("imported campaign result: %q", stdout)
	}
}
