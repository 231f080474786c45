package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/sample"
	"repro/internal/sched"
	"repro/internal/stats"
)

// testSubmission is the standing fleet workload: a registry protocol
// with enough schedules that a shard spans many checkpoint uploads, so
// a kill always lands mid-flight.
func testSubmission(shards int) Submission {
	return Submission{
		Schema: Schema, Protocol: "slot-renaming", N: 4, Mode: "por",
		Seed: 1, Shards: shards, CheckpointEvery: 100,
	}
}

// testCoordinator spins up a coordinator with test-speed timeouts and an
// HTTP server in front of it.
func testCoordinator(t *testing.T) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := NewCoordinator(CoordinatorConfig{
		DataDir:          t.TempDir(),
		HeartbeatTimeout: 500 * time.Millisecond,
		StaleCheckpoint:  30 * time.Second,
		ReconcileEvery:   25 * time.Millisecond,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(func() { srv.Close(); c.Close() })
	return c, srv
}

// testWorker starts a worker against the server and returns it plus a
// done channel carrying Run's error.
func testWorker(t *testing.T, ctx context.Context, srv *httptest.Server, name string) (*Worker, <-chan error) {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		Coordinator: srv.URL, Name: name, WorkDir: t.TempDir(),
		PollEvery: 20 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	return w, done
}

// waitFleet polls the coordinator until cond holds or the deadline
// passes.
func waitFleet(t *testing.T, c *Coordinator, what string, cond func(FleetStatus) bool) FleetStatus {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for {
		st := c.status()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			raw, _ := json.Marshal(st)
			t.Fatalf("timed out waiting for %s; fleet: %s", what, raw)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// localShardReports runs the submission's shards uninterrupted in
// process and merges them — the reference the fleet's merged report must
// equal exactly.
func localMergedReference(t *testing.T, sub Submission) campaign.Report {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, sub.Shards)
	for s := 0; s < sub.Shards; s++ {
		paths[s] = filepath.Join(dir, fmt.Sprintf("shard%d.ckpt", s))
		cfg, err := sub.config(s, paths[s])
		if err != nil {
			t.Fatal(err)
		}
		cfg.Observer = campaign.NewObserver()
		// Checkpoint rarely: the interval is an execution detail outside
		// the options hash, and the reference needs no kill-resilience.
		cfg.CheckpointEvery = 100000
		if _, err := campaign.Start(context.Background(), cfg); err != nil {
			t.Fatalf("reference shard %d: %v", s, err)
		}
	}
	cfg, err := sub.config(0, paths[0])
	if err != nil {
		t.Fatal(err)
	}
	rep, verdict := campaign.Merge(context.Background(), cfg, paths)
	if verdict != nil {
		t.Fatalf("reference merge: %v", verdict)
	}
	return rep
}

// unshardedReference runs the whole campaign as one uninterrupted
// single-process shard.
func unshardedReference(t *testing.T, sub Submission) campaign.Report {
	t.Helper()
	ref := sub
	ref.Shards = 1
	cfg, err := ref.config(0, filepath.Join(t.TempDir(), "ref.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observer = campaign.NewObserver()
	cfg.CheckpointEvery = 100000
	rep, verr := campaign.Start(context.Background(), cfg)
	if verr != nil {
		t.Fatalf("unsharded reference: %v", verr)
	}
	return rep
}

// stripExecution blanks the fields that legitimately differ between two
// exact-equal campaigns: sharding geometry, checkpoint bookkeeping, and
// the stats snapshot (whose deterministic counters are compared
// separately — the full snapshot also carries wall-clock histograms and
// scheduling-dependent counters like work steals).
func stripExecution(rep campaign.Report) campaign.Report {
	rep.Shard, rep.Of, rep.Checkpoints = 0, 0, 0
	rep.Stats = nil
	return rep
}

func reportJSON(t *testing.T, rep campaign.Report) string {
	t.Helper()
	b, err := json.Marshal(stripExecution(rep))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// deterministicCounters picks the engine counters that are exact across
// process lives and re-deals: runs, verified schedules, distinct
// classes.
func deterministicCounters(s *stats.Snapshot) map[string]int64 {
	out := map[string]int64{}
	if s == nil {
		return out
	}
	for _, name := range []string{sched.MetricRuns, sched.MetricSchedules, sample.MetricClasses} {
		out[name] = s.Counters[name]
	}
	return out
}

// TestFleetKillDifferential is the fleet's acceptance differential: a
// 3-shard campaign on two workers, one worker hard-killed mid-shard (no
// release, no final upload — the coordinator only notices the missing
// heartbeats), the shard re-dealt and resumed from its last uploaded
// checkpoint. The merged report must equal BOTH the uninterrupted
// single-process run and an uninterrupted local 3-shard merge — verdict,
// schedule count, classes, and the deterministic cumulative counters —
// proving the re-dealt shard's pre-crash runs were neither lost nor
// counted twice.
func TestFleetKillDifferential(t *testing.T) {
	sub := testSubmission(3)
	c, srv := testCoordinator(t)
	resp, err := c.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	victim, victimDone := testWorker(t, ctx, srv, "victim")
	_, survivorDone := testWorker(t, ctx, srv, "survivor")

	// Kill the victim once it has uploaded a few checkpoints of some
	// still-unfinished shard: a death that strands real progress.
	var killedRuns int64
	var killedShard int
	waitFleet(t, c, "victim mid-shard", func(st FleetStatus) bool {
		for _, cs := range st.Campaigns {
			for _, sh := range cs.Shards {
				if sh.Worker == "victim" && sh.State == "running" && sh.Runs >= 150 && !sh.Done {
					killedRuns, killedShard = sh.Runs, sh.Shard
					return true
				}
			}
		}
		return false
	})
	victim.Kill()
	t.Logf("killed victim at %d uploaded runs on shard %d", killedRuns, killedShard)
	if err := <-victimDone; err != nil {
		t.Fatalf("killed worker Run: %v", err)
	}

	final := waitFleet(t, c, "campaign done", func(st FleetStatus) bool {
		return len(st.Campaigns) == 1 && (st.Campaigns[0].State == "done" || st.Campaigns[0].State == "failed")
	})
	cs := final.Campaigns[0]
	if cs.State != "done" || cs.Report == nil {
		t.Fatalf("campaign %s ended %q (error %q), want done", resp.ID, cs.State, cs.Error)
	}
	if cs.Redeals < 1 {
		t.Errorf("campaign finished with %d redeals, want >= 1 (the kill must have forced one)", cs.Redeals)
	}
	if got := cs.Shards[killedShard].Runs; got <= killedRuns {
		t.Errorf("killed shard %d ended at %d runs, want > %d (must resume past the kill point)", killedShard, got, killedRuns)
	}

	// Differential 1: against the uninterrupted single-process run.
	unsharded := unshardedReference(t, sub)
	if got, want := reportJSON(t, *cs.Report), reportJSON(t, unsharded); got != want {
		t.Errorf("fleet report != unsharded single-process reference\nfleet: %s\n  ref: %s", got, want)
	}
	// Differential 2: against an uninterrupted local 3-shard merge,
	// including the deterministic cumulative counters — equal counters
	// mean the re-dealt shard's pre-crash work was counted exactly once.
	local := localMergedReference(t, sub)
	if got, want := reportJSON(t, *cs.Report), reportJSON(t, local); got != want {
		t.Errorf("fleet report != local 3-shard merge\nfleet: %s\n  ref: %s", got, want)
	}
	gotC, wantC := deterministicCounters(cs.Report.Stats), deterministicCounters(local.Stats)
	for name, want := range wantC {
		if gotC[name] != want {
			t.Errorf("merged stats %s = %d, reference %d (re-deal double-count or loss)", name, gotC[name], want)
		}
	}

	cancel()
	<-survivorDone
}

// TestFleetDrain: SIGTERM semantics. Cancelling a worker's context
// pauses its shard at the next checkpoint, uploads the paused snapshot,
// releases the shard for immediate re-deal, and deregisters. A second
// worker then finishes the campaign; nothing is lost or repeated.
func TestFleetDrain(t *testing.T) {
	sub := Submission{
		Schema: Schema, Protocol: "wsb", N: 4, Mode: "exhaustive",
		Seed: 1, Shards: 1, CheckpointEvery: 50,
	}
	c, srv := testCoordinator(t)
	if _, err := c.Submit(sub); err != nil {
		t.Fatal(err)
	}

	ctx1, drain := context.WithCancel(context.Background())
	_, done1 := testWorker(t, ctx1, srv, "draining")
	waitFleet(t, c, "first checkpoint upload", func(st FleetStatus) bool {
		return st.Runs >= 50
	})
	drain()
	if err := <-done1; err != nil {
		t.Fatalf("drained worker Run: %v", err)
	}
	st := c.status()
	if len(st.Workers) != 0 {
		t.Errorf("drained worker still registered: %+v", st.Workers)
	}
	sh := st.Campaigns[0].Shards[0]
	if sh.State != "queued" {
		t.Errorf("drained shard state %q, want queued (released for immediate re-deal)", sh.State)
	}
	if sh.Runs < 50 {
		t.Errorf("drained shard lost its uploaded progress: %d runs", sh.Runs)
	}
	if sh.Redeals != 1 {
		t.Errorf("drained shard redeals = %d, want 1", sh.Redeals)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	_, done2 := testWorker(t, ctx2, srv, "finisher")
	final := waitFleet(t, c, "campaign done", func(st FleetStatus) bool {
		return st.Campaigns[0].State == "done"
	})
	want := unshardedReference(t, sub)
	if got := final.Campaigns[0].Report; got == nil || got.Schedules != want.Schedules || got.Violation != want.Violation {
		t.Errorf("drained+resumed report %+v, want schedules=%d violation=%q", got, want.Schedules, want.Violation)
	}
	cancel2()
	<-done2
}

// TestFleetWorkerFailsTerminalShard: an exhaustive shard whose max_runs
// budget runs out stops on a terminal engine error, which no resume can
// fix. The worker reports it, the shard ends failed with the budget
// error after its one lease, and the coordinator never deals it again.
func TestFleetWorkerFailsTerminalShard(t *testing.T) {
	var mu sync.Mutex
	deals := 0
	c, err := NewCoordinator(CoordinatorConfig{
		DataDir:          t.TempDir(),
		HeartbeatTimeout: 500 * time.Millisecond,
		StaleCheckpoint:  30 * time.Second,
		ReconcileEvery:   25 * time.Millisecond,
		Logf: func(format string, args ...any) {
			msg := fmt.Sprintf(format, args...)
			mu.Lock()
			if strings.Contains(msg, " dealt to ") {
				deals++
			}
			mu.Unlock()
			t.Log(msg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(func() { srv.Close(); c.Close() })
	sub := Submission{
		Schema: Schema, Protocol: "wsb", N: 4, Mode: "exhaustive",
		Seed: 1, Shards: 1, MaxRuns: 10, CheckpointEvery: 50,
	}
	if _, err := c.Submit(sub); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	_, done := testWorker(t, ctx, srv, "budget")
	waitFleet(t, c, "campaign failed", func(st FleetStatus) bool {
		return st.Campaigns[0].State == "failed"
	})
	// The worker keeps polling for work and the coordinator keeps
	// reconciling: long enough for a heartbeat timeout and many leases.
	time.Sleep(time.Second)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("worker Run: %v", err)
	}
	cst := c.status().Campaigns[0]
	sh := cst.Shards[0]
	if cst.State != "failed" || sh.State != "failed" || !strings.Contains(sh.Error, sched.ErrExplorationBudget.Error()) {
		t.Errorf("campaign %s, shard %s with error %q; want both failed with the budget error", cst.State, sh.State, sh.Error)
	}
	mu.Lock()
	defer mu.Unlock()
	if deals != 1 || sh.Redeals != 0 {
		t.Errorf("shard dealt %d times with %d re-deals, want 1 and 0", deals, sh.Redeals)
	}
}

// captureUploads runs one shard locally and keeps the snapshot bytes of
// every checkpoint write — the exact sequence of uploads a worker would
// send.
func captureUploads(t testing.TB, sub Submission, shard int) ([][]byte, []campaign.Header) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cap.ckpt")
	cfg, err := sub.config(shard, path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observer = campaign.NewObserver()
	var blobs [][]byte
	var heads []campaign.Header
	cfg.OnCheckpoint = func(h campaign.Header) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("capture: %v", err)
			return
		}
		blobs = append(blobs, data)
		heads = append(heads, h)
	}
	if _, err := campaign.Start(context.Background(), cfg); err != nil {
		t.Fatalf("capture campaign: %v", err)
	}
	if len(blobs) < 3 {
		t.Fatalf("capture produced only %d checkpoints; need >= 3", len(blobs))
	}
	return blobs, heads
}

// TestFleetWorkerRejoinsAfterDeclaredDead: a worker the coordinator
// declared dead while it was alive (a stall longer than the heartbeat
// timeout, scripted here by running reconcile at a future instant) finds
// its session refused, registers again under the same name, abandons
// the shard that was re-dealt away from it, and keeps working: the
// interrupted campaign and one submitted afterwards both finish, the
// first with the same verdict as an uninterrupted run.
func TestFleetWorkerRejoinsAfterDeclaredDead(t *testing.T) {
	c, srv := testCoordinator(t)
	sub := Submission{
		Schema: Schema, Protocol: "wsb", N: 4, Mode: "exhaustive",
		Seed: 1, Shards: 1, CheckpointEvery: 50,
	}
	if _, err := c.Submit(sub); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, done := testWorker(t, ctx, srv, "sleeper")
	waitFleet(t, c, "first upload", func(st FleetStatus) bool {
		sh := st.Campaigns[0].Shards[0]
		return sh.State == "running" && sh.Runs > 0
	})

	c.reconcile(time.Now().Add(2 * c.cfg.HeartbeatTimeout))
	st := c.status()
	if len(st.Workers) != 0 {
		t.Fatalf("worker still registered after its heartbeat window passed: %+v", st.Workers)
	}
	if sh := st.Campaigns[0].Shards[0]; sh.State != "queued" || sh.Redeals != 1 {
		t.Fatalf("shard of the worker declared dead: state %q, %d redeals; want queued, 1", sh.State, sh.Redeals)
	}

	if _, err := c.Submit(sub); err != nil {
		t.Fatal(err)
	}
	final := waitFleet(t, c, "both campaigns done", func(st FleetStatus) bool {
		return st.Done == 2
	})
	if len(final.Workers) != 1 || final.Workers[0].Name != "sleeper" {
		t.Errorf("workers after the rejoin: %+v, want sleeper alone", final.Workers)
	}
	if got, want := reportJSON(t, *final.Campaigns[0].Report), reportJSON(t, unshardedReference(t, sub)); got != want {
		t.Errorf("interrupted campaign's report != uninterrupted reference\nfleet: %s\n  ref: %s", got, want)
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("worker Run: %v", err)
	}
}

// TestClientRoutes drives every Client method against a coordinator and
// pins each route's answer: the typed result on success, and the status
// code of each refusal.
func TestClientRoutes(t *testing.T) {
	c, srv := testCoordinator(t)
	c.Close() // no reconcile: nothing moves but these requests
	cl := &Client{Base: srv.URL}
	code := func(err error) int {
		var he *httpError
		if errors.As(err, &he) {
			return he.code
		}
		return 0
	}

	sub := Submission{
		Schema: Schema, Protocol: "wsb", N: 4, Mode: "exhaustive",
		Seed: 1, Shards: 1, CheckpointEvery: 50,
	}
	resp, err := cl.Submit(sub)
	if err != nil || resp.Schema != Schema || resp.ID == "" || resp.Shards != 1 {
		t.Fatalf("Submit = %+v, %v", resp, err)
	}
	bad := sub
	bad.Shards = campaign.MaxShards + 1
	if _, err := cl.Submit(bad); code(err) != 400 {
		t.Errorf("Submit of %d shards: %v, want 400", bad.Shards, err)
	}
	if all, err := cl.Campaigns(); err != nil || len(all) != 1 || all[0].ID != resp.ID {
		t.Errorf("Campaigns = %+v, %v", all, err)
	}
	if st, err := cl.Campaign(resp.ID); err != nil || st.State != "queued" {
		t.Errorf("Campaign = %+v, %v", st, err)
	}
	if _, err := cl.Campaign("c9999"); code(err) != 404 {
		t.Errorf("Campaign of an unknown id: %v, want 404", err)
	}
	if _, err := cl.Result(resp.ID); code(err) != 409 {
		t.Errorf("Result before the merge: %v, want 409", err)
	}
	if recs, err := cl.Timeline(resp.ID); err != nil || len(recs) != 0 {
		t.Errorf("Timeline before any upload = %+v, %v", recs, err)
	}

	reg, err := cl.Register("probe")
	if err != nil || reg.Name != "probe" || reg.WorkerID == "" || reg.HeartbeatSec <= 0 {
		t.Fatalf("Register = %+v, %v", reg, err)
	}
	if err := cl.Heartbeat(reg.WorkerID); err != nil {
		t.Errorf("Heartbeat: %v", err)
	}
	if err := cl.Heartbeat("w9999"); code(err) != 404 {
		t.Errorf("Heartbeat of an unknown worker: %v, want 404", err)
	}
	task, ok, err := cl.Lease(reg.WorkerID)
	if err != nil || !ok || task.CampaignID != resp.ID || task.Shard != 0 || task.Submission.Protocol != "wsb" {
		t.Fatalf("Lease = %+v, %v, %v", task, ok, err)
	}
	if _, ok, err := cl.Lease(reg.WorkerID); err != nil || ok {
		t.Errorf("second Lease while owning a shard = %v, %v; want the empty 204", ok, err)
	}
	if _, _, err := cl.Lease("w9999"); code(err) != 404 {
		t.Errorf("Lease of an unknown worker: %v, want 404", err)
	}
	if err := cl.Release("w9999", resp.ID, 0); code(err) != 404 {
		t.Errorf("Release by an unknown worker: %v, want 404", err)
	}
	if err := cl.Release(reg.WorkerID, "c9999", 0); code(err) != 404 {
		t.Errorf("Release of an unknown campaign: %v, want 404", err)
	}
	if err := cl.Release(reg.WorkerID, resp.ID, 0); err != nil {
		t.Errorf("Release: %v", err)
	}
	if _, err := cl.Upload(resp.ID, 0, reg.WorkerID, filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Errorf("Upload of a missing file succeeded")
	}
	if err := cl.Fail("c9999", 0, reg.WorkerID, "boom"); code(err) != 409 {
		t.Errorf("Fail of an unknown campaign: %v, want 409", err)
	}
	if err := cl.Fail(resp.ID, 0, "w9999", "boom"); code(err) != 409 {
		t.Errorf("Fail by a worker that does not own the shard: %v, want 409", err)
	}
	if err := cl.Fail(resp.ID, 0, "", "boom"); err != nil {
		t.Errorf("Fail: %v", err)
	}
	if st, err := cl.Result(resp.ID); err != nil || st.State != "failed" || st.Error == "" {
		t.Errorf("Result of a failed campaign = %+v, %v", st, err)
	}
	// A shard that is done stays done: a late fail report is refused.
	blobs, _ := captureUploads(t, sub, 0)
	final := filepath.Join(t.TempDir(), "final.ckpt")
	if err := os.WriteFile(final, blobs[len(blobs)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	second, err := cl.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	if up, err := cl.Upload(second.ID, 0, "", final); err != nil || !up.Done {
		t.Fatalf("Upload of a final snapshot = %+v, %v", up, err)
	}
	if err := cl.Fail(second.ID, 0, "", "late"); code(err) != 409 {
		t.Errorf("Fail of a done shard: %v, want 409", err)
	}
	if st, err := cl.Campaign(second.ID); err != nil || st.Shards[0].State != "done" || st.Error != "" {
		t.Errorf("Campaign after a refused fail = %+v, %v; want its shard done and no error", st, err)
	}
	if err := cl.Deregister(reg.WorkerID); err != nil {
		t.Errorf("Deregister: %v", err)
	}
	if st, err := cl.Status(); err != nil || st.Schema != FleetStatusSchema || len(st.Workers) != 0 || st.Failed != 1 || st.Done != 1 {
		t.Errorf("Status = %+v, %v", st, err)
	}
}

// TestFleetNoDoubleCountOnRedeal pins the latest-snapshot-per-shard
// aggregation rule directly: successive cumulative uploads of one shard
// must never be summed with each other. After uploading checkpoints at
// increasing run counts, the campaign aggregate equals the LAST upload's
// counters, not their sum; and an upload that would regress progress —
// the one failure mode that could double-count, a zombie replaying an
// old snapshot — is rejected.
func TestFleetNoDoubleCountOnRedeal(t *testing.T) {
	sub := Submission{
		Schema: Schema, Protocol: "wsb", N: 4, Mode: "exhaustive",
		Seed: 1, Shards: 1, CheckpointEvery: 50,
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	blobs, heads := captureUploads(t, sub, 0)

	c, _ := testCoordinator(t)
	resp, err := c.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	// Operator imports (no worker id): allowed while the shard is
	// unowned — this is the `gsbfleet upload` path.
	for i, blob := range blobs[:3] {
		if _, err := c.upload(resp.ID, 0, UploadRequest{Schema: Schema, Snapshot: blob}); err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
	}
	st := c.status()
	agg := st.Campaigns[0].Runs
	last := heads[2].Runs
	var sum int64
	for _, h := range heads[:3] {
		sum += h.Runs
	}
	if agg != last {
		t.Errorf("aggregate runs = %d, want latest upload's %d (sum of uploads would be %d)", agg, last, sum)
	}
	if agg == sum && sum != last {
		t.Errorf("aggregate equals the sum of uploads (%d): re-dealt shards double-count", sum)
	}

	// Replaying an older snapshot must be rejected, not re-counted.
	_, err = c.upload(resp.ID, 0, UploadRequest{Schema: Schema, Snapshot: blobs[0]})
	var he *httpError
	if !errors.As(err, &he) || he.code != 409 {
		t.Errorf("regressing upload: got %v, want a 409 conflict", err)
	}
	if got := c.status().Campaigns[0].Runs; got != last {
		t.Errorf("aggregate moved to %d after a rejected upload, want %d", got, last)
	}
}

// TestFleetUploadFences: every invalid upload is rejected with the right
// status and mutates nothing.
func TestFleetUploadFences(t *testing.T) {
	sub := Submission{
		Schema: Schema, Protocol: "wsb", N: 4, Mode: "exhaustive",
		Seed: 1, Shards: 1, CheckpointEvery: 50,
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	blobs, _ := captureUploads(t, sub, 0)
	good := blobs[0]

	// A snapshot from a different campaign (same protocol, different
	// seed => different options hash).
	otherSub := sub
	otherSub.Seed = 99
	if err := otherSub.Validate(); err != nil {
		t.Fatal(err)
	}
	otherBlobs, _ := captureUploads(t, otherSub, 0)

	c, _ := testCoordinator(t)
	resp, err := c.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}

	// Hand-edit the header: bump the first digit in the header line, so
	// it stays valid JSON but no longer matches its own hash.
	tamperedHeader := append([]byte(nil), good...)
	headerEnd := 0
	for i, b := range tamperedHeader {
		if b == '\n' {
			headerEnd = i
			break
		}
	}
	digitAt := -1
	for i := 0; i < headerEnd; i++ {
		if b := tamperedHeader[i]; b >= '0' && b <= '9' {
			digitAt = i
			break
		}
	}
	if digitAt < 0 {
		t.Fatal("no digit in snapshot header line to tamper with")
	}
	if tamperedHeader[digitAt] == '9' {
		tamperedHeader[digitAt] = '8'
	} else {
		tamperedHeader[digitAt]++
	}

	// Sidecars that parse but that the campaign timeline could not serve:
	// records of another shard, one at the same index as this shard's,
	// and records naming another shard count.
	sidecar := func(recs ...string) []byte {
		var b []byte
		for _, r := range recs {
			b = append(b, `{"schema":"gsbtimeline/v1",`+r+"}\n"...)
		}
		return b
	}
	twoShards := sidecar(`"index":0,"shard":0,"of":1`, `"index":0,"shard":1,"of":1`)
	otherCount := sidecar(`"index":0,"shard":7,"of":9`)

	// Corrupt the payload: a NUL in the middle breaks its JSON.
	corruptPayload := append([]byte(nil), good...)
	corruptPayload[headerEnd+(len(corruptPayload)-headerEnd)/2] = 0x00

	cases := []struct {
		name     string
		id       string
		shard    int
		req      UploadRequest
		wantCode int
	}{
		{"tampered header", resp.ID, 0, UploadRequest{Schema: Schema, Snapshot: tamperedHeader}, 400},
		{"corrupt payload", resp.ID, 0, UploadRequest{Schema: Schema, Snapshot: corruptPayload}, 400},
		{"truncated blob", resp.ID, 0, UploadRequest{Schema: Schema, Snapshot: good[:len(good)/3]}, 400},
		{"wrong campaign hash", resp.ID, 0, UploadRequest{Schema: Schema, Snapshot: otherBlobs[0]}, 400},
		{"unknown campaign", "c9999", 0, UploadRequest{Schema: Schema, Snapshot: good}, 404},
		{"shard out of range", resp.ID, 5, UploadRequest{Schema: Schema, Snapshot: good}, 404},
		{"stale owner", resp.ID, 0, UploadRequest{Schema: Schema, WorkerID: "w9999", Snapshot: good}, 409},
		{"sidecar with another shard's record", resp.ID, 0, UploadRequest{Schema: Schema, Snapshot: good, Timeline: twoShards}, 400},
		{"sidecar of shard 7/9", resp.ID, 0, UploadRequest{Schema: Schema, Snapshot: good, Timeline: otherCount}, 400},
	}
	for _, tc := range cases {
		_, err := c.upload(tc.id, tc.shard, tc.req)
		var he *httpError
		if !errors.As(err, &he) || he.code != tc.wantCode {
			t.Errorf("%s: got %v, want HTTP %d", tc.name, err, tc.wantCode)
		}
	}
	if got := c.status().Campaigns[0].Runs; got != 0 {
		t.Errorf("rejected uploads changed the aggregate to %d runs, want 0", got)
	}
	if got := c.st.uploadsRejected; got != int64(len(cases)) {
		t.Errorf("%s = %d, want %d", MetricUploadsRejected, got, len(cases))
	}

	// The valid upload still lands after all that, and the campaign
	// timeline serves its sidecar.
	valid := UploadRequest{Schema: Schema, Snapshot: good, Timeline: sidecar(`"index":0,"shard":0,"of":1`, `"index":1,"shard":0,"of":1`)}
	if _, err := c.upload(resp.ID, 0, valid); err != nil {
		t.Errorf("valid upload after rejections: %v", err)
	}
	if recs, err := c.campaignTimeline(resp.ID); err != nil || len(recs) != 2 {
		t.Errorf("campaign timeline after the valid upload: %d records, %v; want 2", len(recs), err)
	}
}

// TestFleetCoordinatorAnchoredRate: the campaign rate is measured over
// the aggregate cumulative run count at the coordinator, so a re-deal
// (which never decreases the aggregate) does not reset it — unlike a
// process-local observer, whose rate base restarts with each process
// life.
func TestFleetCoordinatorAnchoredRate(t *testing.T) {
	sub := Submission{
		Schema: Schema, Protocol: "wsb", N: 4, Mode: "walk",
		Runs: 100000, Seed: 1, Shards: 1, CheckpointEvery: 1000,
	}
	c, _ := testCoordinator(t)
	c.Close() // drive reconcile by hand
	resp, err := c.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}

	t0 := time.Now()
	c.mu.Lock()
	cs := c.st.campaigns[resp.ID]
	c.mu.Unlock()

	c.reconcile(t0) // anchors the base at 0 runs
	setRuns := func(runs int64) {
		c.mu.Lock()
		cs.shards[0].header.Runs = runs
		c.mu.Unlock()
	}
	setRuns(10000)
	c.reconcile(t0.Add(10 * time.Second))
	if got := cs.runsPerSec; got < 999 || got > 1001 {
		t.Fatalf("rate after first window = %.1f runs/s, want ~1000", got)
	}

	// A worker dies and the shard is re-dealt: the aggregate holds (the
	// latest snapshot survives), and the next window's rate comes from
	// the same anchor — no reset to zero, no ETA spike.
	c.mu.Lock()
	cs.shards[0].redeals++
	c.mu.Unlock()
	setRuns(20000)
	c.reconcile(t0.Add(20 * time.Second))
	if got := cs.runsPerSec; got < 999 || got > 1001 {
		t.Errorf("rate across a re-deal = %.1f runs/s, want ~1000 (rate must not re-anchor)", got)
	}

	c.mu.Lock()
	st := c.st.campaignStatus(cs, t0.Add(20*time.Second))
	c.mu.Unlock()
	if st.TotalRuns != 100000 {
		t.Fatalf("TotalRuns = %d, want 100000", st.TotalRuns)
	}
	wantETA := float64(100000-20000) / 1000
	if st.ETASec < wantETA-1 || st.ETASec > wantETA+1 {
		t.Errorf("ETA = %.1fs, want ~%.1fs ((total-done)/rate from the coordinator anchor)", st.ETASec, wantETA)
	}
}

// TestSubmissionValidate: the single validation gate rejects malformed
// submissions with specific errors and normalizes defaults.
func TestSubmissionValidate(t *testing.T) {
	valid := func() Submission {
		return Submission{Schema: Schema, Protocol: "wsb", N: 4, Mode: "exhaustive", Shards: 2}
	}
	if err := (&Submission{Protocol: "wsb", N: 4, Mode: "exhaustive"}).Validate(); err != nil {
		t.Errorf("schema-less submission rejected: %v", err)
	}
	s := valid()
	s.Shards = 0
	if err := s.Validate(); err != nil || s.Shards != 1 {
		t.Errorf("shards=0 should normalize to 1, got shards=%d err=%v", s.Shards, err)
	}
	s = valid()
	s.Shards = campaign.MaxShards
	if err := s.Validate(); err != nil {
		t.Errorf("shards=%d (the bound) rejected: %v", campaign.MaxShards, err)
	}
	bad := []struct {
		name string
		mut  func(*Submission)
	}{
		{"wrong schema", func(s *Submission) { s.Schema = "gsbfleet/v0" }},
		{"n too small", func(s *Submission) { s.N = 1 }},
		{"n too large", func(s *Submission) { s.N = 1 << 20 }},
		{"negative shards", func(s *Submission) { s.Shards = -1 }},
		{"too many shards", func(s *Submission) { s.Shards = campaign.MaxShards + 1 }},
		{"negative checkpoint interval", func(s *Submission) { s.CheckpointEvery = -5 }},
		{"unknown protocol", func(s *Submission) { s.Protocol = "nope" }},
		{"unknown mode", func(s *Submission) { s.Mode = "bogus" }},
		{"unknown model", func(s *Submission) { s.Model = "nope" }},
		{"unknown adversary", func(s *Submission) { s.Adversary = "nope"; s.Mode = "crash"; s.Runs = 10; s.CrashProb = 0.05 }},
		{"adversary outside crash mode", func(s *Submission) { s.Adversary = "uniform-crash" }},
		{"sampling without runs", func(s *Submission) { s.Mode = "walk" }},
		{"crash sweep that never crashes", func(s *Submission) { s.Mode = "crash"; s.Runs = 100 }},
	}
	for _, tc := range bad {
		s := valid()
		tc.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: submission validated, want an error", tc.name)
		}
	}
}
