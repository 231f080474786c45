package fleet

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// t0 is the scripted start of every state test: an instant far from the
// wall clock, so a transition that read the clock instead of its now
// would show.
var t0 = time.Date(2001, 2, 3, 4, 5, 6, 0, time.UTC)

// stateSub is the one-shard campaign the scripted-time tests drive.
var stateSub = Submission{
	Schema: Schema, Protocol: "wsb", N: 4, Mode: "exhaustive",
	Seed: 1, Shards: 1, CheckpointEvery: 50,
}

// testState is a fresh state with the given heartbeat timeout and stale
// checkpoint window (0: the defaults), holding stateSub as campaign
// c0001.
func testState(t *testing.T, heartbeat, stale time.Duration) *state {
	t.Helper()
	cfg := CoordinatorConfig{DataDir: "unused", HeartbeatTimeout: heartbeat, StaleCheckpoint: stale}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	s := newState(cfg)
	if _, _, err := s.submit(t0, stateSub); err != nil {
		t.Fatal(err)
	}
	return &s
}

// decodedUploads captures and decodes every checkpoint of one shard of
// sub, in order.
func decodedUploads(t testing.TB, sub Submission, shard int) []decodedUpload {
	t.Helper()
	blobs, _ := captureUploads(t, sub, shard)
	out := make([]decodedUpload, len(blobs))
	for i, b := range blobs {
		if out[i] = decodeUpload("", shard, UploadRequest{Schema: Schema, Snapshot: b}); out[i].err != nil {
			t.Fatal(out[i].err)
		}
	}
	return out
}

func noCommit() error { return nil }

// join returns a worker session that leases shard 0 of c0001 at now.
func join(t *testing.T, s *state, name string, now time.Time) string {
	t.Helper()
	reg, _, _ := s.register(now, RegisterRequest{Name: name})
	if resp, _, err := s.lease(now, reg.WorkerID); err != nil || resp.Task.CampaignID != "c0001" {
		t.Fatalf("lease at %v: %+v, %v", now, resp, err)
	}
	return reg.WorkerID
}

func shard0(s *state) *shardState { return s.campaigns["c0001"].shards[0] }

func logged(fx effects, substr string) bool {
	for _, l := range fx.logs {
		if strings.Contains(fmt.Sprintf(l.format, l.args...), substr) {
			return true
		}
	}
	return false
}

// TestStateStaleCheckpointRedeal: a worker that heartbeats but lands no
// upload for longer than StaleCheckpoint loses its shard at the next
// tick, and not a tick earlier; StaleCheckpoint < 0 turns the rule off.
func TestStateStaleCheckpointRedeal(t *testing.T) {
	ups := decodedUploads(t, stateSub, 0)
	const heartbeat, stale = 10 * time.Second, time.Minute
	for _, disabled := range []bool{false, true} {
		window := stale
		if disabled {
			window = -1
		}
		s := testState(t, heartbeat, window)
		w := join(t, s, "wedged", t0)
		uploadAt := t0.Add(10 * time.Second)
		up := ups[0]
		up.WorkerID = w
		if _, _, err := s.upload(uploadAt, "c0001", 0, up, noCommit); err != nil {
			t.Fatal(err)
		}
		last := uploadAt.Add(stale)
		for now := uploadAt; !now.After(last); now = now.Add(heartbeat / 2) {
			s.heartbeat(now, w)
			if fx := s.tick(now); len(fx.logs) != 0 {
				t.Fatalf("disabled=%v: tick at +%v: %v", disabled, now.Sub(t0), fx.logs)
			}
		}
		if got := shard0(s).state; got != "running" {
			t.Fatalf("disabled=%v: shard %s exactly one window after its upload, want running", disabled, got)
		}
		s.heartbeat(last.Add(time.Nanosecond), w)
		fx := s.tick(last.Add(time.Nanosecond))
		sh := shard0(s)
		if disabled {
			if sh.state != "running" || len(fx.logs) != 0 {
				t.Errorf("stale rule off: shard %s after %v without an upload (%v), want running", sh.state, stale, fx.logs)
			}
			s.heartbeat(last.Add(24*time.Hour), w)
			if fx := s.tick(last.Add(24 * time.Hour)); sh.state != "running" {
				t.Errorf("stale rule off: shard %s a day later (%v), want running", sh.state, fx.logs)
			}
			continue
		}
		if sh.state != "queued" || sh.redeals != 1 || !logged(fx, "checkpoint is stale") {
			t.Errorf("shard %s with %d redeals past the window (%v), want queued after one stale re-deal", sh.state, sh.redeals, fx.logs)
		}
		if ws, ok := s.workers[w]; !ok || ws.owns != nil {
			t.Errorf("heartbeating worker after the re-deal: %+v, want registered and owning nothing", ws)
		}
	}
}

// TestStateHeartbeatExpiry: a worker is declared dead at the first tick
// more than HeartbeatTimeout after its last heartbeat, not at one
// exactly that far, and its shard is re-queued.
func TestStateHeartbeatExpiry(t *testing.T) {
	const heartbeat = 10 * time.Second
	s := testState(t, heartbeat, 0)
	w := join(t, s, "w", t0)
	beat := t0.Add(4 * time.Second)
	s.heartbeat(beat, w)
	if fx := s.tick(beat.Add(heartbeat)); len(s.workers) != 1 || len(fx.logs) != 0 {
		t.Fatalf("tick exactly one timeout after the heartbeat dropped the worker: %v", fx.logs)
	}
	fx := s.tick(beat.Add(heartbeat + time.Nanosecond))
	if len(s.workers) != 0 || !logged(fx, "missed heartbeats for 10s") {
		t.Fatalf("tick past the timeout kept the worker: %v", fx.logs)
	}
	if sh := shard0(s); sh.state != "queued" || sh.redeals != 1 || len(s.queue) != 1 {
		t.Errorf("dead worker's shard %s with %d redeals and queue %v, want queued once", sh.state, sh.redeals, s.queue)
	}
}

// TestStateRedealRunsOnTransitionTime: every instant a re-deal cycle
// reads is the now of the transition that made it. A shard re-queued by
// a scripted tick and dealt again starts its stale window at that deal,
// and upload_age_sec keeps measuring from the last accepted upload
// across the re-deal.
func TestStateRedealRunsOnTransitionTime(t *testing.T) {
	ups := decodedUploads(t, stateSub, 0)
	const heartbeat, stale = 10 * time.Second, time.Minute
	s := testState(t, heartbeat, stale)
	first := join(t, s, "first", t0)
	uploadAt := t0.Add(5 * time.Second)
	up := ups[1]
	up.WorkerID = first
	if _, _, err := s.upload(uploadAt, "c0001", 0, up, noCommit); err != nil {
		t.Fatal(err)
	}
	diedAt := uploadAt.Add(heartbeat + time.Second)
	s.tick(diedAt) // first missed its heartbeats: re-queued
	dealtAt := diedAt.Add(time.Second)
	second := join(t, s, "second", dealtAt)
	seen := dealtAt.Add(time.Second)
	if got, want := s.status(seen).Campaigns[0].Shards[0].UploadAgeSec, seen.Sub(uploadAt).Seconds(); got != want {
		t.Errorf("upload_age_sec after the re-deal = %v, want %v (the age of the upload, not of the deal)", got, want)
	}
	end := dealtAt.Add(stale)
	for now := dealtAt; !now.After(end); now = now.Add(heartbeat / 2) {
		s.heartbeat(now, second)
		s.tick(now)
	}
	if sh := shard0(s); sh.state != "running" || sh.redeals != 1 {
		t.Fatalf("re-dealt shard %s with %d redeals one stale window after its deal, want running with 1", sh.state, sh.redeals)
	}
	s.heartbeat(end.Add(time.Nanosecond), second)
	if fx := s.tick(end.Add(time.Nanosecond)); shard0(s).redeals != 2 || !logged(fx, "checkpoint is stale (1m0s)") {
		t.Errorf("re-dealt shard not stale a window after its deal: %v", fx.logs)
	}
}
