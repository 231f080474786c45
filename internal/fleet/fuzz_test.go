package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

// FuzzSubmission drives the POST /v1/campaigns decoder and validation
// gate with arbitrary bodies: decode as the handler does, Validate, and
// for a body that validates, derive the first and last shard's config
// and campaign identity, as Submit and the workers do. A malformed body
// must come back as an error, never a panic; a validated one must
// resolve. CI runs it briefly via `make fuzz-smoke`:
//
//	go test ./internal/fleet -run '^$' -fuzz FuzzSubmission -fuzztime 60s
func FuzzSubmission(f *testing.F) {
	for _, seed := range []string{
		`{"schema":"gsbfleet/v1","protocol":"wsb","n":4,"mode":"por","shards":3}`,
		`{"protocol":"slot-renaming","n":6,"mode":"walk","runs":60000,"shards":3,"checkpoint_every":1000}`,
		`{"protocol":"grid","n":3,"mode":"pct","runs":500,"pct_depth":3,"seed":-7}`,
		`{"protocol":"renaming","n":3,"mode":"crash","runs":200,"crash_prob":0.1,"model":"regular","adversary":"t-resilient","shards":2}`,
		`{"protocol":"universal","n":5,"mode":"por-memo","max_runs":30000000,"max_steps":-1}`,
		`{"protocol":"wsb","n":4,"mode":"crash","runs":100}`,
		`{"protocol":"wsb","n":4,"mode":"crash","runs":100,"crash_prob":1.5}`,
		`{"protocol":"election","n":1024,"mode":"walk","runs":1,"shards":4096}`,
		`{"protocol":"universal","n":2,"0000":0}`,
		`{"schema":"gsbfleet/v0","n":-5,"shards":-1}`,
		`{"mode":"por","n":1e300}`,
		`null`, `[]`, `{`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var sub Submission
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&sub); err != nil {
			return
		}
		if err := sub.Validate(); err != nil {
			return
		}
		for _, shard := range []int{0, sub.Shards - 1} {
			cfg, err := sub.config(shard, "fuzz.ckpt")
			if err != nil {
				t.Fatalf("validated submission %s: shard %d config: %v", body, shard, err)
			}
			if _, err := campaign.Identity(cfg); err != nil {
				t.Fatalf("validated submission %s: shard %d identity: %v", body, shard, err)
			}
		}
	})
}

// FuzzUpload drives the snapshot upload route,
// POST /v1/campaigns/{id}/shards/{shard}/snapshot, through the
// coordinator's handler with arbitrary bodies, against a coordinator
// holding one submitted campaign. No body may panic it, and no body may
// be accepted (a 2xx answer) unless its snapshot passes
// campaign.DecodeUploaded and the campaign's timeline route still
// answers 200 after it. CI runs it briefly via `make fuzz-smoke`:
//
//	go test ./internal/fleet -run '^$' -fuzz FuzzUpload -fuzztime 60s
func FuzzUpload(f *testing.F) {
	sub := Submission{
		Schema: Schema, Protocol: "wsb", N: 4, Mode: "exhaustive",
		Seed: 1, Shards: 1, CheckpointEvery: 500,
	}
	blobs, _ := captureUploads(f, sub, 0)
	body := func(req UploadRequest) []byte {
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	first, last := blobs[0], blobs[len(blobs)-1]
	for _, seed := range [][]byte{
		body(UploadRequest{Schema: Schema, Snapshot: first}),
		body(UploadRequest{Schema: Schema, Snapshot: last}),
		body(UploadRequest{Schema: Schema, Snapshot: first, Timeline: []byte(`{"schema":"gsbtimeline/v1","index":0}` + "\n")}),
		body(UploadRequest{Schema: Schema, WorkerID: "w0001", Snapshot: first}),
		body(UploadRequest{Schema: Schema, Snapshot: first[:len(first)/2]}),
		body(UploadRequest{Schema: Schema, Snapshot: bytes.Replace(first, []byte(`"seed":1`), []byte(`"seed":2`), 1)}),
		[]byte(`{"schema":"gsbfleet/v1","snapshot":"!!"}`),
		[]byte(`{"snapshot":null,"timeline":"AAAA"}`),
		[]byte(`null`), []byte(`[]`), []byte(`{`), []byte(``),
		body(UploadRequest{Schema: Schema, Snapshot: first, Timeline: []byte(`{"schema":"gsbtimeline/v1","index":0,"shard":0,"of":1}` + "\n")}),
		body(UploadRequest{Schema: Schema, Snapshot: first, Timeline: []byte(`{"schema":"gsbtimeline/v1","index":0,"shard":0,"of":1}` + "\n" + `{"schema":"gsbtimeline/v1","index":0,"shard":1,"of":1}` + "\n")}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		c, err := NewCoordinator(CoordinatorConfig{DataDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		c.Close() // no reconcile loop: the upload route alone
		resp, err := c.Submit(sub)
		if err != nil {
			t.Fatal(err)
		}
		rr := httptest.NewRecorder()
		c.Handler().ServeHTTP(rr, httptest.NewRequest("POST", uploadRoute(resp.ID, 0), bytes.NewReader(body)))
		if rr.Code/100 != 2 {
			return
		}
		var req UploadRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("answered %d to a body that does not decode: %v", rr.Code, err)
		}
		if _, _, err := campaign.DecodeUploaded(req.Snapshot, "fuzz upload"); err != nil {
			t.Fatalf("answered %d to a snapshot DecodeUploaded rejects: %v", rr.Code, err)
		}
		rr = httptest.NewRecorder()
		c.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/campaigns/"+resp.ID+"/timeline", nil))
		if rr.Code != 200 {
			t.Fatalf("accepted upload left the timeline route answering %d: %s", rr.Code, rr.Body)
		}
	})
}

// FuzzCoordinatorEvents drives random sequences of the state's events
// (submit, register, lease, heartbeat, release, deregister, fail, upload
// and tick) on scripted, advancing time, with uploads drawn from a small
// pool of captured snapshots and a commit step that sometimes fails.
// After every event it checks that a shard has at most one owner and a
// running shard exactly one, that a done shard stays done and is never
// leased, that a shard's accepted runs never regress, and that every
// shard is queued (and in the queue), running, done or failed. An
// upload that is rejected or whose commit fails changes nothing but the
// rejection counter. Each event is three bytes: the event and the time
// step, then two choice bytes. CI runs it briefly via `make fuzz-smoke`:
//
//	go test ./internal/fleet -run '^$' -fuzz FuzzCoordinatorEvents -fuzztime 60s
func FuzzCoordinatorEvents(f *testing.F) {
	sub := Submission{
		Schema: Schema, Protocol: "wsb", N: 4, Mode: "exhaustive",
		Seed: 1, Shards: 2, CheckpointEvery: 300,
	}
	if err := sub.Validate(); err != nil {
		f.Fatal(err)
	}
	var pool []decodedUpload
	for shard := 0; shard < sub.Shards; shard++ {
		ups := decodedUploads(f, sub, shard)
		pool = append(pool, ups[0], ups[len(ups)/2], ups[len(ups)-1])
	}
	pool = append(pool, decodeUpload("c0001", 0, UploadRequest{Schema: Schema, Snapshot: []byte("not a snapshot")}))
	f.Fuzz(func(t *testing.T, script []byte) {
		cfg := CoordinatorConfig{DataDir: "unused", HeartbeatTimeout: 2 * time.Second, StaleCheckpoint: 5 * time.Second}
		if err := cfg.normalize(); err != nil {
			t.Fatal(err)
		}
		s := newState(cfg)
		now := t0
		done := map[shardRef]bool{}
		runs := map[shardRef]int64{}
		for ; len(script) >= 3; script = script[3:] {
			op, a, b := int(script[0]), int(script[1]), int(script[2])
			now = now.Add(time.Duration(op/9%8) * 250 * time.Millisecond)
			workers := append(slices.Sorted(maps.Keys(s.workers)), "w9999")
			worker := workers[a%len(workers)]
			id := append(slices.Clone(s.order), "c9999")[b%(len(s.order)+1)]
			shard := b / 4 % 3
			var err error
			switch op % 9 {
			case 0:
				if len(s.order) < 3 {
					_, _, err = s.submit(now, sub)
				}
			case 1:
				if len(s.workers) < 5 {
					_, _, err = s.register(now, RegisterRequest{Name: []string{"a", "b", ""}[a%3]})
				}
			case 2:
				var resp LeaseResponse
				resp, _, err = s.lease(now, worker)
				if ref := (shardRef{resp.Task.CampaignID, resp.Task.Shard}); err == nil && done[ref] {
					t.Fatalf("lease dealt %v, which is done", ref)
				}
			case 3:
				_, _, err = s.heartbeat(now, worker)
			case 4:
				_, _, err = s.release(now, worker, ReleaseRequest{Schema: Schema, CampaignID: id, Shard: shard})
			case 5:
				_, _, err = s.deregister(now, worker)
			case 6:
				reporter := []string{worker, ""}[b/16%2]
				_, _, err = s.fail(now, id, shard, FailRequest{Schema: Schema, WorkerID: reporter, Error: "fuzz"})
			case 7:
				up := pool[a%len(pool)]
				switch b / 16 % 3 {
				case 0:
					if w := s.owner(id, shard); w != nil {
						up.WorkerID = w.id
					}
				case 1:
					up.WorkerID = worker
				}
				before, rejected := dumpState(&s), s.uploadsRejected
				committed := false
				_, _, err = s.upload(now, id, shard, up, func() error {
					committed = true
					if b&0x80 != 0 {
						return errors.New("injected commit failure")
					}
					return nil
				})
				if err != nil {
					if after := dumpState(&s); after != before {
						t.Fatalf("upload refused (%v) but changed the state:\n%s\n->\n%s", err, before, after)
					}
					want := rejected
					if !committed {
						want++
					}
					if s.uploadsRejected != want {
						t.Fatalf("upload refused (%v, commit called %v): %d rejections counted, want %d", err, committed, s.uploadsRejected, want)
					}
				}
			case 8:
				for _, id := range s.tick(now).merges {
					s.merged(id, campaign.Report{Done: true}, nil)
				}
			}
			if err != nil && op%9 == 0 {
				t.Fatalf("submit: %v", err)
			}
			checkStateInvariants(t, &s, done, runs)
		}
	})
}

// checkStateInvariants checks the shard invariants FuzzCoordinatorEvents
// holds after every event, and records which shards are done and their
// accepted runs for the next check.
func checkStateInvariants(t *testing.T, s *state, done map[shardRef]bool, runs map[shardRef]int64) {
	t.Helper()
	owners := map[shardRef]int{}
	for _, w := range s.workers {
		if w.owns != nil {
			owners[*w.owns]++
			if cs, ok := s.campaigns[w.owns.id]; !ok || cs.shards[w.owns.shard].state != "running" {
				t.Fatalf("worker %s owns %v, which is not running", w.id, *w.owns)
			}
		}
	}
	queued := map[shardRef]bool{}
	for _, ref := range s.queue {
		queued[ref] = true
	}
	for _, id := range s.order {
		for i, sh := range s.campaigns[id].shards {
			ref := shardRef{id, i}
			switch sh.state {
			case "queued":
				if !queued[ref] {
					t.Fatalf("%v is queued but not in the queue %v", ref, s.queue)
				}
			case "running":
				if owners[ref] != 1 {
					t.Fatalf("running %v has %d owners", ref, owners[ref])
				}
			case "done", "failed":
			default:
				t.Fatalf("%v is in state %q", ref, sh.state)
			}
			if owners[ref] > 1 {
				t.Fatalf("%v has %d owners", ref, owners[ref])
			}
			if done[ref] && sh.state != "done" {
				t.Fatalf("done %v moved to %s", ref, sh.state)
			}
			done[ref] = sh.state == "done"
			if sh.header.Runs < runs[ref] {
				t.Fatalf("%v regressed from %d to %d accepted runs", ref, runs[ref], sh.header.Runs)
			}
			runs[ref] = sh.header.Runs
		}
	}
}

// dumpState renders every field of the state but the rejection counter.
func dumpState(s *state) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seq %d/%d redeals %d uploads %d queue %v\n", s.campSeq, s.workerSeq, s.redeals, s.uploads, s.queue)
	for _, id := range s.order {
		cs := s.campaigns[id]
		fmt.Fprintf(&b, "%s merging=%v done=%v report=%v err=%q rate=%d@%v:%v\n", id, cs.merging, cs.done, cs.report != nil, cs.errMsg, cs.lastRuns, cs.lastRunsAt, cs.runsPerSec)
		for _, sh := range cs.shards {
			fmt.Fprintf(&b, "  %s redeals=%d err=%q header=%+v stats=%v ckpt=%v snap=%d side=%d up=%v stale=%v\n",
				sh.state, sh.redeals, sh.errMsg, sh.header, sh.stats, sh.haveCkpt, len(sh.snapshot), len(sh.timeline), sh.uploadAt, sh.staleFrom)
		}
	}
	for _, id := range slices.Sorted(maps.Keys(s.workers)) {
		w := s.workers[id]
		owns := "-"
		if w.owns != nil {
			owns = fmt.Sprint(*w.owns)
		}
		fmt.Fprintf(&b, "%s %s beat=%v owns=%s\n", id, w.name, w.lastBeat, owns)
	}
	return b.String()
}
