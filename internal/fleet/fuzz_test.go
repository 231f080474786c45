package fleet

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

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
