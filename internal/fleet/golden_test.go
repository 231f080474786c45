package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/sched"
)

var update = flag.Bool("update", false, "rewrite the fleet golden files under testdata/")

// TestRouteSequenceGolden drives a scripted route sequence through
// Handler() and pins the /status JSON and the /metrics text it leaves:
// two campaigns submitted, three workers registered (one name taken
// twice), leases, captured snapshot uploads with sidecars, a release
// and the zombie upload it fences, a tampered upload, a heartbeat, an
// operator fail, a lease that skips the failed shard, a deregistration,
// and a reconcile tick that merges the finished campaign. Values read
// from the wall clock or from measured latencies are masked; everything
// else is compared byte for byte. Regenerate with -update.
func TestRouteSequenceGolden(t *testing.T) {
	subA := Submission{
		Schema: Schema, Protocol: "wsb", N: 4, Mode: "exhaustive",
		Seed: 1, Shards: 2, CheckpointEvery: 50,
	}
	subB := subA
	subB.Shards = 1
	for _, s := range []*Submission{&subA, &subB} {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	a0, _ := captureUploads(t, subA, 0)
	a1, _ := captureUploads(t, subA, 1)
	b0, _ := captureUploads(t, subB, 0)

	c, err := NewCoordinator(CoordinatorConfig{
		DataDir:          t.TempDir(),
		HeartbeatTimeout: time.Hour,
		StaleCheckpoint:  time.Hour,
		ReconcileEvery:   time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Close() // the sequence's own tick is the only reconcile
	h := c.Handler()
	call := func(method, path string, body any, wantCode int) []byte {
		t.Helper()
		var rd *bytes.Reader
		if body != nil {
			data, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(data)
		} else {
			rd = bytes.NewReader([]byte("{}"))
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, path, rd))
		if rr.Code != wantCode {
			t.Fatalf("%s %s: %d %s, want %d", method, path, rr.Code, rr.Body, wantCode)
		}
		return rr.Body.Bytes()
	}
	decode := func(data []byte, v any) {
		t.Helper()
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatal(err)
		}
	}
	sidecar := func(shard, of, records int) []byte {
		var b []byte
		for i := 0; i < records; i++ {
			b = append(b, fmt.Sprintf(`{"schema":"gsbtimeline/v1","index":%d,"shard":%d,"of":%d,"runs":%d}`+"\n", i, shard, of, 50*(i+1))...)
		}
		return b
	}
	upload := func(id string, shard int, worker string, snap, side []byte, wantCode int) {
		t.Helper()
		call("POST", uploadRoute(id, shard), UploadRequest{Schema: Schema, WorkerID: worker, Snapshot: snap, Timeline: side}, wantCode)
	}

	var subs [2]SubmitResponse
	decode(call("POST", "/v1/campaigns", subA, 200), &subs[0])
	decode(call("POST", "/v1/campaigns", subB, 200), &subs[1])
	idA, idB := subs[0].ID, subs[1].ID
	var regs [3]RegisterResponse
	for i, name := range []string{"alpha", "beta", "alpha"} {
		decode(call("POST", "/v1/workers", RegisterRequest{Schema: Schema, Name: name}, 200), &regs[i])
	}
	alpha, beta, third := regs[0].WorkerID, regs[1].WorkerID, regs[2].WorkerID
	for _, w := range []string{alpha, beta, third} {
		call("POST", "/v1/workers/"+w+"/lease", nil, 200)
	}

	// alpha carries shard A/0 to done through three uploads.
	upload(idA, 0, alpha, a0[0], sidecar(0, 2, 1), 200)
	upload(idA, 0, alpha, a0[1], sidecar(0, 2, 2), 200)
	upload(idA, 0, alpha, a0[len(a0)-1], sidecar(0, 2, 3), 200)
	// beta uploads once, heartbeats, and drains A/1; its late upload is
	// then fenced, and so is a snapshot of the wrong shard.
	upload(idA, 1, beta, a1[0], sidecar(1, 2, 1), 200)
	call("POST", "/v1/workers/"+beta+"/heartbeat", nil, 200)
	call("POST", "/v1/workers/"+beta+"/release", ReleaseRequest{Schema: Schema, CampaignID: idA, Shard: 1}, 200)
	upload(idA, 1, beta, a1[1], nil, 409)
	upload(idA, 1, "", a0[1], nil, 400)
	// The third worker finishes campaign B.
	upload(idB, 0, third, b0[0], nil, 200)
	upload(idB, 0, third, b0[len(b0)-1], sidecar(0, 1, 1), 200)
	// An operator fails the queued A/1; alpha's next lease skips it.
	call("POST", fmt.Sprintf("/v1/campaigns/%s/shards/1/fail", idA), FailRequest{Schema: Schema, Error: "operator abort"}, 200)
	call("POST", "/v1/workers/"+alpha+"/lease", nil, 204)
	call("POST", "/v1/workers/"+alpha+"/heartbeat", nil, 200)
	call("DELETE", "/v1/workers/"+beta, nil, 200)
	c.reconcile(time.Now())

	status := maskStatus(t, call("GET", "/status", nil, 200))
	metrics := maskMetrics(string(call("GET", "/metrics", nil, 200)))
	checkGolden(t, "routes.status.golden.json", status)
	checkGolden(t, "routes.metrics.golden.txt", metrics)
}

// maskedKeys are the /status fields read from the wall clock (ages,
// rates); the stats histograms, whose samples are measured latencies;
// the two engine series that depend on how the exploration workers were
// scheduled, work steals and the checkpoint size that embeds them; and
// the frontier gauge, the sum of the uploaded shards' frontiers, which
// were captured mid-flight and so depend on that scheduling too (19 to
// 25 across 20 runs of this test).
var maskedKeys = map[string]bool{
	"heartbeat_age_sec": true, "upload_age_sec": true,
	"runs_per_sec": true, "eta_sec": true, "histograms": true,
	sched.MetricSteals: true, campaign.MetricCheckpointBytes: true,
	sched.MetricFrontierDepth: true,
}

// maskStatus re-indents the /status JSON with every masked key's value
// replaced by "masked".
func maskStatus(t *testing.T, data []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, x := range v {
				if maskedKeys[k] {
					v[k] = "masked"
				} else {
					walk(x)
				}
			}
		case []any:
			for _, x := range v {
				walk(x)
			}
		}
	}
	walk(v)
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out) + "\n"
}

// maskMetrics replaces the sample value of every histogram series (the
// engine's measured latencies) and of every masked key with "masked".
func maskMetrics(text string) string {
	hist := map[string]bool{}
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" && f[3] == "histogram" {
			hist[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if maskedKeys[name] {
			lines[i] = name + " masked"
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && hist[base] {
				lines[i] = line[:strings.LastIndexByte(line, ' ')] + " masked"
			}
		}
	}
	return strings.Join(lines, "\n")
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden file:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}
