package timeline

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeTimeline drives Decode, the sidecar reader behind the
// /timeline endpoint, `gsbcampaign merge -timeline` and the fleet
// coordinator's checkpoint uploads, with arbitrary bytes. A series it
// accepts has strictly increasing (index, shard) pairs, and writing it
// back as NDJSON decodes to the same records. CI runs it briefly via
// `make fuzz-smoke`; longer local runs just work:
//
//	go test ./internal/timeline -fuzz FuzzDecodeTimeline -fuzztime 60s
func FuzzDecodeTimeline(f *testing.F) {
	var series bytes.Buffer
	enc := json.NewEncoder(&series)
	for i, r := range []Record{
		{Schema: Schema, Index: 0, Time: "2026-01-02T03:04:05Z", Of: 1, Runs: 1000, Classes: 998, Checkpoints: 1, RunsPerSec: 2500.5, CheckpointAgeSec: 0.25, CheckpointWriteSec: 0.012},
		{Schema: Schema, Index: 1, Of: 1, Runs: 2000, Schedules: 7, Steals: 3, Aborts: 2, Frontier: 9, Checkpoints: 2},
		{Schema: Schema, Index: 1, Shard: 1, Of: 2, Runs: 3000, Done: true},
	} {
		if err := enc.Encode(r); err != nil {
			f.Fatalf("encoding seed record %d: %v", i, err)
		}
	}
	whole := series.Bytes()
	f.Add(whole)
	f.Add(whole[:len(whole)-5]) // torn trailing line
	f.Add(bytes.ReplaceAll(whole, []byte(`"index":1`), []byte(`"index":0`)))
	f.Add([]byte("{\"schema\":\"gsbtimeline/v1\",\"index\":3}\r\n\n  \n{\"schema\":\"gsbtimeline/v1\",\"index\":2}\n"))
	f.Add([]byte("{\"schema\":\"other\"}\nnot json\n"))
	f.Add([]byte("null\n[]\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := Decode(data, "fuzz")
		if err != nil {
			return
		}
		for i, r := range recs {
			if r.Schema != Schema {
				t.Fatalf("record %d: accepted schema %q", i, r.Schema)
			}
			if i > 0 {
				prev := recs[i-1]
				if r.Index < prev.Index || r.Index == prev.Index && r.Shard <= prev.Shard {
					t.Fatalf("record %d: accepted (index %d, shard %d) after (%d, %d)", i, r.Index, r.Shard, prev.Index, prev.Shard)
				}
			}
		}
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		for _, r := range recs {
			if err := enc.Encode(r); err != nil {
				t.Fatalf("accepted record does not re-encode: %v", err)
			}
		}
		again, err := Decode(out.Bytes(), "re-encoded")
		if err != nil {
			t.Fatalf("re-encoded series rejected: %v", err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("re-encoded series decodes to\n%+v\nwant\n%+v", again, recs)
		}
	})
}
