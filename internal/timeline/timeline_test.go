package timeline

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint"
)

func sample(runs int64, done bool) Record {
	return Record{Shard: 0, Of: 1, Runs: runs, Schedules: runs * 2, Classes: runs / 2, Done: done}
}

// TestRecordRoundTrips checks the gsbtimeline/v1 wire format: every
// exported Record field carries an explicit, unique json name and
// survives an encode/decode cycle.
func TestRecordRoundTrips(t *testing.T) {
	if err := lint.RoundTripJSON(&Record{}); err != nil {
		t.Error(err)
	}
}

func TestWriterAssignsMonotoneIndices(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.timeline")
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, runs := range []int64{10, 25, 40} {
		rec, ok, err := w.Append(sample(runs, false))
		if err != nil || !ok {
			t.Fatalf("append %d: ok=%v err=%v", i, ok, err)
		}
		if rec.Index != int64(i) {
			t.Fatalf("append %d: index %d", i, rec.Index)
		}
		if rec.Schema != Schema {
			t.Fatalf("append %d: schema %q", i, rec.Schema)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Runs != 40 || recs[2].Index != 2 {
		t.Fatalf("read back %+v", recs)
	}
}

func TestWriterDedupsNonAdvancingSamples(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.timeline")
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	mustAppend := func(r Record, want bool) {
		t.Helper()
		_, ok, err := w.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		if ok != want {
			t.Fatalf("append %+v: appended=%v want %v", r, ok, want)
		}
	}
	mustAppend(sample(10, false), true)
	mustAppend(sample(10, false), false) // same progress: dropped
	mustAppend(sample(5, false), false)  // regressed (resumed life replay): dropped
	mustAppend(sample(10, true), true)   // same runs but done flips: kept
	mustAppend(sample(10, true), false)  // resumed finished campaign: dropped
	recs, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || !recs[1].Done || recs[1].Index != 1 {
		t.Fatalf("got %+v", recs)
	}
}

func TestWriterResumeContinuesSeries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.timeline")
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Append(sample(10, false)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Append(sample(20, false)); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	last, ok := w2.Last()
	if !ok || last.Index != 1 || last.Runs != 20 {
		t.Fatalf("recovered last %+v ok=%v", last, ok)
	}
	// A resumed life re-reaching the recorded checkpoint is deduped...
	if _, ok, _ := w2.Append(sample(20, false)); ok {
		t.Fatal("non-advancing resume sample appended")
	}
	// ...and fresh progress continues the index sequence.
	rec, ok, err := w2.Append(sample(30, false))
	if err != nil || !ok || rec.Index != 2 {
		t.Fatalf("resume append: %+v ok=%v err=%v", rec, ok, err)
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.timeline")
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Append(sample(10, false)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Simulate a kill mid-append: a torn trailing line without newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":"gsbtimeline/v1","index":1,"runs":2`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("Read with torn tail: %+v", recs)
	}

	w2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	rec, ok, err := w2.Append(sample(20, false))
	if err != nil || !ok || rec.Index != 1 {
		t.Fatalf("append after torn tail: %+v ok=%v err=%v", rec, ok, err)
	}
	recs, err = Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Index != 1 {
		t.Fatalf("after recovery: %+v", recs)
	}
}

func TestReadRejectsInteriorCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.timeline")
	body := `{"schema":"gsbtimeline/v1","index":0,"shard":0,"of":1,"runs":1}
not json
{"schema":"gsbtimeline/v1","index":2,"shard":0,"of":1,"runs":3}
`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil {
		t.Fatal("interior corruption accepted")
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open accepted interior corruption")
	}
}

func TestReadRejectsNonMonotoneIndices(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.timeline")
	body := `{"schema":"gsbtimeline/v1","index":0,"shard":0,"of":1,"runs":1}
{"schema":"gsbtimeline/v1","index":0,"shard":0,"of":1,"runs":2}
`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Read(path)
	if !errors.Is(err, ErrNotMonotone) {
		t.Fatalf("err = %v, want ErrNotMonotone", err)
	}
}

func TestSince(t *testing.T) {
	recs := []Record{{Index: 0}, {Index: 1}, {Index: 2}, {Index: 5}}
	if got := Since(recs, 0); len(got) != 4 {
		t.Fatalf("since 0: %d", len(got))
	}
	if got := Since(recs, 2); len(got) != 2 || got[0].Index != 2 {
		t.Fatalf("since 2: %+v", got)
	}
	if got := Since(recs, 6); len(got) != 0 {
		t.Fatalf("since 6: %+v", got)
	}
}

func TestMergeIsConcatenationBySampleIndex(t *testing.T) {
	s0 := []Record{{Index: 0, Shard: 0, Of: 3, Runs: 10}, {Index: 1, Shard: 0, Of: 3, Runs: 20}}
	s1 := []Record{{Index: 0, Shard: 1, Of: 3, Runs: 9}, {Index: 1, Shard: 1, Of: 3, Runs: 19}, {Index: 2, Shard: 1, Of: 3, Runs: 29}}
	s2 := []Record{{Index: 0, Shard: 2, Of: 3, Runs: 11}}
	merged, err := Merge(s0, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []struct{ idx, shard int }{
		{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {2, 1},
	}
	if len(merged) != len(wantOrder) {
		t.Fatalf("merged %d records, want %d", len(merged), len(wantOrder))
	}
	for i, w := range wantOrder {
		if merged[i].Index != int64(w.idx) || merged[i].Shard != w.shard {
			t.Fatalf("merged[%d] = index %d shard %d, want %d/%d", i, merged[i].Index, merged[i].Shard, w.idx, w.shard)
		}
	}
	if _, err := Merge([]Record{{Index: 1}, {Index: 1}}); !errors.Is(err, ErrNotMonotone) {
		t.Fatalf("non-monotone input: %v", err)
	}
}

func TestWriteFileRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "merged.timeline")
	recs := []Record{
		{Schema: Schema, Index: 0, Shard: 0, Of: 2, Runs: 10},
		{Schema: Schema, Index: 0, Shard: 1, Of: 2, Runs: 12},
		{Schema: Schema, Index: 1, Shard: 0, Of: 2, Runs: 20, Done: true},
	}
	if err := WriteFile(path, recs); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2].Runs != 20 || !got[2].Done {
		t.Fatalf("round trip: %+v", got)
	}
}

// TestAtomicWriteParts: the file holds the parts' concatenation, empty
// parts included, and replaces what was there.
func TestAtomicWriteParts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "parts")
	for _, parts := range [][][]byte{
		{[]byte("head\n"), []byte(`{"a":1}`), []byte("}\n")},
		{nil, []byte("x"), {}, []byte("yz"), nil},
		{{}, nil},
		{},
		{[]byte("only")},
	} {
		if err := AtomicWrite(path, parts...); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := bytes.Join(parts, nil); !bytes.Equal(got, want) {
			t.Fatalf("AtomicWrite(%q) wrote %q, want %q", parts, got, want)
		}
	}
}

func TestSidecarPath(t *testing.T) {
	if got := SidecarPath("/tmp/c.ckpt"); got != "/tmp/c.ckpt.timeline" {
		t.Fatal(got)
	}
}
