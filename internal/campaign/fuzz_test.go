package campaign

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"maps"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sample"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Fuzz targets for the snapshot wire format. Snapshots are the one input
// the campaign layer reads back from disk — written by possibly-killed
// earlier processes, copied between machines for merges, and occasionally
// hand-inspected — so the decoders must reject arbitrary corruption with
// an error, never a panic. decodeHeader and decodeSnapshot are pure
// functions of the file bytes precisely so these targets can drive them
// without any file I/O. CI runs each for a short -fuzztime as a smoke
// gate; longer local runs just work:
//
//	go test ./internal/campaign -fuzz FuzzDecodeSnapshot -fuzztime 60s

// seedSnapshots returns well-formed snapshot files (one per mode family)
// plus targeted mutants, produced by the real writer so the corpus tracks
// the format.
func seedSnapshots(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte

	write := func(h Header, p payload) {
		f.Helper()
		parts, err := encodeSnapshot(nil, h, p)
		if err != nil {
			f.Fatalf("encoding seed snapshot: %v", err)
		}
		seeds = append(seeds, bytes.Join(parts[:], nil))
	}

	reg := stats.New()
	reg.Counter("runs", "").Add(7)
	snap := reg.Snapshot()

	write(Header{
		Mode: ModeExhaustive, Protocol: "reg", Task: "wait-free", N: 3,
		IDs: []int{1, 2, 3}, Of: 1, Runs: 42,
		Options: optionsHeader(sched.ExploreOptions{Seed: 1, MaxSteps: 100}),
	}, payload{Explore: sched.RootExploreState(), Stats: &snap})

	write(Header{
		Mode: ModePCT, Protocol: "reg", Task: "wait-free", N: 2,
		IDs: []int{1, 2}, Of: 2, Shard: 1,
		Options: optionsHeader(sched.ExploreOptions{Seed: 9, SampleRuns: 10, SampleMode: sched.SamplePCT, Depth: 3}),
	}, payload{Sample: &sample.BatchState{
		Depth: 3, Horizon: 12,
		Pool:    sched.SeededState{Shard: 1, Of: 2, Next: 5, Completed: 5},
		Classes: classSet(f, map[uint64]int{7: 1, 0xdeadbeef: 3, 12: 5, 99: 9}),
	}})

	write(Header{
		Mode: ModeCrash, Protocol: "reg", Task: "wait-free", N: 2,
		IDs: []int{1, 2}, Of: 1,
		Options: optionsHeader(sched.ExploreOptions{Seed: 5, CrashRuns: 10, CrashProb: 0.1}),
	}, payload{Crash: &sched.SeededState{Next: 4, Completed: 4}})

	// Targeted mutants: truncated, missing newline, header-only, junk.
	whole := seeds[0]
	seeds = append(seeds,
		whole[:len(whole)/2],
		bytes.ReplaceAll(whole, []byte("\n"), []byte(" ")),
		whole[:bytes.IndexByte(whole, '\n')+1],
		[]byte("{}\n{}\n"),
		[]byte("gsb-campaign but not json\n"),
	)
	// A valid crash snapshot with something other than whitespace after
	// its payload.
	seeds = append(seeds, trailingMutants(seeds[2])...)

	// A failed sample state whose class keys are prefixes of each other
	// and whose message needs escaping, then the same state in the old
	// payload format: with the retired failure keys agreeing with the
	// pool, and made to disagree with it.
	failed := sample.BatchState{
		Pool: sched.SeededState{Of: 1, Next: 4, Completed: 4,
			Failure: &sched.SeededFailure{Run: 3, Message: "<a> & \"b\" — ✓"}},
		Classes: classSet(f, map[uint64]int{12: 0, 120: 1, 1200: 2, 1e19 - 1: 3, 1e19: 3, 1<<64 - 1: 2}),
	}
	write(walkHeader, payload{Sample: &failed, Stats: &snap})
	for _, st := range oldFormatFailures(failed) {
		seeds = append(seeds, oldFormatSnapshot(f, walkHeader, st))
	}
	// The failed state with a second class object, which replaces the
	// first.
	last := seeds[len(seeds)-5]
	seeds = append(seeds, bytes.Replace(last, []byte(`"classes":{`), []byte(`"classes":{"7":1},"classes":{`), 1))
	return seeds
}

// classSet returns classes as the snapshot decoder builds a class set.
func classSet(tb testing.TB, classes map[uint64]int) *sample.ClassSet {
	tb.Helper()
	b, err := json.Marshal(classes)
	if err != nil {
		tb.Fatal(err)
	}
	c := new(sample.ClassSet)
	if err := json.Unmarshal(b, c); err != nil {
		tb.Fatal(err)
	}
	return c
}

var walkHeader = Header{
	Mode: ModeWalk, Protocol: "reg", Task: "wait-free", N: 2,
	IDs: []int{1, 2}, Of: 1,
	Options: optionsHeader(sched.ExploreOptions{Seed: 2, SampleRuns: 10}),
}

// oldSampleState is a sample state in the payload format that also
// recorded the smallest failing run under the now retired keys
// failed_run (-1 for none), violation and failed_message. Embedding
// puts the keys where that format wrote them, after classes.
type oldSampleState struct {
	sample.BatchState
	FailedRun     int    `json:"failed_run"`
	Violation     bool   `json:"violation,omitempty"`
	FailedMessage string `json:"failed_message,omitempty"`
}

// oldFormatFailures returns a failed sample state in the old format with
// its retired keys agreeing with the pool's failure, then copies whose
// keys disagree: no failure, failure but no pool failure, and a
// different run.
func oldFormatFailures(st sample.BatchState) []oldSampleState {
	f := st.Pool.Failure
	agree := oldSampleState{st, f.Run, true, f.Message}
	noFailure, noPool, differ := agree, agree, agree
	noFailure.FailedRun = -1
	noPool.Pool.Failure = nil
	differ.FailedRun = f.Run + 1
	return []oldSampleState{agree, noFailure, noPool, differ}
}

// oldFormatSnapshot writes a snapshot file whose payload is st.
func oldFormatSnapshot(tb testing.TB, h Header, st oldSampleState) []byte {
	tb.Helper()
	h.Magic, h.Version = Magic, Version
	h.OptionsHash = optionsHash(h)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(h); err != nil {
		tb.Fatal(err)
	}
	if err := enc.Encode(struct {
		Sample oldSampleState `json:"sample"`
	}{st}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestRetiredFailureKeysIgnored: the decoder ignores the retired keys of
// an old sample payload, so the state settles to its pool's failure
// whatever they say.
func TestRetiredFailureKeysIgnored(t *testing.T) {
	failed := sample.BatchState{
		Pool: sched.SeededState{Of: 1, Next: 10, Completed: 10,
			Failure: &sched.SeededFailure{Run: 3, Message: "run 3 failed"}},
		Classes: classSet(t, map[uint64]int{7: 0}),
	}
	batch := &sample.ResumableBatch{N: 2, IDs: []int{1, 2}, Opts: walkHeader.ExploreOptions()}
	for i, st := range oldFormatFailures(failed) {
		_, p, err := decodeSnapshot(oldFormatSnapshot(t, walkHeader, st))
		if err != nil {
			t.Fatalf("old snapshot %d: %v", i, err)
		}
		wantRun, wantErr := -1, ""
		if f := st.Pool.Failure; f != nil {
			wantRun, wantErr = f.Run, f.Message
		}
		rep, err := batch.Finalize(context.Background(), p.Sample)
		if rep.FailedRun != wantRun || errText(err) != wantErr {
			t.Errorf("old snapshot %d settled to (run %d, %v), want (run %d, %q)", i, rep.FailedRun, err, wantRun, wantErr)
		}
	}
}

// TestHeaderWithCrashCapFailsHashCheck: options no longer carry a crash
// cap, and the hash renders it as the literal cmax=0. A header hashed
// over a non-zero max_crashes, as a build that still had the option would
// have written it, fails the hash check instead of resuming under a
// different cap.
func TestHeaderWithCrashCapFailsHashCheck(t *testing.T) {
	h := Header{
		Magic: Magic, Version: Version, Mode: ModeCrash, Protocol: "reg", Task: "wait-free",
		N: 2, IDs: []int{1, 2}, Of: 1,
		Options: optionsHeader(sched.ExploreOptions{Seed: 5, CrashRuns: 10, CrashProb: 0.1}),
	}
	hashWithCap := func(cmax int) string {
		f := fnv.New64a()
		fmt.Fprintf(f, "v%d|mode=%s|task=wait-free|protocol=reg|n=2|ids=[1 2]|of=1|", Version, ModeCrash)
		fmt.Fprintf(f, "seed=5|maxruns=0|maxsteps=0|red=0|sruns=0|smode=0|depth=0|cruns=10|cprob=0.1|cmax=%d", cmax)
		return fmt.Sprintf("%016x", f.Sum64())
	}
	if got, want := optionsHash(h), hashWithCap(0); got != want {
		t.Fatalf("options hash %s, want %s (the cmax=0 rendering)", got, want)
	}
	h.OptionsHash = hashWithCap(2)
	line, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	line = bytes.Replace(line, []byte(`"options":{`), []byte(`"options":{"max_crashes":2,`), 1)
	if _, _, err := decodeHeader(append(line, '\n')); err == nil || !strings.Contains(err.Error(), "hash") {
		t.Errorf("header with max_crashes 2 decoded with error %v, want a hash mismatch", err)
	}
}

// trailingMutants appends non-whitespace after a valid snapshot: a second
// payload, bare words, unbalanced brackets.
func trailingMutants(valid []byte) [][]byte {
	var out [][]byte
	for _, tail := range []string{`{"crash":{"next":9}}`, "garbage", "]]]"} {
		out = append(out, append(append([]byte(nil), valid...), tail...))
	}
	return out
}

// TestDecodeSnapshotRejectsTrailingBytes: nothing but whitespace may
// follow the payload.
func TestDecodeSnapshotRejectsTrailingBytes(t *testing.T) {
	parts, err := encodeSnapshot(nil, Header{
		Mode: ModeCrash, Protocol: "reg", Task: "wait-free", N: 2,
		IDs: []int{1, 2}, Of: 1,
		Options: optionsHeader(sched.ExploreOptions{Seed: 5, CrashRuns: 10, CrashProb: 0.1}),
	}, payload{Crash: &sched.SeededState{Next: 4, Completed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	valid := bytes.Join(parts[:], nil)
	if _, _, err := decodeSnapshot(valid); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	if _, _, err := decodeSnapshot(append(append([]byte(nil), valid...), " \t\r\n\n"...)); err != nil {
		t.Errorf("snapshot with trailing whitespace rejected: %v", err)
	}
	for _, data := range trailingMutants(valid) {
		if _, _, err := decodeSnapshot(data); err == nil {
			t.Errorf("accepted a snapshot with trailing bytes %q", data[len(valid):])
		}
	}
}

// rehashed returns data with the shard and shard count of its header line
// moved by dShard and dOf and its options_hash recomputed over the result,
// so that a mutation of any header field, or of the shard the header names
// against its payload's, reaches the checks after the hash check; ok is
// false when the first line is not a header object.
func rehashed(data []byte, dShard, dOf int) (_ []byte, ok bool) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return nil, false
	}
	var h Header
	if json.Unmarshal(data[:i], &h) != nil {
		return nil, false
	}
	h.Shard += dShard
	h.Of += dOf
	h.OptionsHash = optionsHash(h)
	line, err := json.Marshal(h)
	if err != nil {
		return nil, false
	}
	return append(line, data[i:]...), true
}

// FuzzParseHeader drives decodeHeader with each input as given and with
// its header rebuilt by rehashed.
func FuzzParseHeader(f *testing.F) {
	for _, seed := range seedSnapshots(f) {
		f.Add(seed, 0, 0)
	}
	f.Fuzz(func(t *testing.T, data []byte, dShard, dOf int) {
		checkHeader(t, data)
		if rebuilt, ok := rehashed(data, dShard, dOf); ok && !bytes.Equal(rebuilt, data) {
			checkHeader(t, rebuilt)
		}
	})
}

// checkHeader fails if decodeHeader accepts data's header line but the
// header breaks one of the invariants it checks.
func checkHeader(t *testing.T, data []byte) {
	h, rest, err := decodeHeader(data)
	if err != nil {
		return
	}
	// A header the decoder accepts must uphold its invariants: the
	// declared magic/version, a self-consistent hash, a legal shard, a
	// mode its options select, and a remainder that is a tail of the
	// input.
	if h.Magic != Magic || h.Version != Version {
		t.Fatalf("accepted header with magic %q version %d", h.Magic, h.Version)
	}
	if h.OptionsHash != optionsHash(h) {
		t.Fatalf("accepted header whose hash does not cover its contents")
	}
	if h.Of < 1 || h.Shard < 0 || h.Shard >= h.Of {
		t.Fatalf("accepted invalid shard %d of %d", h.Shard, h.Of)
	}
	if want := ModeOf(h.ExploreOptions()); h.Mode != want {
		t.Fatalf("accepted mode %s over options that select %s", h.Mode, want)
	}
	if len(rest) > len(data) {
		t.Fatalf("remainder longer than input")
	}
	// Accepted headers must re-encode: status endpoints marshal them.
	if _, err := json.Marshal(h); err != nil {
		t.Fatalf("accepted header does not re-encode: %v", err)
	}
}

// firstRunOrder is a class map that marshals its entries in first-run
// order: by value, ties by key.
type firstRunOrder map[uint64]int

func (c firstRunOrder) MarshalJSON() ([]byte, error) {
	if c == nil {
		return []byte("null"), nil
	}
	keys := slices.Collect(maps.Keys(c))
	slices.SortFunc(keys, func(a, b uint64) int {
		return cmp.Or(cmp.Compare(c[a], c[b]), cmp.Compare(a, b))
	})
	obj := []byte{'{'}
	for i, h := range keys {
		if i > 0 {
			obj = append(obj, ',')
		}
		obj = fmt.Appendf(obj, `"%d":%d`, h, c[h])
	}
	return append(obj, '}'), nil
}

// UnmarshalJSON replaces the map, as the class set's decoder does, where
// encoding/json would merge a repeated object into it.
func (c *firstRunOrder) UnmarshalJSON(data []byte) error {
	var m map[uint64]int
	err := json.Unmarshal(data, &m)
	*c = m
	return err
}

// sampleReference is the sample payload rest, decoded with its class map
// in firstRunOrder: json.Encoder's bytes for it are the bytes the writer
// must write for the decoded payload. The outer Classes field hides the
// embedded one.
type sampleReference struct {
	Sample struct {
		sample.BatchState
		Classes firstRunOrder `json:"classes"`
	} `json:"sample"`
	Stats *stats.Snapshot `json:"stats,omitempty"`
}

// FuzzDecodeSnapshot drives decodeSnapshot with each input as given, with
// its header rebuilt by rehashed, and with its seeded pool moved along
// with the header, so that the class runs meet another shard.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, seed := range seedSnapshots(f) {
		f.Add(seed, 0, 0)
	}
	f.Fuzz(func(t *testing.T, data []byte, dShard, dOf int) {
		checkSnapshot(t, data)
		if rebuilt, ok := rehashed(data, dShard, dOf); ok && !bytes.Equal(rebuilt, data) {
			checkSnapshot(t, rebuilt)
			checkSnapshot(t, movePool(rebuilt, dShard, dOf))
		}
	})
}

// poolShard matches the start of a seeded pool as the writer renders it.
var poolShard = regexp.MustCompile(`\{"shard":(-?\d+),"of":(-?\d+)`)

// movePool returns data with the first seeded pool after its header line
// moved by dShard and dOf.
func movePool(data []byte, dShard, dOf int) []byte {
	i := bytes.IndexByte(data, '\n') + 1
	m := poolShard.FindSubmatchIndex(data[i:])
	if m == nil {
		return data
	}
	shard, _ := strconv.Atoi(string(data[i+m[2] : i+m[3]]))
	of, _ := strconv.Atoi(string(data[i+m[4] : i+m[5]]))
	return slices.Concat(data[:i+m[0]], fmt.Appendf(nil, `{"shard":%d,"of":%d`, shard+dShard, of+dOf), data[i+m[1]:])
}

// checkSnapshot fails if decodeSnapshot accepts data but the snapshot
// breaks one of the invariants it checks, or the writer does not write
// the accepted payload back exactly.
func checkSnapshot(t *testing.T, data []byte) {
	h, p, err := decodeSnapshot(data)
	if err != nil {
		return
	}
	// An accepted snapshot carries exactly one engine state and its
	// family agrees with the header's mode.
	if got, want := p.payloadFamily(), h.Mode.family(); got != want || got == "none" {
		t.Fatalf("accepted payload family %q under mode %s", got, h.Mode)
	}
	// A seeded pool names the header's shard (a zero pool is shard 0 of
	// 1).
	pool := p.Crash
	if p.Sample != nil {
		pool = &p.Sample.Pool
	}
	if pool != nil && (pool.Shard != h.Shard || max(pool.Of, 1) != h.Of || pool.Of < 0) {
		t.Fatalf("accepted pool of shard %d of %d under a header of shard %d of %d", pool.Shard, pool.Of, h.Shard, h.Of)
	}
	// The writer's payload encoding must write exactly json.Encoder's
	// bytes for it. A sample state's must also write its classes in
	// first-run order, as the reference does from the input, and each
	// class's first run must be one its pool has executed.
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(p); err != nil {
		t.Fatalf("accepted snapshot payload does not re-encode: %v", err)
	}
	parts, err := appendPayload(nil, p)
	if err != nil {
		t.Fatalf("writer cannot encode an accepted payload: %v", err)
	}
	got := bytes.Join(parts[:], nil)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("writer's payload encoding differs from json.Encoder's:\n%s\n%s", got, want.Bytes())
	}
	if p.Sample != nil {
		var ref sampleReference
		_, rest, _ := decodeHeader(data)
		if err := json.Unmarshal(rest, &ref); err != nil {
			t.Fatalf("accepted sample payload does not decode into the reference: %v", err)
		}
		for hash, run := range ref.Sample.Classes {
			if run < 0 || (run-h.Shard)%h.Of != 0 || int64((run-h.Shard)/h.Of) >= pool.Next {
				t.Fatalf("accepted class %d first seen at run %d, which shard %d of %d has not run (next %d)", hash, run, h.Shard, h.Of, pool.Next)
			}
		}
		want.Reset()
		if err := json.NewEncoder(&want).Encode(ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("writer's payload encoding differs from the reference:\n%s\n%s", got, want.Bytes())
		}
	}
	// And it must survive a rewrite cycle: what a resume re-writes,
	// a later resume must accept.
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(h); err != nil {
		t.Fatalf("accepted snapshot header does not re-encode: %v", err)
	}
	b.Write(got)
	if _, _, err := decodeSnapshot(b.Bytes()); err != nil {
		t.Fatalf("re-encoded snapshot rejected: %v", err)
	}
	// Settling an accepted seeded state may fail, but never panic.
	switch {
	case p.Sample != nil:
		batch := &sample.ResumableBatch{N: h.N, IDs: h.IDs, Opts: h.ExploreOptions()}
		_, _ = batch.Finalize(context.Background(), p.Sample)
	case p.Crash != nil:
		_, _, _ = sched.FinalizeSeeded(context.Background(), h.Options.CrashRuns, p.Crash)
	}
}
