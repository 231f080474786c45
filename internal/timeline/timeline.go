// Package timeline is the time-series layer of the observability
// pipeline (docs/metrics.md): a durable, append-only NDJSON series of
// gsbtimeline/v1 records sampled from the stats registry at every
// campaign checkpoint, written to a sidecar file next to the campaign
// snapshot. Where /metrics and /status are point-in-time views, the
// timeline is the history — the coverage-growth curve, the runs/sec
// trend, the checkpoint cadence — and it obeys the same durability
// contract as the checkpoint it rides along with:
//
//   - Appends are atomic (one O_APPEND write of one complete line), so a
//     kill at any instant leaves whole records plus at most one torn
//     trailing line, which Open truncates away before the next append.
//   - The series is resumable: each life continues the monotone sample
//     index where the previous life stopped, and the dedup rule (a
//     sample whose progress does not advance past the last recorded one
//     is skipped) makes a killed-and-resumed campaign's series equal an
//     uninterrupted run's in every deterministic column.
//   - Shard series merge by sample index: Merge is exactly a
//     concatenation of the shard series ordered by (index, shard),
//     validated against the same monotonicity every reader enforces.
//
// The package is deliberately dependency-free (stdlib only) and knows
// nothing about engines or registries: internal/campaign's Observer maps
// registry snapshots into Records and owns every timestamp — sample
// times are wall-clock and live only in this observer layer, never in
// result-computing code.
package timeline

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Schema tags every gsbtimeline/v1 record.
const Schema = "gsbtimeline/v1"

// Record is one timeline sample: the cumulative engine counters at a
// checkpoint boundary plus this-life rate and checkpoint-health figures.
// Counter columns (Runs, Schedules, Classes, Aborts) are cumulative
// across resumed lives and deterministic exactly where the underlying
// metrics are (docs/metrics.md); the timing columns (Time, RunsPerSec,
// CheckpointAgeSec, CheckpointWriteSec) describe the sampling life and
// are never compared across runs.
type Record struct {
	Schema string `json:"schema"`
	// Index is the monotone sample index: strictly increasing across the
	// whole sidecar file, lives included. The Writer assigns it.
	Index int64 `json:"index"`
	// Time is the sample's wall-clock timestamp (RFC 3339), assigned by
	// the observer layer.
	Time  string `json:"time,omitempty"`
	Shard int    `json:"shard"`
	Of    int    `json:"of"`
	// Done marks the final sample of a finished campaign (or shard).
	Done bool `json:"done,omitempty"`
	// Cumulative counters, as of this sample (see docs/metrics.md for
	// the underlying metrics).
	Runs      int64 `json:"runs"`
	Schedules int64 `json:"schedules,omitempty"`
	Classes   int64 `json:"classes,omitempty"`
	Steals    int64 `json:"steals,omitempty"`
	Aborts    int64 `json:"aborts,omitempty"`
	// Frontier is the exploration frontier gauge (explore family only).
	Frontier int64 `json:"frontier,omitempty"`
	// Checkpoints counts snapshot writes before this sample (cumulative).
	Checkpoints int64 `json:"checkpoints,omitempty"`
	// RunsPerSec is the throughput since the previous sample of this
	// process life (first sample of a life: since the life started).
	RunsPerSec float64 `json:"runs_per_sec,omitempty"`
	// CheckpointAgeSec is the age of the newest snapshot write when the
	// sample was taken; CheckpointWriteSec is the mean snapshot write
	// latency over the interval since the previous sample.
	CheckpointAgeSec   float64 `json:"checkpoint_age_sec,omitempty"`
	CheckpointWriteSec float64 `json:"checkpoint_write_sec,omitempty"`
}

// SidecarPath derives the timeline sidecar file of a campaign snapshot:
// the snapshot path plus a ".timeline" suffix, so the series always
// lives alongside the checkpoint it describes.
func SidecarPath(snapshotPath string) string { return snapshotPath + ".timeline" }

// ErrNotMonotone reports a timeline whose sample indices do not strictly
// increase — a corrupted or hand-edited series.
var ErrNotMonotone = errors.New("timeline: sample indices are not strictly increasing")

// Writer appends records to a sidecar file. It is not safe for
// concurrent use; the campaign run loop is its only writer (readers —
// the /timeline endpoint, status -watch — open the file independently
// and tolerate a concurrent append).
type Writer struct {
	f    *os.File
	path string
	last Record
	any  bool // a last record exists (file was non-empty or we appended)
}

// Open opens (creating if needed) the sidecar at path for appending and
// recovers the append position from the existing series: the last
// record's index and progress columns. A torn trailing line (a kill
// mid-append) is truncated away; an undecodable or non-monotone interior
// is a loud error, never silently extended.
func Open(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("timeline: %w", err)
	}
	w := &Writer{f: f, path: path}
	if err := w.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// recover scans the existing file, validates monotonicity, truncates a
// torn trailing line, and positions the fd at the end.
func (w *Writer) recover() error {
	data, err := io.ReadAll(w.f)
	if err != nil {
		return fmt.Errorf("timeline: %s: %w", w.path, err)
	}
	complete := len(data)
	if complete > 0 && data[complete-1] != '\n' {
		// Torn trailing line: keep everything up to the last newline.
		if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
			complete = i + 1
		} else {
			complete = 0
		}
	}
	recs, err := decodeAll(data[:complete], w.path)
	if err != nil {
		return err
	}
	if len(recs) > 0 {
		w.last, w.any = recs[len(recs)-1], true
	}
	if complete != len(data) {
		if err := w.f.Truncate(int64(complete)); err != nil {
			return fmt.Errorf("timeline: %s: truncating torn tail: %w", w.path, err)
		}
	}
	if _, err := w.f.Seek(int64(complete), io.SeekStart); err != nil {
		return fmt.Errorf("timeline: %s: %w", w.path, err)
	}
	return nil
}

// Last returns the newest record of the series, if any.
func (w *Writer) Last() (Record, bool) { return w.last, w.any }

// Append adds one sample to the series, assigning its schema and the
// next monotone index. Samples that do not advance the series — same or
// lower run count and an unchanged done flag, which happens when a
// resumed life re-reaches a checkpoint the previous life already
// recorded, or when an already-finished campaign is resumed — are
// skipped, which is what keeps a killed-and-resumed series equal to an
// uninterrupted one. Returns the record as written and whether it was
// appended.
func (w *Writer) Append(rec Record) (Record, bool, error) {
	if w.any && rec.Runs <= w.last.Runs && rec.Done == w.last.Done {
		return w.last, false, nil
	}
	rec.Schema = Schema
	rec.Index = 0
	if w.any {
		rec.Index = w.last.Index + 1
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return Record{}, false, fmt.Errorf("timeline: encode: %w", err)
	}
	line = append(line, '\n')
	// One write of one complete line: concurrent readers see whole
	// records (plus at most a torn tail if the process dies mid-write,
	// which both Open and Read tolerate).
	if _, err := w.f.Write(line); err != nil {
		return Record{}, false, fmt.Errorf("timeline: %s: append: %w", w.path, err)
	}
	w.last, w.any = rec, true
	return rec, true, nil
}

// Close closes the sidecar file.
func (w *Writer) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// decodeAll parses a complete NDJSON series, enforcing schema and
// monotonicity: strictly increasing (index, shard) pairs. For a
// single-shard sidecar this is exactly strict index monotonicity; a
// merged campaign timeline additionally carries index ties across
// distinct shards, in shard order.
func decodeAll(data []byte, path string) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("timeline: %s line %d: %w", path, line, err)
		}
		if r.Schema != Schema {
			return nil, fmt.Errorf("timeline: %s line %d: schema %q, want %q", path, line, r.Schema, Schema)
		}
		if len(recs) > 0 {
			prev := recs[len(recs)-1]
			if r.Index < prev.Index || (r.Index == prev.Index && r.Shard <= prev.Shard) {
				return nil, fmt.Errorf("%w: %s line %d: index %d shard %d after index %d shard %d",
					ErrNotMonotone, path, line, r.Index, r.Shard, prev.Index, prev.Shard)
			}
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("timeline: %s: %w", path, err)
	}
	return recs, nil
}

// Read loads a whole timeline series. A torn trailing line (a reader
// racing the writer's append, or a kill mid-write) is ignored; interior
// corruption is a loud error.
func Read(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("timeline: %w", err)
	}
	return Decode(data, path)
}

// Decode parses a timeline series from raw sidecar bytes — the form the
// fleet coordinator receives in checkpoint uploads — with Read's
// tolerance for a torn trailing line and its loud rejection of interior
// corruption or non-monotone indices. name labels errors.
func Decode(data []byte, name string) ([]Record, error) {
	if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
		data = data[:i+1]
	} else {
		data = nil
	}
	return decodeAll(data, name)
}

// Since filters a series to the records with Index >= since — the
// /timeline endpoint's incremental-poll parameter.
func Since(recs []Record, since int64) []Record {
	i := sort.Search(len(recs), func(i int) bool { return recs[i].Index >= since })
	return recs[i:]
}

// Merge combines per-shard timeline series into one campaign-wide
// series: exactly the concatenation of the shards' records ordered by
// sample index, ties broken by shard — the deterministic order a single
// interleaved log would have. Every input series must be internally
// monotone (readers enforce this already; Merge re-checks so a
// hand-assembled slice fails just as loudly).
func Merge(series ...[]Record) ([]Record, error) {
	var out []Record
	for s, recs := range series {
		for i, r := range recs {
			if i > 0 && r.Index <= recs[i-1].Index {
				return nil, fmt.Errorf("%w: series %d record %d", ErrNotMonotone, s, i)
			}
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Index != out[j].Index {
			return out[i].Index < out[j].Index
		}
		return out[i].Shard < out[j].Shard
	})
	return out, nil
}

// WriteFile atomically writes a series (a merged campaign timeline) as
// NDJSON to path.
func WriteFile(path string, recs []Record) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("timeline: encode: %w", err)
		}
	}
	return AtomicWrite(path, buf.Bytes())
}

// AtomicWrite replaces path with the concatenation of parts so that a
// crash at any instant leaves either the old file or the new one, never a
// torn one: it stages the parts in a temp file in path's directory
// (Stage) and renames it over path. Parts let a writer hand over bytes it
// keeps elsewhere, such as a sample state's class object, without first
// copying them into one buffer.
// It is the one durable-write helper of the repository — campaign
// snapshots, timeline files and the fleet's shard copies all go through
// it or its two halves — and lives here because this stdlib-only package
// is the lowest one all of those writers import.
func AtomicWrite(path string, parts ...[]byte) error {
	tmp, err := Stage(filepath.Dir(path), filepath.Base(path)+".tmp-*", parts...)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("atomic write %s: %w", path, err)
	}
	return nil
}

// Stage is the first half of AtomicWrite: it writes the parts in order to
// a new temp file in dir, named from pattern as os.CreateTemp names it,
// fsyncs and closes it, and returns its path. The caller renames the file
// over its destination in the same file system, or removes it; on error
// nothing is left behind.
func Stage(dir, pattern string, parts ...[]byte) (string, error) {
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return "", fmt.Errorf("atomic write: %w", err)
	}
	for _, data := range parts {
		if err == nil {
			_, err = tmp.Write(data)
		}
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("atomic write %s: %w", tmp.Name(), err)
	}
	return tmp.Name(), nil
}
