// Package campaign turns the repository's verification modes —
// exhaustive and partial-order-reduced exploration, statistical sampling
// (random walk and PCT), and randomized crash sweeps — into durable,
// resumable, shardable campaigns: long runs that periodically checkpoint
// their entire engine state to disk, survive kills (resume from the last
// snapshot is exact, not approximate), split deterministically across
// shards, and merge shard snapshots into the same report a single
// uninterrupted process produces.
package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"repro/internal/sample"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Snapshot format: a campaign checkpoint file is one JSON header object
// on the first line, then the JSON engine-state payload. The header is
// self-describing (magic, format version, campaign identity and its
// options hash) and carries cheap progress/result fields so `status` and
// CI never need to parse the — potentially large — payload. Writes are
// atomic: a temp file in the same directory is renamed over the target,
// so a kill at any instant leaves either the previous checkpoint or the
// new one, never a torn file.

const (
	// Magic identifies a campaign snapshot file.
	Magic = "gsb-campaign"
	// Version is the snapshot format version; readers reject anything
	// else (format evolution is explicit, never silent).
	Version = 1
)

// ErrOptionsMismatch reports a resume or merge whose campaign options do
// not match the snapshot's: resuming under different options would
// silently change what the campaign verifies, so it fails loudly instead.
var ErrOptionsMismatch = errors.New("campaign: options do not match the snapshot")

// Header is the first line of a snapshot file.
type Header struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	// Mode names the verification mode (see Mode constants).
	Mode Mode `json:"mode"`
	// Protocol is the caller's protocol label (cmd/gsbcampaign rebuilds
	// the solver from it on resume/merge); Task renders the verified
	// task specification.
	Protocol string `json:"protocol"`
	Task     string `json:"task"`
	N        int    `json:"n"`
	IDs      []int  `json:"ids"`
	// Options is the campaign-defining subset of the exploration
	// options; OptionsHash is the FNV-64a hash of the canonical encoding
	// of (format version, task, protocol, n, ids, options, shard count),
	// shared by all shards of one campaign. Worker count and checkpoint
	// interval are execution details: they may change across resumes and
	// are excluded.
	Options     OptionsHeader `json:"options"`
	Shard       int           `json:"shard"`
	Of          int           `json:"of"`
	OptionsHash string        `json:"options_hash"`
	// Done marks a completed campaign (or shard); Runs and Frontier are
	// progress gauges (runs executed; unexplored frontier items, explore
	// family only); Result carries the shard's final report once done.
	Done     bool    `json:"done"`
	Runs     int64   `json:"runs"`
	Frontier int     `json:"frontier,omitempty"`
	Result   *Report `json:"result,omitempty"`
	Updated  string  `json:"updated"`
}

// OptionsHeader is the serializable, campaign-defining subset of
// sched.ExploreOptions. TestOptionsHashCoversEveryOption checks the
// "subset" claim from both sides: every ExploreOptions field must reach
// the options hash through this header or be listed in
// optionsHashExcluded, and every field here must change optionsHash.
type OptionsHeader struct {
	Seed       int64   `json:"seed"`
	MaxRuns    int     `json:"max_runs,omitempty"`
	MaxSteps   int     `json:"max_steps,omitempty"`
	Reduction  int     `json:"reduction,omitempty"`
	SampleRuns int     `json:"sample_runs,omitempty"`
	SampleMode int     `json:"sample_mode,omitempty"`
	Depth      int     `json:"depth,omitempty"`
	CrashRuns  int     `json:"crash_runs,omitempty"`
	CrashProb  float64 `json:"crash_prob,omitempty"`
	// Model and Adversary are normalized to "" when they name the
	// defaults (atomic, uniform-crash), so a campaign started with the
	// explicit default has the identity — and the options hash — of one
	// started with the field unset, and snapshots from before the
	// registries existed keep resuming.
	Model     string `json:"model,omitempty"`
	Adversary string `json:"adversary,omitempty"`
}

// optionsHashExcluded names the sched.ExploreOptions fields that are
// deliberately NOT part of campaign identity, with the reason.
// TestOptionsHashCoversEveryOption fails when an ExploreOptions field
// neither changes the options hash nor is listed here — adding an option
// forces the hash-or-exclude decision to be made explicitly.
var optionsHashExcluded = map[string]string{
	"Workers": "execution-resource knob: worker count must not change what a campaign verifies (the determinism contract), so resumes may legally change it",
	"Stats":   "observability sink: where metrics go never affects what is computed",
}

// nonDefaultName normalizes a registry name for campaign identity: the
// empty string and the registry default are the same choice, so both
// render as "".
func nonDefaultName(name, def string) string {
	if name == def {
		return ""
	}
	return name
}

func optionsHeader(o sched.ExploreOptions) OptionsHeader {
	return OptionsHeader{
		Seed:       o.Seed,
		MaxRuns:    o.MaxRuns,
		MaxSteps:   o.MaxSteps,
		Reduction:  int(o.Reduction),
		SampleRuns: o.SampleRuns,
		SampleMode: int(o.SampleMode),
		Depth:      o.Depth,
		CrashRuns:  o.CrashRuns,
		CrashProb:  o.CrashProb,
		Model:      nonDefaultName(o.Model, sched.ModelAtomic),
		Adversary:  nonDefaultName(o.Adversary, sched.AdversaryUniformCrash),
	}
}

// ExploreOptions reconstructs the engine options a snapshot was taken
// under (worker count zero: the resumer picks its own).
func (h Header) ExploreOptions() sched.ExploreOptions {
	o := h.Options
	return sched.ExploreOptions{
		Seed:       o.Seed,
		MaxRuns:    o.MaxRuns,
		MaxSteps:   o.MaxSteps,
		Reduction:  sched.Reduction(o.Reduction),
		SampleRuns: o.SampleRuns,
		SampleMode: sched.SampleMode(o.SampleMode),
		Depth:      o.Depth,
		CrashRuns:  o.CrashRuns,
		CrashProb:  o.CrashProb,
		Model:      o.Model,
		Adversary:  o.Adversary,
	}
}

// ShardTotal is the number of runs this shard owns in the seeded modes
// (walk, pct, crash: shard i of m owns run indices i, i+m, ...), the
// denominator of every ETA. It is 0 for the enumerating family, whose
// run count is unknowable up front. Summed over the shards of one
// campaign it is the campaign's run budget.
func (h Header) ShardTotal() int64 {
	total := 0
	switch h.Mode.family() {
	case "sample":
		total = h.Options.SampleRuns
	case "crash":
		total = h.Options.CrashRuns
	}
	if h.Of < 1 || total <= h.Shard {
		return 0
	}
	return int64((total-h.Shard-1)/h.Of + 1)
}

// payload is the engine-state part of a snapshot: exactly one engine
// field is set, matching the header's mode family. Stats rides along with
// whichever engine state is set: the observability registry's cumulative
// totals as of the checkpoint, restored on resume so a resumed campaign
// reports cumulative — not per-process-life — counters (docs/metrics.md).
type payload struct {
	Explore *sched.ExploreState `json:"explore,omitempty"`
	Sample  *sample.BatchState  `json:"sample,omitempty"`
	Crash   *sched.SeededState  `json:"crash,omitempty"`
	Stats   *stats.Snapshot     `json:"stats,omitempty"`
}

// optionsHash computes the campaign identity hash of a header: the
// FNV-64a of a canonical rendering of everything that defines what the
// campaign computes. Shard index is excluded (shards of one campaign
// share the hash); shard count is included (a 3-way split is not the
// same campaign as a 5-way one).
func optionsHash(h Header) string {
	f := fnv.New64a()
	fmt.Fprintf(f, "v%d|mode=%s|task=%s|protocol=%s|n=%d|ids=%v|of=%d|", h.Version, h.Mode, h.Task, h.Protocol, h.N, h.IDs, h.Of)
	// cmax=0 keeps the hash text of headers written while options still
	// carried a crash cap (max_crashes, unset everywhere: every sweep
	// caps crashes at n-1). A header whose hash covers a non-zero cap
	// fails the hash check.
	fmt.Fprintf(f, "seed=%d|maxruns=%d|maxsteps=%d|red=%d|sruns=%d|smode=%d|depth=%d|cruns=%d|cprob=%g|cmax=0",
		h.Options.Seed, h.Options.MaxRuns, h.Options.MaxSteps, h.Options.Reduction,
		h.Options.SampleRuns, h.Options.SampleMode, h.Options.Depth,
		h.Options.CrashRuns, h.Options.CrashProb)
	// Non-default memory model / adversary choices join the identity;
	// defaults contribute nothing, so hashes of snapshots from before the
	// registries existed are unchanged and keep resuming.
	if h.Options.Model != "" {
		fmt.Fprintf(f, "|model=%s", h.Options.Model)
	}
	if h.Options.Adversary != "" {
		fmt.Fprintf(f, "|adversary=%s", h.Options.Adversary)
	}
	return fmt.Sprintf("%016x", f.Sum64())
}

// encodeSnapshot encodes the snapshot file, header + payload, as three
// parts to write in order: a head, a sample state's class object, and a
// tail. Head and tail are appended to dst, one after the other; run passes
// parts[0] of the previous checkpoint, emptied, so every checkpoint of a
// campaign reuses one buffer. The class object is the sample state's own
// bytes (sample.BatchState.AppendJSONParts), so the largest part reaches
// the file without a copy; it is nil, and the tail empty, for the other
// payloads.
func encodeSnapshot(dst []byte, h Header, p payload) ([3][]byte, error) {
	h.Magic, h.Version = Magic, Version
	h.OptionsHash = optionsHash(h)
	h.Updated = time.Now().UTC().Format(time.RFC3339) //gsb:nondeterminism-ok Updated is a freshness timestamp, excluded from optionsHash

	buf := bytes.NewBuffer(dst)
	if err := json.NewEncoder(buf).Encode(h); err != nil {
		return [3][]byte{dst}, fmt.Errorf("campaign: encode header: %w", err)
	}
	parts, err := appendPayload(buf.Bytes(), p)
	if err != nil {
		return parts, fmt.Errorf("campaign: encode payload: %w", err)
	}
	return parts, nil
}

// appendPayload appends p and a newline to dst, as encodeSnapshot's
// parts: exactly the bytes json.Encoder writes for p. A sample payload's
// engine state goes through sample.BatchState's own encoder, which keeps
// its class object from one checkpoint to the next instead of sorting and
// formatting the whole map each time; every other payload goes through
// json.Encoder.
func appendPayload(dst []byte, p payload) ([3][]byte, error) {
	if p.Sample == nil || p.Explore != nil || p.Crash != nil {
		buf := bytes.NewBuffer(dst)
		err := json.NewEncoder(buf).Encode(p)
		return [3][]byte{buf.Bytes()}, err
	}
	dst = append(dst, `{"sample":`...)
	dst, classes, err := p.Sample.AppendJSONParts(dst)
	if err != nil {
		return [3][]byte{dst}, err
	}
	head := len(dst)
	dst = append(dst, '}')
	if p.Stats != nil {
		st, err := json.Marshal(p.Stats)
		if err != nil {
			return [3][]byte{dst}, err
		}
		dst = append(dst, `,"stats":`...)
		dst = append(dst, st...)
	}
	dst = append(dst, '}', '\n')
	return [3][]byte{dst[:head], classes, dst[head:]}, nil
}

// decodeHeader parses and validates a snapshot's header line from the
// leading bytes of its content (magic, version, hash, shard range, and a
// mode that its options select), returning the header and the bytes after
// the line (the payload). It is pure — no file I/O — so FuzzParseHeader
// can drive it with arbitrary inputs; the file-reading wrappers add path
// context to its errors.
func decodeHeader(data []byte) (Header, []byte, error) {
	var h Header
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return h, nil, errors.New("snapshot has no header line")
	}
	line, rest := data[:i+1], data[i+1:]
	if err := json.Unmarshal(line, &h); err != nil {
		return h, nil, fmt.Errorf("snapshot header is not JSON: %w", err)
	}
	if h.Magic != Magic {
		return h, nil, fmt.Errorf("not a campaign snapshot (magic %q)", h.Magic)
	}
	if h.Version != Version {
		return h, nil, fmt.Errorf("snapshot format version %d, this build reads version %d", h.Version, Version)
	}
	if want := optionsHash(h); h.OptionsHash != want {
		return h, nil, fmt.Errorf("header hash %s does not match its contents (%s): snapshot corrupted or hand-edited", h.OptionsHash, want)
	}
	if h.Of < 1 || h.Shard < 0 || h.Shard >= h.Of {
		return h, nil, fmt.Errorf("shard %d of %d is not a valid shard", h.Shard, h.Of)
	}
	if want := ModeOf(h.ExploreOptions()); h.Mode != want {
		return h, nil, fmt.Errorf("header mode %s contradicts its options, which select mode %s", h.Mode, want)
	}
	return h, rest, nil
}

// decodeSnapshot parses and validates a whole snapshot (header line plus
// payload), the one gate for resume, merge and fleet uploads. Pure for the
// same reason as decodeHeader: FuzzDecodeSnapshot drives it directly.
func decodeSnapshot(data []byte) (Header, payload, error) {
	var p payload
	h, rest, err := decodeHeader(data)
	if err != nil {
		return h, p, err
	}
	// Unmarshal, unlike a json.Decoder, rejects anything but whitespace
	// after the payload value.
	if err := json.Unmarshal(rest, &p); err != nil {
		return h, p, fmt.Errorf("snapshot payload: %w", err)
	}
	set := 0
	for _, ok := range []bool{p.Explore != nil, p.Sample != nil, p.Crash != nil} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return h, p, fmt.Errorf("snapshot payload must carry exactly one engine state (has %d)", set)
	}
	if got, want := p.payloadFamily(), h.Mode.family(); got != want {
		return h, p, fmt.Errorf("payload family %q does not match mode %s", got, h.Mode)
	}
	pool := p.Crash
	if p.Sample != nil {
		pool = &p.Sample.Pool
	}
	// A zero pool is shard 0 of 1, as sched.SeededSlice reads it.
	if pool != nil && (pool.Shard != h.Shard || pool.Of != h.Of && (pool.Of != 0 || h.Of != 1)) {
		return h, p, fmt.Errorf("payload pool is shard %d of %d, the header's is shard %d of %d", pool.Shard, pool.Of, h.Shard, h.Of)
	}
	return h, p, p.Sample.CheckClasses()
}

// ReadHeader reads and validates only the snapshot header — the cheap
// read used by status and by merge's pre-flight checks. Only the first
// line of the file is read, so the cost is independent of payload size.
func ReadHeader(path string) (Header, error) {
	var h Header
	f, err := os.Open(path)
	if err != nil {
		return h, fmt.Errorf("campaign: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	line, err := r.ReadBytes('\n')
	if err != nil {
		return h, fmt.Errorf("campaign: %s: reading snapshot header: %w", path, err)
	}
	h, _, err = decodeHeader(line)
	if err != nil {
		return h, fmt.Errorf("campaign: %s: %w", path, err)
	}
	return h, nil
}

// readSnapshot reads and validates a full snapshot.
func readSnapshot(path string) (Header, payload, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Header{}, payload{}, fmt.Errorf("campaign: %w", err)
	}
	h, p, err := decodeSnapshot(data)
	if err != nil {
		return h, p, fmt.Errorf("campaign: %s: %w", path, err)
	}
	return h, p, nil
}

func (p payload) payloadFamily() string {
	switch {
	case p.Explore != nil:
		return "explore"
	case p.Sample != nil:
		return "sample"
	case p.Crash != nil:
		return "crash"
	}
	return "none"
}
