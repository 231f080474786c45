// Package fleet turns the coordination-free shard math of
// internal/campaign into a managed verification fleet: a coordinator
// that accepts campaign submissions over an HTTP/JSON API (schema
// gsbfleet/v1), deals shards from a job queue to registered workers,
// collects their periodically uploaded checkpoint snapshots and timeline
// sidecars, re-deals the shard of a dead or stale worker (the
// replacement resumes from the last uploaded checkpoint), and
// auto-merges the finished shard set into the final campaign report —
// which internal/campaign's exact-merge guarantee makes equal to an
// uninterrupted single-process run, no matter how many workers died on
// the way.
//
// The package splits along the classic control-plane line (docs/fleet.md):
//
//   - Coordinator is the state holder: campaigns, shard queue, worker
//     registry, uploaded snapshots, the reconcile loop that detects
//     missed heartbeats and stale checkpoints, and the fleet-level
//     observability surface (/status, /metrics, /timeline) aggregated
//     from the shards' uploaded snapshots.
//   - Worker is the agent: it wraps the campaign.Start/Resume facade,
//     heartbeats, uploads a snapshot after every checkpoint write, and
//     drains gracefully on context cancellation (SIGTERM in the CLI).
//
// Determinism is inherited, not re-proven: every shard is the same
// deterministic computation it would be under `gsbcampaign -shard i/m`,
// checkpoints carry cumulative counters, and the options hash in every
// snapshot header fences uploads from a different campaign. The
// coordinator only ever keeps the latest accepted snapshot per shard, so
// fleet aggregates never double-count a re-dealt shard's pre-crash runs.
package fleet

import (
	"fmt"

	"repro/internal/campaign"
)

// Schema tags every gsbfleet/v1 API request and response body.
const Schema = "gsbfleet/v1"

// Submission is the body of POST /v1/campaigns: a whole campaign —
// protocol, instance size, verification mode and its options, and how
// many shards to deal it as. Its campaign fields are those of
// campaign.Request, which the gsbcampaign start flags also fill;
// Validate resolves them against the same registries, so a typo is
// rejected at submission time, before any worker sees a task.
type Submission struct {
	Schema   string `json:"schema"`
	Protocol string `json:"protocol"`
	N        int    `json:"n"`
	// Mode is the request mode (docs/checkpoint-format.md lists them).
	Mode string `json:"mode"`
	// Runs is the sampled/swept run budget (walk, pct, crash modes).
	Runs      int     `json:"runs,omitempty"`
	PCTDepth  int     `json:"pct_depth,omitempty"`
	CrashProb float64 `json:"crash_prob,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	Model     string  `json:"model,omitempty"`
	Adversary string  `json:"adversary,omitempty"`
	MaxRuns   int     `json:"max_runs,omitempty"`
	MaxSteps  int     `json:"max_steps,omitempty"`
	// Shards is the number of shards the campaign is dealt as (1 to
	// campaign.MaxShards).
	Shards int `json:"shards"`
	// CheckpointEvery is the per-shard checkpoint interval in runs
	// (0: the campaign default). Each checkpoint write is also a
	// snapshot upload, so this is the fleet's progress granularity and
	// the most work a dying worker can lose.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// Validate checks the submission's fleet fields, normalizes defaults
// (Shards 0 -> 1) and validates its campaign fields as a
// campaign.Request. It is the single gate both the CLI and the
// coordinator use.
func (s *Submission) Validate() error {
	if s.Schema != "" && s.Schema != Schema {
		return fmt.Errorf("fleet: submission schema %q, want %q", s.Schema, Schema)
	}
	if s.Shards == 0 {
		s.Shards = 1
	}
	if s.Shards < 1 || s.Shards > campaign.MaxShards {
		return fmt.Errorf("fleet: need shards >= 1 and shards <= %d, got %d", campaign.MaxShards, s.Shards)
	}
	return s.request().Validate()
}

// request is the submission's campaign, in campaign.Request form.
func (s *Submission) request() campaign.Request {
	return campaign.Request{
		Protocol: s.Protocol, N: s.N, Mode: s.Mode, Runs: s.Runs,
		PCTDepth: s.PCTDepth, CrashProb: s.CrashProb, Model: s.Model,
		Adversary: s.Adversary, Seed: s.Seed, MaxRuns: s.MaxRuns,
		MaxSteps: s.MaxSteps, CheckpointEvery: s.CheckpointEvery,
	}
}

// config builds the campaign config of one shard of the submission.
// path is where the shard's snapshot lives on the caller's disk; the
// coordinator and each worker call this with their own paths, and the
// resulting campaign identity (options hash) is identical on both sides
// — the fence every snapshot upload is checked against.
func (s *Submission) config(shard int, path string) (campaign.Config, error) {
	return s.request().Config(shard, s.Shards, path)
}

// SubmitResponse answers POST /v1/campaigns.
type SubmitResponse struct {
	Schema string `json:"schema"`
	// ID is the campaign's fleet-wide identifier (stable across worker
	// deaths; all shard endpoints are keyed by it).
	ID string `json:"id"`
	// Shards echoes the normalized shard count.
	Shards int `json:"shards"`
}

// RegisterRequest is the body of POST /v1/workers.
type RegisterRequest struct {
	Schema string `json:"schema"`
	// Name is the worker's self-chosen label (hostname, container name);
	// the coordinator makes it unique by suffixing when taken.
	Name string `json:"name"`
}

// RegisterResponse answers a worker registration.
type RegisterResponse struct {
	Schema string `json:"schema"`
	// WorkerID authenticates every later heartbeat, lease and upload of
	// this worker session.
	WorkerID string `json:"worker_id"`
	// Name is the (possibly uniquified) registered name.
	Name string `json:"name"`
	// HeartbeatSec is the interval the coordinator expects heartbeats
	// at; missing several in a row marks the worker dead and re-deals
	// its shard.
	HeartbeatSec float64 `json:"heartbeat_sec"`
}

// none is the request type of the routes whose request carries nothing:
// the GETs, the DELETE, and the heartbeat and lease POSTs, whose body
// the client sends as {} and the coordinator does not read.
type none = struct{}

// HeartbeatResponse answers POST /v1/workers/{id}/heartbeat.
type HeartbeatResponse struct {
	Schema string `json:"schema"`
}

// Task is one shard assignment, the payload of a successful lease.
type Task struct {
	CampaignID string     `json:"campaign_id"`
	Shard      int        `json:"shard"`
	Submission Submission `json:"submission"`
	// Snapshot is the shard's latest uploaded checkpoint when the shard
	// was dealt before (a re-deal after a worker death, or a drained
	// shard): the worker writes it to disk and resumes from it, so no
	// verified run is ever repeated or lost. Nil for a fresh shard.
	Snapshot []byte `json:"snapshot,omitempty"`
	// Timeline is the snapshot's sidecar series, re-seeded alongside so
	// the resumed shard continues one monotone coverage timeline.
	Timeline []byte `json:"timeline,omitempty"`
}

// LeaseResponse answers POST /v1/workers/{id}/lease; a 204 means the
// queue is empty.
type LeaseResponse struct {
	Schema string `json:"schema"`
	Task   Task   `json:"task"`
}

// UploadRequest is the body of POST
// /v1/campaigns/{id}/shards/{shard}/snapshot: the complete snapshot
// file as written by the shard's checkpointer, plus its timeline
// sidecar. WorkerID must name the shard's current owner (empty for an
// operator import via `gsbfleet upload`, accepted only while no worker
// owns the shard).
type UploadRequest struct {
	Schema   string `json:"schema"`
	WorkerID string `json:"worker_id,omitempty"`
	Snapshot []byte `json:"snapshot"`
	Timeline []byte `json:"timeline,omitempty"`
}

// UploadResponse answers an accepted snapshot upload.
type UploadResponse struct {
	Schema string `json:"schema"`
	// Done reports that this upload completed the shard.
	Done bool `json:"done"`
	// Runs echoes the accepted snapshot's cumulative run count.
	Runs int64 `json:"runs"`
}

// ReleaseRequest is the body of POST /v1/workers/{id}/release: a
// draining worker hands its shard back (the final paused snapshot was
// already uploaded), so the coordinator can re-deal it immediately
// instead of waiting out the heartbeat timeout.
type ReleaseRequest struct {
	Schema     string `json:"schema"`
	CampaignID string `json:"campaign_id"`
	Shard      int    `json:"shard"`
}

// FailRequest is the body of POST
// /v1/campaigns/{id}/shards/{shard}/fail: the shard's owner reports a
// terminal engine error (an exhausted budget, an invalid config), which
// fails the campaign instead of re-dealing the shard forever.
type FailRequest struct {
	Schema   string `json:"schema"`
	WorkerID string `json:"worker_id"`
	Error    string `json:"error"`
}

// Ack answers the routes that return nothing but success: a fail
// report, a release and a deregistration.
type Ack struct {
	Schema string `json:"schema"`
}

// ShardStatus is the per-shard slice of a campaign status.
type ShardStatus struct {
	Shard int `json:"shard"`
	// State is queued | running | done | failed.
	State string `json:"state"`
	// Worker is the owning worker's name while running.
	Worker string `json:"worker,omitempty"`
	// Runs is the cumulative run count of the latest accepted snapshot.
	Runs int64 `json:"runs"`
	// Done mirrors the snapshot header's done flag.
	Done bool `json:"done,omitempty"`
	// Redeals counts how many times the shard was handed to a new
	// worker after its previous owner died, went stale, or drained.
	Redeals int `json:"redeals"`
	// UploadAgeSec is the age of the latest accepted snapshot upload.
	UploadAgeSec float64 `json:"upload_age_sec,omitempty"`
	// Error is the terminal engine error of a failed shard.
	Error string `json:"error,omitempty"`
}

// CampaignStatus is the live view of one campaign: GET
// /v1/campaigns/{id}, and the per-campaign rows of the fleet /status.
type CampaignStatus struct {
	Schema     string     `json:"schema"`
	ID         string     `json:"id"`
	Submission Submission `json:"submission"`
	Task       string     `json:"task"`
	// State is queued | running | merging | done | failed.
	State  string        `json:"state"`
	Shards []ShardStatus `json:"shards"`
	// Runs/Schedules/Classes are fleet aggregates: the sum over shards
	// of each shard's LATEST snapshot (cumulative per shard), so a
	// re-dealt shard's pre-crash work is never counted twice.
	Runs      int64 `json:"runs"`
	Schedules int64 `json:"schedules"`
	Classes   int64 `json:"classes,omitempty"`
	// TotalRuns is the campaign-wide run budget of the seeded modes (0
	// when unknowable: the enumerating family).
	TotalRuns int64 `json:"total_runs,omitempty"`
	// RunsPerSec and ETASec are coordinator-anchored: the rate is
	// measured over the aggregate cumulative run count, so it does NOT
	// re-anchor when a worker dies or a shard is re-dealt (unlike a
	// single process's observer, whose rate base is per process life).
	RunsPerSec float64 `json:"runs_per_sec,omitempty"`
	ETASec     float64 `json:"eta_sec,omitempty"`
	Redeals    int     `json:"redeals"`
	Done       bool    `json:"done"`
	// Report is the merged final report once every shard finished and
	// the auto-merge settled the campaign-wide verdict; Violation is its
	// verdict ("" when every run verified). Error records a terminal
	// failure (a failed shard or merge).
	Report    *campaign.Report `json:"report,omitempty"`
	Violation string           `json:"violation,omitempty"`
	Error     string           `json:"error,omitempty"`
}

// WorkerStatus is one registered worker in the fleet /status.
type WorkerStatus struct {
	Name string `json:"name"`
	// Shard is "campaign/shard" while the worker owns one.
	Shard string `json:"shard,omitempty"`
	// HeartbeatAgeSec is the age of the last heartbeat.
	HeartbeatAgeSec float64 `json:"heartbeat_age_sec"`
}

// FleetStatusSchema tags the fleet-level /status response.
const FleetStatusSchema = "gsbfleetstatus/v1"

// FleetStatus is the coordinator's aggregate view: GET /status.
type FleetStatus struct {
	Schema  string         `json:"schema"`
	Workers []WorkerStatus `json:"workers"`
	// Queued/Running/Done/Failed count shards across all campaigns.
	Queued    int              `json:"queued"`
	Running   int              `json:"running"`
	Done      int              `json:"done"`
	Failed    int              `json:"failed"`
	Redeals   int              `json:"redeals"`
	Runs      int64            `json:"runs"`
	Campaigns []CampaignStatus `json:"campaigns"`
}

// apiError is the JSON error body every non-2xx response carries.
type apiError struct {
	Schema string `json:"schema"`
	Error  string `json:"error"`
}
