package campaign

import (
	_ "embed"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/sample"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/timeline"
)

// This file is the live view of a running campaign: an Observer owns the
// stats registry the engines publish into and renders it four ways —
// Prometheus /metrics, a JSON /status endpoint (schema gsbstatus/v1),
// periodic NDJSON progress records (schema gsbprogress/v1) for shard
// logs, and the /timeline history endpoint backed by the gsbtimeline/v1
// sidecar (plus the embedded dashboard at / that charts it). The run
// loop feeds it identity and checkpoint events; rates are computed
// against a base that is re-anchored after a resume restores the
// checkpointed totals, so runs/sec measures this process life while the
// run counters stay cumulative. Every wall-clock read lives here, in the
// observer layer — never in result-computing code.

// Schema identifiers of the observer's JSON records.
const (
	// StatusSchema tags /status responses.
	StatusSchema = "gsbstatus/v1"
	// ProgressSchema tags the periodic NDJSON progress records written to
	// stderr by gsbcampaign -progress.
	ProgressSchema = "gsbprogress/v1"
)

// StatusRecord is one progress observation of a campaign shard — the
// /status response body and, with Time set, one gsbprogress/v1 NDJSON
// line. Counter fields are cumulative across resumed lives; rate fields
// measure the current process life.
type StatusRecord struct {
	Schema   string `json:"schema"`
	Time     string `json:"time,omitempty"` // RFC3339, progress records only
	Mode     Mode   `json:"mode"`
	Protocol string `json:"protocol"`
	Task     string `json:"task"`
	Shard    int    `json:"shard"`
	Of       int    `json:"of"`
	Done     bool   `json:"done"`
	// Runs is gsb_runs_total (every engine run, probe runs included);
	// Schedules and Classes are the verified-schedule and distinct-class
	// counters of the enumerating and sampling engines.
	Runs      int64 `json:"runs"`
	Schedules int64 `json:"schedules"`
	Classes   int64 `json:"classes,omitempty"`
	// Frontier is the exploration frontier gauge (explore family only).
	Frontier int64 `json:"frontier,omitempty"`
	// TotalRuns is the shard-local run budget (seeded modes; 0 when the
	// total is unknowable, explore family), the denominator behind
	// ETASec. ETASec is omitted until a rate is measurable.
	TotalRuns  int64   `json:"total_runs,omitempty"`
	RunsPerSec float64 `json:"runs_per_sec"`
	ETASec     float64 `json:"eta_sec,omitempty"`
	ElapsedSec float64 `json:"elapsed_sec"`
	// Checkpoints counts snapshot writes (cumulative);
	// LastCheckpointAgeSec is the age of the newest one, absent before
	// the first write of this life.
	Checkpoints          int64    `json:"checkpoints"`
	LastCheckpointAgeSec *float64 `json:"last_checkpoint_age_sec,omitempty"`
}

// Observer is the live observability endpoint of one campaign shard: set
// it as Config.Observer and serve Handler, or poll Progress. An Observer
// observes one campaign at a time (Start/Resume re-attach it); the zero
// value is not usable, use NewObserver.
type Observer struct {
	reg *stats.Registry

	mu          sync.Mutex
	h           Header    // identity + latest checkpointed progress
	total       int64     // shard-local run budget; 0 = unknown
	start       time.Time // rate base: attach time (post-restore)
	base        int64     // gsb_runs_total at the rate base
	lastCkpt    time.Time // last snapshot write of this life
	checkpoints int64     // cumulative, restored base included
	attached    bool

	// Timeline sampling state: the sidecar path /timeline reads, and the
	// previous sample's anchors for the per-interval rate and the mean
	// checkpoint write latency.
	timelinePath   string
	lastSample     time.Time
	lastSampleRuns int64
	lastCkptSum    float64
	lastCkptCount  int64
}

// NewObserver returns an observer with a fresh registry.
func NewObserver() *Observer {
	return &Observer{reg: stats.New()}
}

// Registry is the stats registry the observed campaign publishes into.
func (o *Observer) Registry() *stats.Registry { return o.reg }

// attach (re-)anchors the observer on a campaign: called by the run loop
// after any checkpointed totals have been restored into the registry, so
// the rate base separates this life's work from restored history.
func (o *Observer) attach(h Header, total int64, timelinePath string) {
	snap := o.reg.Snapshot()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.h = h
	o.total = total
	o.start = time.Now() //gsb:nondeterminism-ok progress-rate baseline; Observer never touches results
	o.base = snap.Counter(sched.MetricRuns)
	o.lastCkpt = time.Time{}
	o.checkpoints = snap.Counter(MetricCheckpointWrites)
	o.attached = true
	o.timelinePath = timelinePath
	o.lastSample = o.start
	o.lastSampleRuns = o.base
	ckpt := snap.Histograms[MetricCheckpointSeconds]
	o.lastCkptSum, o.lastCkptCount = ckpt.Sum, ckpt.Count
}

// checkpoint records a snapshot write (the header just written).
func (o *Observer) checkpoint(h Header) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.h = h
	o.lastCkpt = time.Now() //gsb:nondeterminism-ok checkpoint-age display only
	o.checkpoints++
}

// sample maps a registry snapshot — the one the run loop is about to
// seal into a checkpoint — to a gsbtimeline/v1 record. The counter
// columns come straight from the snapshot, so they are deterministic
// exactly where the underlying metrics are; the timestamp and the rate
// and checkpoint-health columns describe this sampling interval and are
// the only wall-clock-derived fields in the whole timeline.
func (o *Observer) sample(h Header, snap stats.Snapshot) timeline.Record {
	now := time.Now() //gsb:nondeterminism-ok timeline sample timestamp/rate; observer layer only
	o.mu.Lock()
	defer o.mu.Unlock()
	rec := timeline.Record{
		Time:        now.UTC().Format(time.RFC3339Nano),
		Shard:       h.Shard,
		Of:          h.Of,
		Done:        h.Done,
		Runs:        snap.Counter(sched.MetricRuns),
		Schedules:   snap.Counter(sched.MetricSchedules),
		Classes:     snap.Counter(sample.MetricClasses),
		Steals:      snap.Counter(sched.MetricSteals),
		Aborts:      snap.Counter(sched.MetricAborts),
		Frontier:    snap.Gauges[sched.MetricFrontierDepth],
		Checkpoints: snap.Counter(MetricCheckpointWrites),
	}
	if dt := now.Sub(o.lastSample).Seconds(); dt > 0 {
		rec.RunsPerSec = float64(rec.Runs-o.lastSampleRuns) / dt
	}
	if !o.lastCkpt.IsZero() {
		rec.CheckpointAgeSec = now.Sub(o.lastCkpt).Seconds()
	}
	ckpt := snap.Histograms[MetricCheckpointSeconds]
	if n := ckpt.Count - o.lastCkptCount; n > 0 {
		rec.CheckpointWriteSec = (ckpt.Sum - o.lastCkptSum) / float64(n)
	}
	o.lastSample, o.lastSampleRuns = now, rec.Runs
	o.lastCkptSum, o.lastCkptCount = ckpt.Sum, ckpt.Count
	return rec
}

// Progress renders the current state as a gsbprogress/v1 record
// (timestamped, for NDJSON logs).
func (o *Observer) Progress() StatusRecord {
	rec := o.status()
	rec.Schema = ProgressSchema
	rec.Time = time.Now().UTC().Format(time.RFC3339) //gsb:nondeterminism-ok NDJSON progress timestamp
	return rec
}

func (o *Observer) status() StatusRecord {
	snap := o.reg.Snapshot()
	now := time.Now() //gsb:nondeterminism-ok rate/ETA arithmetic for status display
	o.mu.Lock()
	defer o.mu.Unlock()
	rec := StatusRecord{
		Schema:      StatusSchema,
		Mode:        o.h.Mode,
		Protocol:    o.h.Protocol,
		Task:        o.h.Task,
		Shard:       o.h.Shard,
		Of:          o.h.Of,
		Done:        o.h.Done,
		Runs:        snap.Counter(sched.MetricRuns),
		Schedules:   snap.Counter(sched.MetricSchedules),
		Classes:     snap.Counter(sample.MetricClasses),
		Frontier:    snap.Gauges[sched.MetricFrontierDepth],
		TotalRuns:   o.total,
		Checkpoints: o.checkpoints,
	}
	if !o.attached {
		return rec
	}
	elapsed := now.Sub(o.start).Seconds()
	rec.ElapsedSec = elapsed
	if elapsed > 0 {
		rec.RunsPerSec = float64(rec.Runs-o.base) / elapsed
	}
	rec.ETASec = ETASec(o.total, rec.Runs, rec.RunsPerSec, rec.Done)
	if !o.lastCkpt.IsZero() {
		age := now.Sub(o.lastCkpt).Seconds()
		rec.LastCheckpointAgeSec = &age
	}
	return rec
}

// ETASec is the remaining-time estimate in seconds behind every eta_sec
// field (a shard's /status, the fleet's campaign status) and the ETA of
// `gsbcampaign status -watch`. It returns 0 — which omits the field —
// whenever no honest estimate exists: an unknown total (the enumerating
// family, whose run count is unknowable up front), no measurable rate
// yet, a finished campaign, or cumulative runs already at/past the
// budget (probe runs can overshoot it). Anything else would serialize a
// bogus ETA.
func ETASec(total, runs int64, rate float64, done bool) float64 {
	if total <= 0 || rate <= 0 || done {
		return 0
	}
	left := total - runs
	if left <= 0 {
		return 0
	}
	return float64(left) / rate
}

// dashboardHTML is the embedded zero-dependency HTML/SVG dashboard
// served at /: it charts coverage growth (classes vs runs), the
// runs/sec trend, frontier depth and checkpoint freshness by polling
// /status and /timeline.
//
//go:embed dashboard.html
var dashboardHTML []byte

// TimelinePath is the gsbtimeline/v1 sidecar file the observed campaign
// appends to ("" before a campaign with a timeline attaches).
func (o *Observer) TimelinePath() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.timelinePath
}

// Timeline reads the observed campaign's timeline series from its
// sidecar, skipping records before the since index. It returns an empty
// series (never an error) while no sidecar exists yet.
func (o *Observer) Timeline(since int64) ([]timeline.Record, error) {
	path := o.TimelinePath()
	if path == "" {
		return nil, nil
	}
	recs, err := timeline.Read(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return timeline.Since(recs, since), nil
}

// Handler serves the observability endpoints: GET /metrics (Prometheus
// text exposition of the registry), GET /status (a gsbstatus/v1 JSON
// StatusRecord), GET /timeline (the gsbtimeline/v1 series as a JSON
// array; ?since=N skips records below sample index N), and GET / (the
// embedded dashboard). It is what gsbcampaign -metrics binds.
func (o *Observer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = o.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		_ = enc.Encode(o.status())
	})
	mux.HandleFunc("/timeline", func(w http.ResponseWriter, r *http.Request) {
		var since int64
		if s := r.URL.Query().Get("since"); s != "" {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				http.Error(w, "since: not an integer", http.StatusBadRequest)
				return
			}
			since = v
		}
		recs, err := o.Timeline(since)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if recs == nil {
			recs = []timeline.Record{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		_ = enc.Encode(recs)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write(dashboardHTML)
	})
	return mux
}
