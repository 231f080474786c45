package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/stats"
	"repro/internal/timeline"
)

// Fleet-level metric names (docs/metrics.md). The engine-layer
// aggregates served on /metrics are the shards' own cumulative counters
// summed from their latest uploaded snapshots; these count the
// coordinator's own control-plane events.
const (
	// MetricRedeals counts shard re-deals: a queued-again shard whose
	// previous owner died, went stale, or drained.
	MetricRedeals = "gsb_fleet_redeals_total"
	// MetricUploads counts accepted snapshot uploads;
	// MetricUploadsRejected counts rejected ones (tampered, stale owner,
	// wrong campaign, regressing progress).
	MetricUploads         = "gsb_fleet_uploads_total"
	MetricUploadsRejected = "gsb_fleet_uploads_rejected_total"
	// MetricWorkers gauges currently registered workers.
	MetricWorkers = "gsb_fleet_workers"
	// MetricShardsQueued/Running/Done gauge the shard queue.
	MetricShardsQueued  = "gsb_fleet_shards_queued"
	MetricShardsRunning = "gsb_fleet_shards_running"
	MetricShardsDone    = "gsb_fleet_shards_done"
)

// CoordinatorConfig configures a Coordinator.
type CoordinatorConfig struct {
	// DataDir is where uploaded shard snapshots and sidecars are
	// persisted (one subdirectory per campaign). Required.
	DataDir string
	// HeartbeatTimeout is how long a worker may go silent before it is
	// declared dead and its shard re-dealt (default 10s). The interval
	// workers are told to heartbeat at is a third of it.
	HeartbeatTimeout time.Duration
	// StaleCheckpoint re-deals a running shard whose last deal or
	// accepted snapshot upload, whichever is later, is older than this,
	// even if its worker still heartbeats — a wedged worker holds a lease
	// but makes no progress (default 2m; <0 disables).
	StaleCheckpoint time.Duration
	// ReconcileEvery is the reconcile-loop tick (default 1s).
	ReconcileEvery time.Duration
	// Logf, when set, receives control-plane event logs.
	Logf func(format string, args ...any)
}

func (c *CoordinatorConfig) normalize() error {
	if c.DataDir == "" {
		return fmt.Errorf("fleet: coordinator needs a data dir")
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 10 * time.Second
	}
	if c.StaleCheckpoint == 0 {
		c.StaleCheckpoint = 2 * time.Minute
	}
	if c.ReconcileEvery <= 0 {
		c.ReconcileEvery = time.Second
	}
	return nil
}

// Coordinator is the fleet control plane: an http.Handler serving the
// gsbfleet/v1 API plus the aggregated /status, /metrics and /timeline
// endpoints. Create with NewCoordinator, serve its Handler, and Close it
// to stop the reconcile loop.
//
// Its control-plane state is one state value behind mu. A route reads the
// clock once, holds mu only while one state method runs, and runs the
// effects that method returned (log lines, merges) after releasing it; an
// upload writes and fsyncs its files before it takes mu. So no clock
// read, fsync, log call or merge ever runs under mu.
type Coordinator struct {
	cfg CoordinatorConfig

	mu sync.Mutex
	st state

	stop    chan struct{}
	stopped sync.WaitGroup
	mux     *http.ServeMux
}

// NewCoordinator creates a coordinator and starts its reconcile loop.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: data dir: %w", err)
	}
	c := &Coordinator{cfg: cfg, st: newState(cfg), stop: make(chan struct{})}
	c.buildMux()
	c.stopped.Add(1)
	go c.reconcileLoop()
	return c, nil
}

// Close stops the reconcile loop. In-flight HTTP requests finish.
func (c *Coordinator) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.stopped.Wait()
}

// reconcileLoop periodically expires dead workers, re-deals stale
// shards, refreshes the rate anchors and triggers merges.
func (c *Coordinator) reconcileLoop() {
	defer c.stopped.Done()
	t := time.NewTicker(c.cfg.ReconcileEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.reconcile(time.Now())
		}
	}
}

// reconcile is one pass of the control loop at now.
func (c *Coordinator) reconcile(now time.Time) {
	c.mu.Lock()
	fx := c.st.tick(now)
	c.mu.Unlock()
	c.run(fx)
}

// step is the route adapter of every state method: it reads the clock
// once, runs t on the state under mu, and runs the effects t returned
// once mu is released. The deferred unlock keeps a panicking transition,
// which net/http recovers, from leaving mu held.
func step[R any](c *Coordinator, t func(s *state, now time.Time) (R, effects, error)) (R, error) {
	now := time.Now()
	resp, fx, err := func() (R, effects, error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		return t(&c.st, now)
	}()
	c.run(fx)
	return resp, err
}

// run carries out a transition's effects once mu is released.
func (c *Coordinator) run(fx effects) {
	if c.cfg.Logf != nil {
		for _, l := range fx.logs {
			c.cfg.Logf(l.format, l.args...)
		}
	}
	for _, id := range fx.merges {
		c.merge(id)
	}
}

// merge runs the exact shard merge of a finished campaign over its
// persisted shard snapshots and records the final report.
func (c *Coordinator) merge(id string) {
	c.mu.Lock()
	sub := c.st.campaigns[id].sub
	c.mu.Unlock()
	paths := make([]string, sub.Shards)
	for i := range paths {
		paths[i] = c.shardPath(id, i)
	}
	cfg, err := sub.config(0, paths[0])
	var rep campaign.Report
	if err == nil {
		rep, err = campaign.Merge(context.Background(), cfg, paths)
	}
	c.mu.Lock()
	fx := c.st.merged(id, rep, err)
	c.mu.Unlock()
	c.run(fx)
}

// shardPath is the on-disk home of a shard's latest uploaded snapshot.
func (c *Coordinator) shardPath(id string, shard int) string {
	return filepath.Join(c.cfg.DataDir, id, fmt.Sprintf("shard%d.ckpt", shard))
}

// Submit registers a new campaign and queues its shards. It is the
// programmatic form of POST /v1/campaigns, which answers each of its
// errors with 400.
func (c *Coordinator) Submit(sub Submission) (SubmitResponse, error) {
	return step(c, func(s *state, now time.Time) (SubmitResponse, effects, error) { return s.submit(now, sub) })
}

// upload decodes a shard snapshot upload and stages it before it takes
// mu: the snapshot and sidecar are written and fsynced to temp files in
// the data dir, under names no request chooses. The state's fences run
// under mu, and only when all pass are the temps renamed into place and
// the upload committed, so an acknowledged upload is durable and a
// rejected one lands no byte.
func (c *Coordinator) upload(campaignID string, shard int, req UploadRequest) (UploadResponse, error) {
	up := decodeUpload(campaignID, shard, req)
	var tmps []string // the staged snapshot, then its staged sidecar
	var stageErr error
	for _, data := range [][]byte{req.Snapshot, req.Timeline} {
		if up.err != nil || stageErr != nil || len(data) == 0 {
			break
		}
		var tmp string
		tmp, stageErr = timeline.Stage(c.cfg.DataDir, "upload-*.tmp", data)
		tmps = append(tmps, tmp)
	}
	defer func() {
		for _, tmp := range tmps {
			os.Remove(tmp) // a no-op once renamed into place
		}
	}()
	commit := func() error {
		path := c.shardPath(campaignID, shard)
		err := stageErr
		if err == nil {
			err = os.MkdirAll(filepath.Dir(path), 0o755)
		}
		for i, dst := range []string{path, timeline.SidecarPath(path)}[:len(tmps)] {
			if err == nil {
				err = os.Rename(tmps[i], dst)
			}
		}
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		return nil
	}
	return step(c, func(s *state, now time.Time) (UploadResponse, effects, error) {
		return s.upload(now, campaignID, shard, up, commit)
	})
}

// status renders the fleet-wide aggregate view.
func (c *Coordinator) status() FleetStatus {
	st, _ := step(c, func(s *state, now time.Time) (FleetStatus, effects, error) { return s.status(now), effects{}, nil })
	return st
}

// httpError carries a status code from a coordinator method to the
// route adapter, and from a response to the Client's caller.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// errorf is an *httpError answered with code.
func errorf(code int, format string, args ...any) error {
	return &httpError{code, fmt.Sprintf(format, args...)}
}

func badRequest(err error) error { return errorf(http.StatusBadRequest, "%v", err) }

// Handler serves the gsbfleet/v1 API and the fleet observability
// endpoints (GET /status, /metrics, /timeline and the campaign and
// worker routes under /v1/; docs/fleet.md documents every route).
func (c *Coordinator) Handler() http.Handler { return c.mux }

func (c *Coordinator) buildMux() {
	mux := http.NewServeMux()
	campaignStatus := func(id string) (CampaignStatus, error) {
		return step(c, func(s *state, now time.Time) (CampaignStatus, effects, error) {
			if cs, ok := s.campaigns[id]; ok {
				return s.campaignStatus(cs, now), effects{}, nil
			}
			return CampaignStatus{}, effects{}, errorf(http.StatusNotFound, "fleet: unknown campaign %q", id)
		})
	}
	handle(mux, "POST /v1/campaigns", func(_ *http.Request, sub Submission) (SubmitResponse, error) {
		return c.Submit(sub)
	})
	handle(mux, "GET /v1/campaigns", func(*http.Request, none) ([]CampaignStatus, error) {
		return c.status().Campaigns, nil
	})
	handle(mux, "GET /v1/campaigns/{id}", func(r *http.Request, _ none) (CampaignStatus, error) {
		return campaignStatus(r.PathValue("id"))
	})
	handle(mux, "GET /v1/campaigns/{id}/result", func(r *http.Request, _ none) (CampaignStatus, error) {
		st, err := campaignStatus(r.PathValue("id"))
		if err == nil && !st.Done && st.State != "failed" {
			err = errorf(http.StatusConflict, "fleet: campaign %s is not done (%s)", st.ID, st.State)
		}
		return st, err
	})
	handle(mux, "GET /v1/campaigns/{id}/timeline", func(r *http.Request, _ none) ([]timeline.Record, error) {
		return c.campaignTimeline(r.PathValue("id"))
	})
	handle(mux, "POST /v1/campaigns/{id}/shards/{shard}/snapshot", func(r *http.Request, req UploadRequest) (UploadResponse, error) {
		shard, err := shardParam(r)
		if err != nil {
			return UploadResponse{}, err
		}
		return c.upload(r.PathValue("id"), shard, req)
	})
	handle(mux, "POST /v1/campaigns/{id}/shards/{shard}/fail", func(r *http.Request, req FailRequest) (Ack, error) {
		shard, err := shardParam(r)
		if err != nil {
			return Ack{}, err
		}
		return step(c, func(s *state, now time.Time) (Ack, effects, error) { return s.fail(now, r.PathValue("id"), shard, req) })
	})
	handle(mux, "POST /v1/workers", func(_ *http.Request, req RegisterRequest) (RegisterResponse, error) {
		return step(c, func(s *state, now time.Time) (RegisterResponse, effects, error) { return s.register(now, req) })
	})
	handle(mux, "POST /v1/workers/{id}/heartbeat", func(r *http.Request, _ none) (HeartbeatResponse, error) {
		return step(c, func(s *state, now time.Time) (HeartbeatResponse, effects, error) {
			return s.heartbeat(now, r.PathValue("id"))
		})
	})
	handle(mux, "POST /v1/workers/{id}/lease", func(r *http.Request, _ none) (LeaseResponse, error) {
		return step(c, func(s *state, now time.Time) (LeaseResponse, effects, error) { return s.lease(now, r.PathValue("id")) })
	})
	handle(mux, "POST /v1/workers/{id}/release", func(r *http.Request, req ReleaseRequest) (Ack, error) {
		return step(c, func(s *state, now time.Time) (Ack, effects, error) { return s.release(now, r.PathValue("id"), req) })
	})
	handle(mux, "DELETE /v1/workers/{id}", func(r *http.Request, _ none) (Ack, error) {
		return step(c, func(s *state, now time.Time) (Ack, effects, error) { return s.deregister(now, r.PathValue("id")) })
	})
	handle(mux, "GET /status", func(*http.Request, none) (FleetStatus, error) {
		return c.status(), nil
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Fleet control-plane metrics first, then the engine counters
		// aggregated from the latest snapshot of every shard.
		c.mu.Lock()
		reg, snaps := c.st.metrics()
		c.mu.Unlock()
		reg.Restore(stats.Sum(snaps...))
		_ = reg.WritePrometheus(w)
	})
	handle(mux, "GET /timeline", func(r *http.Request, _ none) ([]timeline.Record, error) {
		id := r.URL.Query().Get("campaign")
		if id == "" {
			c.mu.Lock()
			if len(c.st.order) == 1 {
				id = c.st.order[0]
			}
			n := len(c.st.order)
			c.mu.Unlock()
			if id == "" {
				return nil, errorf(http.StatusBadRequest, "fleet: /timeline needs ?campaign=ID (%d campaigns submitted)", n)
			}
		}
		return c.campaignTimeline(id)
	})
	c.mux = mux
}

// handle registers one JSON route: it decodes the request body into Req
// (a route whose Req is none reads no body), calls h, and answers with
// h's Resp, or with h's error as an apiError under the *httpError's
// status code (500 for any other error). A body that is not JSON is a
// 400.
func handle[Req, Resp any](mux *http.ServeMux, pattern string, h func(*http.Request, Req) (Resp, error)) {
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if _, bodiless := any(req).(none); !bodiless {
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				writeErr(w, errorf(http.StatusBadRequest, "fleet: %s: body is not JSON: %v", pattern, err))
				return
			}
		}
		resp, err := h(r, req)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, resp)
	})
}

// shardParam parses the {shard} path segment.
func shardParam(r *http.Request) (int, error) {
	shard, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil {
		return 0, errorf(http.StatusBadRequest, "fleet: shard index is not an integer")
	}
	return shard, nil
}

// campaignTimeline merges the latest uploaded sidecar of every shard of
// a campaign into one fleet-wide series — the same (index, shard)
// interleaving `gsbcampaign merge -timeline` produces.
func (c *Coordinator) campaignTimeline(id string) ([]timeline.Record, error) {
	// Stored sidecars are only ever replaced, never modified, so they are
	// decoded after the lock is released.
	c.mu.Lock()
	cs, ok := c.st.campaigns[id]
	var sidecars [][]byte
	if ok {
		for _, sh := range cs.shards {
			sidecars = append(sidecars, sh.timeline)
		}
	}
	c.mu.Unlock()
	if !ok {
		return nil, errorf(http.StatusNotFound, "fleet: unknown campaign %q", id)
	}
	var series [][]timeline.Record
	for i, b := range sidecars {
		if len(b) == 0 {
			continue
		}
		recs, err := timeline.Decode(b, fmt.Sprintf("campaign %s shard %d sidecar", id, i))
		if err != nil {
			return nil, errorf(http.StatusInternalServerError, "%v", err)
		}
		series = append(series, recs)
	}
	merged, err := timeline.Merge(series...)
	if err != nil {
		return nil, errorf(http.StatusInternalServerError, "%v", err)
	}
	if merged == nil {
		merged = []timeline.Record{}
	}
	return merged, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr answers err as an apiError. A 2xx code (the lease route's
// 204 on an empty queue) is written without a body.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	if he, ok := err.(*httpError); ok {
		code = he.code
	}
	if code/100 == 2 {
		w.WriteHeader(code)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(apiError{Schema: Schema, Error: err.Error()})
}
