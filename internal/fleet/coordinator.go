package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/sample"
	"repro/internal/sched"
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
	// StaleCheckpoint re-deals a running shard whose last accepted
	// snapshot upload (or deal, if none yet) is older than this, even if
	// its worker still heartbeats — a wedged worker holds a lease but
	// makes no progress (default 2m; <0 disables).
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

// shardRef addresses one shard of one campaign in the job queue.
type shardRef struct {
	id    string
	shard int
}

// shardState is the coordinator's view of one shard.
type shardState struct {
	state   string // "queued" | "running" | "done" | "failed"
	redeals int
	errMsg  string // terminal engine error (failed state)

	// Latest accepted upload: the snapshot blob (what a re-deal hands
	// to the next worker), its sidecar, its header, and the cumulative
	// stats it carries. Aggregations read ONLY these per-shard latest
	// values — never a sum over uploads — which is what keeps a
	// re-dealt shard's pre-crash runs from being counted twice.
	snapshot  []byte
	timeline  []byte
	header    campaign.Header
	stats     *stats.Snapshot
	haveCkpt  bool
	touchedAt time.Time // last accepted upload, or the deal time
}

// campaignState is one submitted campaign.
type campaignState struct {
	id      string
	sub     Submission
	task    string // rendered task spec
	want    campaign.Header
	shards  []*shardState
	dir     string
	merging bool
	done    bool
	report  *campaign.Report
	errMsg  string // merge / shard failure

	// Coordinator-anchored rate: previous aggregate run count and its
	// observation time. Unlike a worker-side observer, this base never
	// resets when a process dies — the aggregate is over cumulative
	// per-shard counters, so the rate and ETA survive re-deals.
	lastRuns   int64
	lastRunsAt time.Time
	runsPerSec float64
}

// workerState is one registered worker session. owns is the one record
// of shard ownership: a running shard's owner is the worker whose owns
// names it (ownerLocked).
type workerState struct {
	id       string
	name     string
	lastBeat time.Time
	owns     *shardRef
}

// holds reports whether w owns shard `shard` of campaign id.
func (w *workerState) holds(id string, shard int) bool {
	return w.owns != nil && *w.owns == shardRef{id, shard}
}

// Coordinator is the fleet control plane: an http.Handler serving the
// gsbfleet/v1 API plus the aggregated /status, /metrics and /timeline
// endpoints. Create with NewCoordinator, serve its Handler, and Close it
// to stop the reconcile loop.
type Coordinator struct {
	cfg CoordinatorConfig

	mu        sync.Mutex
	campaigns map[string]*campaignState
	order     []string
	workers   map[string]*workerState
	queue     []shardRef
	campSeq   int
	workerSeq int

	reg             *stats.Registry
	redeals         *stats.Counter
	uploads         *stats.Counter
	uploadsRejected *stats.Counter
	workersGauge    *stats.Gauge
	queuedGauge     *stats.Gauge
	runningGauge    *stats.Gauge
	doneGauge       *stats.Gauge

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
	reg := stats.New()
	c := &Coordinator{
		cfg:       cfg,
		campaigns: map[string]*campaignState{},
		workers:   map[string]*workerState{},
		reg:       reg,
		redeals:   reg.Counter(MetricRedeals, "Shard re-deals after a worker died, went stale, or drained."),
		uploads:   reg.Counter(MetricUploads, "Accepted shard snapshot uploads."),
		uploadsRejected: reg.Counter(MetricUploadsRejected,
			"Rejected shard snapshot uploads (tampered, stale owner, wrong campaign, regressing progress)."),
		workersGauge: reg.Gauge(MetricWorkers, "Currently registered workers."),
		queuedGauge:  reg.Gauge(MetricShardsQueued, "Shards waiting in the job queue."),
		runningGauge: reg.Gauge(MetricShardsRunning, "Shards currently leased to a worker."),
		doneGauge:    reg.Gauge(MetricShardsDone, "Shards completed."),
		stop:         make(chan struct{}),
	}
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

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
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

// reconcile is one pass of the control loop.
func (c *Coordinator) reconcile(now time.Time) {
	c.mu.Lock()
	for id, w := range c.workers {
		if now.Sub(w.lastBeat) > c.cfg.HeartbeatTimeout {
			c.logf("fleet: worker %s (%s) missed heartbeats for %s, declaring dead", w.name, id, now.Sub(w.lastBeat).Round(time.Millisecond))
			c.dropWorkerLocked(w, "died")
		}
	}
	if c.cfg.StaleCheckpoint > 0 {
		for _, id := range c.order {
			cs := c.campaigns[id]
			for i, sh := range cs.shards {
				if sh.state == "running" && now.Sub(sh.touchedAt) > c.cfg.StaleCheckpoint {
					c.logf("fleet: campaign %s shard %d checkpoint is stale (%s), re-dealing", id, i, now.Sub(sh.touchedAt).Round(time.Millisecond))
					c.requeueShardLocked(cs, i, "stale")
				}
			}
		}
	}
	for _, id := range c.order {
		c.refreshRateLocked(c.campaigns[id], now)
	}
	c.refreshGaugesLocked()
	merges := c.collectMergesLocked()
	c.mu.Unlock()
	for _, id := range merges {
		c.merge(id)
	}
}

// dropWorkerLocked removes a worker session and re-queues its shard.
func (c *Coordinator) dropWorkerLocked(w *workerState, why string) {
	if w.owns != nil {
		if cs, ok := c.campaigns[w.owns.id]; ok {
			c.requeueShardLocked(cs, w.owns.shard, why)
		}
	}
	delete(c.workers, w.id)
}

// ownerLocked returns the worker owning shard `shard` of campaign id,
// or nil. Workers are few, so the scan is cheap.
func (c *Coordinator) ownerLocked(id string, shard int) *workerState {
	for _, w := range c.workers {
		if w.holds(id, shard) {
			return w
		}
	}
	return nil
}

// requeueShardLocked returns a running shard to the queue (a re-deal:
// the next lease resumes it from its latest uploaded snapshot).
func (c *Coordinator) requeueShardLocked(cs *campaignState, shard int, why string) {
	sh := cs.shards[shard]
	if sh.state != "running" {
		return
	}
	if w := c.ownerLocked(cs.id, shard); w != nil {
		w.owns = nil
	}
	sh.state = "queued"
	sh.redeals++
	sh.touchedAt = time.Now()
	c.redeals.Inc()
	c.queue = append(c.queue, shardRef{cs.id, shard})
	c.logf("fleet: campaign %s shard %d re-queued (%s, redeal %d, resumes at %d runs)", cs.id, shard, why, sh.redeals, sh.header.Runs)
}

// refreshRateLocked updates the campaign's coordinator-anchored rate
// from the aggregate cumulative run count. The base advances only when
// runs advance, so worker deaths (which never decrease the aggregate —
// it sums latest-per-shard cumulative counters) never reset the rate.
func (c *Coordinator) refreshRateLocked(cs *campaignState, now time.Time) {
	runs := aggregateRunsLocked(cs)
	if cs.lastRunsAt.IsZero() {
		cs.lastRuns, cs.lastRunsAt = runs, now
		return
	}
	dt := now.Sub(cs.lastRunsAt).Seconds()
	if dt <= 0 {
		return
	}
	if runs > cs.lastRuns {
		cs.runsPerSec = float64(runs-cs.lastRuns) / dt
		cs.lastRuns, cs.lastRunsAt = runs, now
	} else if dt > 30 {
		// No progress for a long window: decay the rate so the ETA does
		// not advertise a throughput the fleet no longer has.
		cs.runsPerSec = 0
		cs.lastRunsAt = now
	}
}

func aggregateRunsLocked(cs *campaignState) int64 {
	var runs int64
	for _, sh := range cs.shards {
		runs += sh.header.Runs
	}
	return runs
}

func (c *Coordinator) refreshGaugesLocked() {
	var n shardCounts
	for _, cs := range c.campaigns {
		n.add(cs.shards)
	}
	c.queuedGauge.Set(int64(n.queued))
	c.runningGauge.Set(int64(n.running))
	c.doneGauge.Set(int64(n.done))
	c.workersGauge.Set(int64(len(c.workers)))
}

// shardCounts tallies shards by state: the shard gauges, each campaign's
// state and the fleet /status all read it.
type shardCounts struct{ queued, running, done, failed int }

func (n *shardCounts) add(shards []*shardState) {
	for _, sh := range shards {
		switch sh.state {
		case "queued":
			n.queued++
		case "running":
			n.running++
		case "done":
			n.done++
		case "failed":
			n.failed++
		}
	}
}

// collectMergesLocked flags campaigns whose whole shard set is done and
// whose merge has not started yet.
func (c *Coordinator) collectMergesLocked() []string {
	var ids []string
	for _, id := range c.order {
		cs := c.campaigns[id]
		if cs.done || cs.merging || cs.errMsg != "" {
			continue
		}
		all := true
		for _, sh := range cs.shards {
			if sh.state != "done" {
				all = false
				break
			}
		}
		if all {
			cs.merging = true
			ids = append(ids, id)
		}
	}
	return ids
}

// merge runs the exact shard merge of a finished campaign and stores the
// final report. The heavy counting pass runs outside the lock.
func (c *Coordinator) merge(id string) {
	c.mu.Lock()
	cs := c.campaigns[id]
	paths := make([]string, len(cs.shards))
	for i := range cs.shards {
		paths[i] = c.shardPath(cs, i)
	}
	cfg, err := cs.sub.config(0, paths[0])
	c.mu.Unlock()
	var rep campaign.Report
	var verdict error
	if err == nil {
		rep, verdict = campaign.Merge(context.Background(), cfg, paths)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cs.merging = false
	switch {
	case err != nil:
		cs.errMsg = err.Error()
	case verdict != nil && !rep.Done:
		// Merge itself failed (missing/duplicate shard, hash drift) —
		// operational error, not a campaign verdict.
		cs.errMsg = verdict.Error()
	default:
		cs.done = true
		cs.report = &rep
		c.logf("fleet: campaign %s merged: %d schedules, violation=%q", id, rep.Schedules, rep.Violation)
	}
}

// shardPath is the on-disk home of a shard's latest uploaded snapshot.
func (c *Coordinator) shardPath(cs *campaignState, shard int) string {
	return filepath.Join(cs.dir, fmt.Sprintf("shard%d.ckpt", shard))
}

// persistShard writes a shard's uploaded snapshot (and sidecar) to the
// data dir. The write is durable before the upload is acknowledged: this
// copy is the authoritative one that re-deals and the merge read.
func (c *Coordinator) persistShard(cs *campaignState, shard int, snapshot, sidecar []byte) error {
	path := c.shardPath(cs, shard)
	if err := timeline.AtomicWrite(path, snapshot); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if len(sidecar) > 0 {
		if err := timeline.AtomicWrite(timeline.SidecarPath(path), sidecar); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
	}
	return nil
}

// Submit registers a new campaign and queues its shards. It is the
// programmatic form of POST /v1/campaigns, which answers each of its
// errors with 400.
func (c *Coordinator) Submit(sub Submission) (SubmitResponse, error) {
	if err := sub.Validate(); err != nil {
		return SubmitResponse{}, badRequest(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.campSeq++
	id := fmt.Sprintf("c%04d", c.campSeq)
	dir := filepath.Join(c.cfg.DataDir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return SubmitResponse{}, badRequest(fmt.Errorf("fleet: %w", err))
	}
	cfg, err := sub.config(0, filepath.Join(dir, "shard0.ckpt"))
	if err != nil {
		return SubmitResponse{}, badRequest(err)
	}
	want, err := campaign.Identity(cfg)
	if err != nil {
		return SubmitResponse{}, badRequest(fmt.Errorf("fleet: %w", err))
	}
	cs := &campaignState{id: id, sub: sub, task: cfg.Spec.String(), want: want, dir: dir}
	now := time.Now()
	for i := 0; i < sub.Shards; i++ {
		cs.shards = append(cs.shards, &shardState{state: "queued", touchedAt: now})
		c.queue = append(c.queue, shardRef{id, i})
	}
	c.campaigns[id] = cs
	c.order = append(c.order, id)
	c.logf("fleet: campaign %s submitted: %s n=%d mode=%s, %d shards", id, sub.Protocol, sub.N, sub.Mode, sub.Shards)
	return SubmitResponse{Schema: Schema, ID: id, Shards: sub.Shards}, nil
}

// register adds a worker session.
func (c *Coordinator) register(req RegisterRequest) RegisterResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workerSeq++
	id := fmt.Sprintf("w%04d", c.workerSeq)
	name := req.Name
	if name == "" {
		name = id
	}
	for _, w := range c.workers {
		if w.name == name {
			name = name + "-" + id
			break
		}
	}
	c.workers[id] = &workerState{id: id, name: name, lastBeat: time.Now()}
	c.workersGauge.Set(int64(len(c.workers)))
	c.logf("fleet: worker %s registered as %s", name, id)
	return RegisterResponse{
		Schema: Schema, WorkerID: id, Name: name,
		HeartbeatSec: (c.cfg.HeartbeatTimeout / 3).Seconds(),
	}
}

// errQueueEmpty answers a lease when there is nothing to deal (or the
// worker still owns a shard): the route's bodiless 204.
var errQueueEmpty = &httpError{http.StatusNoContent, "fleet: no shard to lease"}

// lease hands the queue head to a worker (errQueueEmpty when there is
// none).
func (c *Coordinator) lease(workerID string) (LeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[workerID]
	if !ok {
		return LeaseResponse{}, errorf(http.StatusNotFound, "fleet: unknown worker %q (register first)", workerID)
	}
	w.lastBeat = time.Now()
	if w.owns != nil {
		return LeaseResponse{}, errQueueEmpty
	}
	for len(c.queue) > 0 {
		ref := c.queue[0]
		c.queue = c.queue[1:]
		cs, ok := c.campaigns[ref.id]
		if !ok {
			continue
		}
		sh := cs.shards[ref.shard]
		if sh.state != "queued" {
			continue // completed by an import, or re-queued twice
		}
		sh.state = "running"
		sh.touchedAt = time.Now()
		w.owns = &shardRef{ref.id, ref.shard}
		c.logf("fleet: campaign %s shard %d dealt to %s (resume from %d runs)", ref.id, ref.shard, w.name, sh.header.Runs)
		return LeaseResponse{Schema: Schema, Task: Task{
			CampaignID: ref.id, Shard: ref.shard, Submission: cs.sub,
			Snapshot: sh.snapshot, Timeline: sh.timeline,
		}}, nil
	}
	return LeaseResponse{}, errQueueEmpty
}

// heartbeat refreshes a worker's liveness.
func (c *Coordinator) heartbeat(workerID string) (HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[workerID]
	if !ok {
		return HeartbeatResponse{}, errorf(http.StatusNotFound, "fleet: unknown worker %q (lease lost; re-register)", workerID)
	}
	w.lastBeat = time.Now()
	return HeartbeatResponse{Schema: Schema}, nil
}

// release returns a draining worker's shard to the queue; every error
// is a 404.
func (c *Coordinator) release(workerID string, req ReleaseRequest) (Ack, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[workerID]
	if !ok {
		return Ack{}, errorf(http.StatusNotFound, "fleet: unknown worker %q", workerID)
	}
	cs, ok := c.campaigns[req.CampaignID]
	if !ok {
		return Ack{}, errorf(http.StatusNotFound, "fleet: unknown campaign %q", req.CampaignID)
	}
	if req.Shard < 0 || req.Shard >= len(cs.shards) {
		return Ack{}, errorf(http.StatusNotFound, "fleet: campaign %s has no shard %d", req.CampaignID, req.Shard)
	}
	if w.holds(req.CampaignID, req.Shard) { // else already re-dealt; nothing to release
		c.requeueShardLocked(cs, req.Shard, "released by "+w.name)
	}
	return Ack{Schema: Schema}, nil
}

// deregister removes a worker session (the drain handshake's last step).
func (c *Coordinator) deregister(workerID string) Ack {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[workerID]; ok {
		c.dropWorkerLocked(w, "deregistered")
		c.workersGauge.Set(int64(len(c.workers)))
	}
	return Ack{Schema: Schema}
}

// failShard records a terminal engine error on a shard (invalid or
// exhausted budget — errors a resume cannot fix), failing the campaign.
// Every refusal is a 409, an unknown campaign or shard included.
func (c *Coordinator) failShard(campaignID string, shard int, req FailRequest) (Ack, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.campaigns[campaignID]
	if !ok {
		return Ack{}, errorf(http.StatusConflict, "fleet: unknown campaign %q", campaignID)
	}
	if shard < 0 || shard >= len(cs.shards) {
		return Ack{}, errorf(http.StatusConflict, "fleet: campaign %s has no shard %d", campaignID, shard)
	}
	owner := c.ownerLocked(campaignID, shard)
	if req.WorkerID != "" && (owner == nil || owner.id != req.WorkerID) {
		return Ack{}, errorf(http.StatusConflict, "fleet: worker %s no longer owns campaign %s shard %d", req.WorkerID, campaignID, shard)
	}
	if owner != nil {
		owner.owns = nil
	}
	sh := cs.shards[shard]
	sh.state = "failed"
	sh.errMsg = req.Error
	if cs.errMsg == "" {
		cs.errMsg = fmt.Sprintf("shard %d failed: %s", shard, req.Error)
	}
	c.logf("fleet: campaign %s shard %d failed: %s", campaignID, shard, req.Error)
	return Ack{Schema: Schema}, nil
}

// upload validates and accepts a shard snapshot. The fences, in order:
// the campaign and shard must exist; the uploader must own the shard (an
// empty worker id — an operator import — is accepted only while no
// worker does); the blob must decode as a snapshot whose header hash,
// shard index and shard count match the campaign identity; and progress
// must not regress the latest accepted snapshot. Every rejection is
// loud, counted, and changes nothing.
func (c *Coordinator) upload(campaignID string, shard int, req UploadRequest) (UploadResponse, error) {
	reject := func(code int, format string, args ...any) (UploadResponse, error) {
		c.uploadsRejected.Inc()
		return UploadResponse{}, errorf(code, format, args...)
	}
	h, snapStats, err := campaign.DecodeUploaded(req.Snapshot, fmt.Sprintf("upload for %s shard %d", campaignID, shard))
	if err != nil {
		return reject(http.StatusBadRequest, "%v", err)
	}
	var recs []timeline.Record
	if len(req.Timeline) > 0 {
		if recs, err = timeline.Decode(req.Timeline, "uploaded sidecar"); err != nil {
			return reject(http.StatusBadRequest, "%v", err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.campaigns[campaignID]
	if !ok {
		return reject(http.StatusNotFound, "fleet: unknown campaign %q", campaignID)
	}
	if shard < 0 || shard >= len(cs.shards) {
		return reject(http.StatusNotFound, "fleet: campaign %s has no shard %d", campaignID, shard)
	}
	sh := cs.shards[shard]
	if sh.state == "done" {
		return reject(http.StatusConflict, "fleet: campaign %s shard %d is already done", campaignID, shard)
	}
	if req.WorkerID != "" {
		if w, ok := c.workers[req.WorkerID]; !ok || !w.holds(campaignID, shard) {
			// The fencing that makes re-deals safe: a zombie worker whose
			// shard moved on gets a conflict, abandons the run, and its
			// stale bytes never land.
			return reject(http.StatusConflict, "fleet: worker %s no longer owns campaign %s shard %d", req.WorkerID, campaignID, shard)
		}
	} else if sh.state == "running" {
		return reject(http.StatusConflict, "fleet: campaign %s shard %d is leased to a worker; imports need an idle shard", campaignID, shard)
	}
	if h.OptionsHash != cs.want.OptionsHash {
		return reject(http.StatusBadRequest, "fleet: snapshot hash %s does not match campaign %s (%s): wrong campaign or tampered header", h.OptionsHash, campaignID, cs.want.OptionsHash)
	}
	if h.Shard != shard || h.Of != cs.sub.Shards {
		return reject(http.StatusBadRequest, "fleet: snapshot is shard %d/%d, endpoint is shard %d/%d", h.Shard, h.Of, shard, cs.sub.Shards)
	}
	// Decode enforces strictly increasing (index, shard) pairs, so a
	// sidecar whose records all carry this shard has strictly increasing
	// indices: the per-shard series campaignTimeline merges.
	for _, r := range recs {
		if r.Shard != shard || r.Of != cs.sub.Shards {
			return reject(http.StatusBadRequest, "fleet: sidecar record %d is shard %d/%d, endpoint is shard %d/%d", r.Index, r.Shard, r.Of, shard, cs.sub.Shards)
		}
	}
	if sh.haveCkpt && h.Runs < sh.header.Runs {
		return reject(http.StatusConflict, "fleet: snapshot regresses shard %d from %d to %d runs", shard, sh.header.Runs, h.Runs)
	}
	if err := c.persistShard(cs, shard, req.Snapshot, req.Timeline); err != nil {
		return UploadResponse{}, err
	}
	sh.snapshot = req.Snapshot
	if len(req.Timeline) > 0 {
		sh.timeline = req.Timeline
	}
	sh.header = h
	sh.stats = snapStats
	sh.haveCkpt = true
	sh.touchedAt = time.Now()
	c.uploads.Inc()
	if h.Done {
		sh.state = "done"
		if w := c.ownerLocked(campaignID, shard); w != nil {
			w.owns = nil
		}
		c.logf("fleet: campaign %s shard %d done after %d runs", campaignID, shard, h.Runs)
	}
	return UploadResponse{Schema: Schema, Done: h.Done, Runs: h.Runs}, nil
}

// campaignStatusLocked renders one campaign's live view.
func (c *Coordinator) campaignStatusLocked(cs *campaignState, now time.Time) CampaignStatus {
	st := CampaignStatus{
		Schema: Schema, ID: cs.id, Submission: cs.sub, Task: cs.task,
		Done: cs.done, Report: cs.report, Error: cs.errMsg,
	}
	if cs.report != nil {
		st.Violation = cs.report.Violation
	}
	snaps := make([]stats.Snapshot, 0, len(cs.shards))
	for i, sh := range cs.shards {
		row := ShardStatus{
			Shard: i, State: sh.state, Runs: sh.header.Runs,
			Done: sh.header.Done, Redeals: sh.redeals, Error: sh.errMsg,
		}
		if w := c.ownerLocked(cs.id, i); w != nil {
			row.Worker = w.name
		}
		if sh.haveCkpt {
			row.UploadAgeSec = now.Sub(sh.touchedAt).Seconds()
			snaps = append(snaps, *orEmpty(sh.stats))
		}
		st.Shards = append(st.Shards, row)
		st.Redeals += sh.redeals
	}
	// Aggregate = sum of the LATEST snapshot per shard. Each shard's
	// snapshot is already cumulative across its own process lives, so
	// this equals an uninterrupted run's totals and never double-counts
	// a re-dealt shard's pre-crash work (fleet_test pins this).
	agg := stats.Sum(snaps...)
	st.Runs = aggregateRunsLocked(cs) // header progress, also the rate anchor's input
	st.Schedules = agg.Counter(sched.MetricSchedules)
	st.Classes = agg.Counter(sample.MetricClasses)
	// The campaign-wide budget is the whole campaign read as one shard.
	whole := cs.want
	whole.Shard, whole.Of = 0, 1
	st.TotalRuns = whole.ShardTotal()
	st.RunsPerSec = cs.runsPerSec
	st.ETASec = campaign.ETASec(st.TotalRuns, st.Runs, st.RunsPerSec, cs.done)
	var n shardCounts
	n.add(cs.shards)
	switch {
	case cs.done:
		st.State = "done"
	case cs.errMsg != "" && cs.report == nil:
		st.State = "failed"
	case cs.merging:
		st.State = "merging"
	case n.running > 0:
		st.State = "running"
	case n.done+n.failed == len(cs.shards):
		st.State = "merging"
	default:
		st.State = "queued"
	}
	return st
}

func orEmpty(s *stats.Snapshot) *stats.Snapshot {
	if s == nil {
		return &stats.Snapshot{}
	}
	return s
}

// status renders the fleet-wide aggregate view.
func (c *Coordinator) status() FleetStatus {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := FleetStatus{Schema: FleetStatusSchema, Workers: []WorkerStatus{}, Campaigns: []CampaignStatus{}}
	for _, w := range c.workers {
		row := WorkerStatus{Name: w.name, HeartbeatAgeSec: now.Sub(w.lastBeat).Seconds()}
		if w.owns != nil {
			row.Shard = fmt.Sprintf("%s/%d", w.owns.id, w.owns.shard)
		}
		st.Workers = append(st.Workers, row)
	}
	// Registration keeps names unique.
	slices.SortFunc(st.Workers, func(a, b WorkerStatus) int { return strings.Compare(a.Name, b.Name) })
	var n shardCounts
	for _, id := range c.order {
		cs := c.campaigns[id]
		cst := c.campaignStatusLocked(cs, now)
		st.Campaigns = append(st.Campaigns, cst)
		st.Redeals += cst.Redeals
		st.Runs += cst.Runs
		n.add(cs.shards)
	}
	st.Queued, st.Running, st.Done, st.Failed = n.queued, n.running, n.done, n.failed
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
	handle(mux, "POST /v1/campaigns", func(_ *http.Request, sub Submission) (SubmitResponse, error) {
		return c.Submit(sub)
	})
	handle(mux, "GET /v1/campaigns", func(*http.Request, none) ([]CampaignStatus, error) {
		now := time.Now()
		c.mu.Lock()
		defer c.mu.Unlock()
		out := make([]CampaignStatus, 0, len(c.order))
		for _, id := range c.order {
			out = append(out, c.campaignStatusLocked(c.campaigns[id], now))
		}
		return out, nil
	})
	handle(mux, "GET /v1/campaigns/{id}", func(r *http.Request, _ none) (CampaignStatus, error) {
		return c.campaignStatus(r.PathValue("id"))
	})
	handle(mux, "GET /v1/campaigns/{id}/result", func(r *http.Request, _ none) (CampaignStatus, error) {
		st, err := c.campaignStatus(r.PathValue("id"))
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
		return c.failShard(r.PathValue("id"), shard, req)
	})
	handle(mux, "POST /v1/workers", func(_ *http.Request, req RegisterRequest) (RegisterResponse, error) {
		return c.register(req), nil
	})
	handle(mux, "POST /v1/workers/{id}/heartbeat", func(r *http.Request, _ none) (HeartbeatResponse, error) {
		return c.heartbeat(r.PathValue("id"))
	})
	handle(mux, "POST /v1/workers/{id}/lease", func(r *http.Request, _ none) (LeaseResponse, error) {
		return c.lease(r.PathValue("id"))
	})
	handle(mux, "POST /v1/workers/{id}/release", func(r *http.Request, req ReleaseRequest) (Ack, error) {
		return c.release(r.PathValue("id"), req)
	})
	handle(mux, "DELETE /v1/workers/{id}", func(r *http.Request, _ none) (Ack, error) {
		return c.deregister(r.PathValue("id")), nil
	})
	handle(mux, "GET /status", func(*http.Request, none) (FleetStatus, error) {
		return c.status(), nil
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Fleet control-plane metrics first, then the engine counters
		// aggregated from the latest snapshot of every shard, rendered
		// through a scratch registry (restoring into the live fleet
		// registry would double-count across scrapes).
		_ = c.reg.WritePrometheus(w)
		c.mu.Lock()
		snaps := make([]stats.Snapshot, 0)
		for _, cs := range c.campaigns {
			for _, sh := range cs.shards {
				if sh.haveCkpt {
					snaps = append(snaps, *orEmpty(sh.stats))
				}
			}
		}
		c.mu.Unlock()
		scratch := stats.New()
		scratch.Restore(stats.Sum(snaps...))
		_ = scratch.WritePrometheus(w)
	})
	handle(mux, "GET /timeline", func(r *http.Request, _ none) ([]timeline.Record, error) {
		id := r.URL.Query().Get("campaign")
		if id == "" {
			c.mu.Lock()
			if len(c.order) == 1 {
				id = c.order[0]
			}
			n := len(c.order)
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

// campaignStatus renders one campaign's live view (404 when unknown).
func (c *Coordinator) campaignStatus(id string) (CampaignStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.campaigns[id]
	if !ok {
		return CampaignStatus{}, errorf(http.StatusNotFound, "fleet: unknown campaign %q", id)
	}
	return c.campaignStatusLocked(cs, time.Now()), nil
}

// campaignTimeline merges the latest uploaded sidecar of every shard of
// a campaign into one fleet-wide series — the same (index, shard)
// interleaving `gsbcampaign merge -timeline` produces.
func (c *Coordinator) campaignTimeline(id string) ([]timeline.Record, error) {
	c.mu.Lock()
	cs, ok := c.campaigns[id]
	var series [][]timeline.Record
	if ok {
		for i, sh := range cs.shards {
			if len(sh.timeline) == 0 {
				continue
			}
			recs, err := timeline.Decode(sh.timeline, fmt.Sprintf("campaign %s shard %d sidecar", id, i))
			if err != nil {
				c.mu.Unlock()
				return nil, errorf(http.StatusInternalServerError, "%v", err)
			}
			series = append(series, recs)
		}
	}
	c.mu.Unlock()
	if !ok {
		return nil, errorf(http.StatusNotFound, "fleet: unknown campaign %q", id)
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
