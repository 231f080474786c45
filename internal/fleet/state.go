package fleet

import (
	"fmt"
	"net/http"
	"slices"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/sample"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/timeline"
)

// state is the coordinator's whole control plane as a plain value. Each
// event is one method that takes the event's time as now and returns its
// typed response, the effects to run once the coordinator's lock is
// released, and the error the route answers. No method reads the clock,
// touches the file system, logs or runs a shard merge.
type state struct {
	heartbeatTimeout time.Duration
	staleCheckpoint  time.Duration

	campaigns map[string]*campaignState
	order     []string
	workers   map[string]*workerState
	queue     []shardRef
	campSeq   int
	workerSeq int

	redeals, uploads, uploadsRejected int64
}

func newState(cfg CoordinatorConfig) state {
	return state{heartbeatTimeout: cfg.HeartbeatTimeout, staleCheckpoint: cfg.StaleCheckpoint,
		campaigns: map[string]*campaignState{}, workers: map[string]*workerState{}}
}

// effects is what a transition leaves for the coordinator to run after
// it releases its lock: log lines, and the campaigns to merge.
type effects struct {
	logs   []logLine
	merges []string
}

type logLine struct {
	format string
	args   []any
}

func (fx *effects) logf(format string, args ...any) {
	fx.logs = append(fx.logs, logLine{format, args})
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
	stats     stats.Snapshot
	haveCkpt  bool
	uploadAt  time.Time // the latest accepted upload (upload_age_sec)
	staleFrom time.Time // the stale rule's anchor: the last deal or upload
}

// campaignState is one submitted campaign.
type campaignState struct {
	id      string
	sub     Submission
	task    string // rendered task spec
	want    campaign.Header
	shards  []*shardState
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
// names it (owner).
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

// submit registers a new campaign and queues its shards. Every refusal
// is a 400.
func (s *state) submit(now time.Time, sub Submission) (SubmitResponse, effects, error) {
	var fx effects
	if err := sub.Validate(); err != nil {
		return SubmitResponse{}, fx, badRequest(err)
	}
	cfg, err := sub.config(0, "shard0.ckpt")
	if err != nil {
		return SubmitResponse{}, fx, badRequest(err)
	}
	want, err := campaign.Identity(cfg)
	if err != nil {
		return SubmitResponse{}, fx, badRequest(fmt.Errorf("fleet: %w", err))
	}
	s.campSeq++
	id := fmt.Sprintf("c%04d", s.campSeq)
	cs := &campaignState{id: id, sub: sub, task: cfg.Spec.String(), want: want}
	for i := 0; i < sub.Shards; i++ {
		cs.shards = append(cs.shards, &shardState{state: "queued"})
		s.queue = append(s.queue, shardRef{id, i})
	}
	s.campaigns[id] = cs
	s.order = append(s.order, id)
	fx.logf("fleet: campaign %s submitted: %s n=%d mode=%s, %d shards", id, sub.Protocol, sub.N, sub.Mode, sub.Shards)
	return SubmitResponse{Schema: Schema, ID: id, Shards: sub.Shards}, fx, nil
}

// register adds a worker session.
func (s *state) register(now time.Time, req RegisterRequest) (RegisterResponse, effects, error) {
	var fx effects
	s.workerSeq++
	id := fmt.Sprintf("w%04d", s.workerSeq)
	name := req.Name
	if name == "" {
		name = id
	}
	for _, w := range s.workers {
		if w.name == name {
			name = name + "-" + id
			break
		}
	}
	s.workers[id] = &workerState{id: id, name: name, lastBeat: now}
	fx.logf("fleet: worker %s registered as %s", name, id)
	return RegisterResponse{
		Schema: Schema, WorkerID: id, Name: name,
		HeartbeatSec: (s.heartbeatTimeout / 3).Seconds(),
	}, fx, nil
}

// errQueueEmpty answers a lease when there is nothing to deal (or the
// worker still owns a shard): the route's bodiless 204.
var errQueueEmpty = &httpError{http.StatusNoContent, "fleet: no shard to lease"}

// lease hands the queue head to a worker (errQueueEmpty when there is
// none).
func (s *state) lease(now time.Time, workerID string) (LeaseResponse, effects, error) {
	var fx effects
	w, ok := s.workers[workerID]
	if !ok {
		return LeaseResponse{}, fx, errorf(http.StatusNotFound, "fleet: unknown worker %q (register first)", workerID)
	}
	w.lastBeat = now
	if w.owns != nil {
		return LeaseResponse{}, fx, errQueueEmpty
	}
	for len(s.queue) > 0 {
		ref := s.queue[0]
		s.queue = s.queue[1:]
		cs, ok := s.campaigns[ref.id]
		if !ok {
			continue
		}
		sh := cs.shards[ref.shard]
		if sh.state != "queued" {
			continue // completed by an import, failed, or re-queued twice
		}
		sh.state = "running"
		sh.staleFrom = now
		w.owns = &shardRef{ref.id, ref.shard}
		fx.logf("fleet: campaign %s shard %d dealt to %s (resume from %d runs)", ref.id, ref.shard, w.name, sh.header.Runs)
		return LeaseResponse{Schema: Schema, Task: Task{
			CampaignID: ref.id, Shard: ref.shard, Submission: cs.sub,
			Snapshot: sh.snapshot, Timeline: sh.timeline,
		}}, fx, nil
	}
	return LeaseResponse{}, fx, errQueueEmpty
}

// heartbeat refreshes a worker's liveness.
func (s *state) heartbeat(now time.Time, workerID string) (HeartbeatResponse, effects, error) {
	w, ok := s.workers[workerID]
	if !ok {
		return HeartbeatResponse{}, effects{}, errorf(http.StatusNotFound, "fleet: unknown worker %q (lease lost; re-register)", workerID)
	}
	w.lastBeat = now
	return HeartbeatResponse{Schema: Schema}, effects{}, nil
}

// release returns a draining worker's shard to the queue; every error
// is a 404.
func (s *state) release(now time.Time, workerID string, req ReleaseRequest) (Ack, effects, error) {
	var fx effects
	w, ok := s.workers[workerID]
	if !ok {
		return Ack{}, fx, errorf(http.StatusNotFound, "fleet: unknown worker %q", workerID)
	}
	cs, ok := s.campaigns[req.CampaignID]
	if !ok {
		return Ack{}, fx, errorf(http.StatusNotFound, "fleet: unknown campaign %q", req.CampaignID)
	}
	if req.Shard < 0 || req.Shard >= len(cs.shards) {
		return Ack{}, fx, errorf(http.StatusNotFound, "fleet: campaign %s has no shard %d", req.CampaignID, req.Shard)
	}
	if w.holds(req.CampaignID, req.Shard) { // else already re-dealt; nothing to release
		s.requeue(&fx, cs, req.Shard, "released by "+w.name)
	}
	return Ack{Schema: Schema}, fx, nil
}

// deregister removes a worker session (the drain handshake's last step).
func (s *state) deregister(now time.Time, workerID string) (Ack, effects, error) {
	var fx effects
	if w, ok := s.workers[workerID]; ok {
		s.dropWorker(&fx, w, "deregistered")
	}
	return Ack{Schema: Schema}, fx, nil
}

// fail records a terminal engine error on a shard (invalid or exhausted
// budget — errors a resume cannot fix), failing the campaign. Every
// refusal is a 409, an unknown campaign or shard and a done shard
// included; an empty worker id is an operator's report.
func (s *state) fail(now time.Time, campaignID string, shard int, req FailRequest) (Ack, effects, error) {
	var fx effects
	cs, ok := s.campaigns[campaignID]
	if !ok {
		return Ack{}, fx, errorf(http.StatusConflict, "fleet: unknown campaign %q", campaignID)
	}
	if shard < 0 || shard >= len(cs.shards) {
		return Ack{}, fx, errorf(http.StatusConflict, "fleet: campaign %s has no shard %d", campaignID, shard)
	}
	sh := cs.shards[shard]
	if sh.state == "done" {
		return Ack{}, fx, errorf(http.StatusConflict, "fleet: campaign %s shard %d is already done", campaignID, shard)
	}
	owner := s.owner(campaignID, shard)
	if req.WorkerID != "" && (owner == nil || owner.id != req.WorkerID) {
		return Ack{}, fx, errorf(http.StatusConflict, "fleet: worker %s no longer owns campaign %s shard %d", req.WorkerID, campaignID, shard)
	}
	if owner != nil {
		owner.owns = nil
	}
	sh.state = "failed"
	sh.errMsg = req.Error
	if cs.errMsg == "" {
		cs.errMsg = fmt.Sprintf("shard %d failed: %s", shard, req.Error)
	}
	fx.logf("fleet: campaign %s shard %d failed: %s", campaignID, shard, req.Error)
	return Ack{Schema: Schema}, fx, nil
}

// decodedUpload is an upload request with its snapshot and sidecar
// decoded before the lock is taken, or the decode error that rejects it.
type decodedUpload struct {
	UploadRequest
	header campaign.Header
	stats  *stats.Snapshot
	recs   []timeline.Record
	err    error
}

func decodeUpload(campaignID string, shard int, req UploadRequest) decodedUpload {
	up := decodedUpload{UploadRequest: req}
	up.header, up.stats, up.err = campaign.DecodeUploaded(req.Snapshot, fmt.Sprintf("upload for %s shard %d", campaignID, shard))
	if up.err == nil && len(req.Timeline) > 0 {
		up.recs, up.err = timeline.Decode(req.Timeline, "uploaded sidecar")
	}
	return up
}

// upload accepts a shard snapshot. The fences, in order: the blob must
// have decoded; the campaign and shard must exist and the shard must not
// be done; the uploader must own the shard (an empty worker id — an
// operator import — is accepted only while no worker does); the header
// hash, shard index and shard count, and every sidecar record's, must
// match the campaign identity; and progress must not regress the latest
// accepted snapshot. Every rejection is loud, counted, and changes
// nothing else. Once all pass, commit makes the upload durable, and only
// if it succeeds is the upload accepted.
func (s *state) upload(now time.Time, campaignID string, shard int, up decodedUpload, commit func() error) (UploadResponse, effects, error) {
	var fx effects
	reject := func(code int, format string, args ...any) (UploadResponse, effects, error) {
		s.uploadsRejected++
		return UploadResponse{}, fx, errorf(code, format, args...)
	}
	if up.err != nil {
		return reject(http.StatusBadRequest, "%v", up.err)
	}
	cs, ok := s.campaigns[campaignID]
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
	if up.WorkerID != "" {
		if w, ok := s.workers[up.WorkerID]; !ok || !w.holds(campaignID, shard) {
			// The fencing that makes re-deals safe: a zombie worker whose
			// shard moved on gets a conflict, abandons the run, and its
			// stale bytes never land.
			return reject(http.StatusConflict, "fleet: worker %s no longer owns campaign %s shard %d", up.WorkerID, campaignID, shard)
		}
	} else if sh.state == "running" {
		return reject(http.StatusConflict, "fleet: campaign %s shard %d is leased to a worker; imports need an idle shard", campaignID, shard)
	}
	h := up.header
	if h.OptionsHash != cs.want.OptionsHash {
		return reject(http.StatusBadRequest, "fleet: snapshot hash %s does not match campaign %s (%s): wrong campaign or tampered header", h.OptionsHash, campaignID, cs.want.OptionsHash)
	}
	if h.Shard != shard || h.Of != cs.sub.Shards {
		return reject(http.StatusBadRequest, "fleet: snapshot is shard %d/%d, endpoint is shard %d/%d", h.Shard, h.Of, shard, cs.sub.Shards)
	}
	// Decode enforces strictly increasing (index, shard) pairs, so a
	// sidecar whose records all carry this shard has strictly increasing
	// indices: the per-shard series the campaign timeline merges.
	for _, r := range up.recs {
		if r.Shard != shard || r.Of != cs.sub.Shards {
			return reject(http.StatusBadRequest, "fleet: sidecar record %d is shard %d/%d, endpoint is shard %d/%d", r.Index, r.Shard, r.Of, shard, cs.sub.Shards)
		}
	}
	if sh.haveCkpt && h.Runs < sh.header.Runs {
		return reject(http.StatusConflict, "fleet: snapshot regresses shard %d from %d to %d runs", shard, sh.header.Runs, h.Runs)
	}
	if err := commit(); err != nil {
		return UploadResponse{}, fx, err
	}
	sh.snapshot = up.Snapshot
	if len(up.Timeline) > 0 {
		sh.timeline = up.Timeline
	}
	sh.header, sh.haveCkpt = h, true
	if up.stats != nil {
		sh.stats = *up.stats
	}
	sh.uploadAt, sh.staleFrom = now, now
	s.uploads++
	if h.Done {
		sh.state = "done"
		if w := s.owner(campaignID, shard); w != nil {
			w.owns = nil
		}
		fx.logf("fleet: campaign %s shard %d done after %d runs", campaignID, shard, h.Runs)
	}
	return UploadResponse{Schema: Schema, Done: h.Done, Runs: h.Runs}, fx, nil
}

// tick is one pass of the reconcile loop: it expires dead workers,
// re-deals stale shards, refreshes the rate anchors and returns the
// campaigns whose whole shard set is done as merges to run.
func (s *state) tick(now time.Time) effects {
	var fx effects
	for id, w := range s.workers {
		if age := now.Sub(w.lastBeat); age > s.heartbeatTimeout {
			fx.logf("fleet: worker %s (%s) missed heartbeats for %s, declaring dead", w.name, id, age.Round(time.Millisecond))
			s.dropWorker(&fx, w, "died")
		}
	}
	for _, id := range s.order {
		cs := s.campaigns[id]
		for i, sh := range cs.shards {
			if age := now.Sub(sh.staleFrom); s.staleCheckpoint > 0 && sh.state == "running" && age > s.staleCheckpoint {
				fx.logf("fleet: campaign %s shard %d checkpoint is stale (%s), re-dealing", id, i, age.Round(time.Millisecond))
				s.requeue(&fx, cs, i, "stale")
			}
		}
		cs.refreshRate(now)
		if !cs.done && !cs.merging && cs.errMsg == "" &&
			!slices.ContainsFunc(cs.shards, func(sh *shardState) bool { return sh.state != "done" }) {
			cs.merging = true
			fx.merges = append(fx.merges, id)
		}
	}
	return fx
}

// merged records a finished campaign's shard merge: its report (a
// violation verdict comes with a done report), or the error that stopped
// it.
func (s *state) merged(id string, rep campaign.Report, err error) effects {
	var fx effects
	cs := s.campaigns[id]
	cs.merging = false
	if err != nil && !rep.Done {
		// The merge itself failed (missing/duplicate shard, hash drift) —
		// an operational error, not a campaign verdict.
		cs.errMsg = err.Error()
		return fx
	}
	cs.done, cs.report = true, &rep
	fx.logf("fleet: campaign %s merged: %d schedules, violation=%q", id, rep.Schedules, rep.Violation)
	return fx
}

// dropWorker removes a worker session and re-queues its shard.
func (s *state) dropWorker(fx *effects, w *workerState, why string) {
	if w.owns != nil {
		if cs, ok := s.campaigns[w.owns.id]; ok {
			s.requeue(fx, cs, w.owns.shard, why)
		}
	}
	delete(s.workers, w.id)
}

// owner returns the worker owning shard `shard` of campaign id, or nil.
// Workers are few, so the scan is cheap.
func (s *state) owner(id string, shard int) *workerState {
	for _, w := range s.workers {
		if w.holds(id, shard) {
			return w
		}
	}
	return nil
}

// requeue returns a running shard to the queue (a re-deal: the next
// lease resumes it from its latest uploaded snapshot).
func (s *state) requeue(fx *effects, cs *campaignState, shard int, why string) {
	sh := cs.shards[shard]
	if sh.state != "running" {
		return
	}
	if w := s.owner(cs.id, shard); w != nil {
		w.owns = nil
	}
	sh.state = "queued"
	sh.redeals++
	s.redeals++
	s.queue = append(s.queue, shardRef{cs.id, shard})
	fx.logf("fleet: campaign %s shard %d re-queued (%s, redeal %d, resumes at %d runs)", cs.id, shard, why, sh.redeals, sh.header.Runs)
}

// refreshRate updates the campaign's coordinator-anchored rate from the
// aggregate cumulative run count. The base advances only when runs
// advance, so worker deaths (which never decrease the aggregate — it
// sums latest-per-shard cumulative counters) never reset the rate.
func (cs *campaignState) refreshRate(now time.Time) {
	runs := cs.aggregateRuns()
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

func (cs *campaignState) aggregateRuns() int64 {
	var runs int64
	for _, sh := range cs.shards {
		runs += sh.header.Runs
	}
	return runs
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

// campaignStatus renders one campaign's live view at now.
func (s *state) campaignStatus(cs *campaignState, now time.Time) CampaignStatus {
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
		if w := s.owner(cs.id, i); w != nil {
			row.Worker = w.name
		}
		if sh.haveCkpt {
			row.UploadAgeSec = now.Sub(sh.uploadAt).Seconds()
			snaps = append(snaps, sh.stats)
		}
		st.Shards = append(st.Shards, row)
		st.Redeals += sh.redeals
	}
	// Aggregate = sum of the LATEST snapshot per shard. Each shard's
	// snapshot is already cumulative across its own process lives, so
	// this equals an uninterrupted run's totals and never double-counts
	// a re-dealt shard's pre-crash work (fleet_test pins this).
	agg := stats.Sum(snaps...)
	st.Runs = cs.aggregateRuns() // header progress, also the rate anchor's input
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

// status renders the fleet-wide aggregate view at now.
func (s *state) status(now time.Time) FleetStatus {
	st := FleetStatus{Schema: FleetStatusSchema, Workers: []WorkerStatus{}, Campaigns: []CampaignStatus{}}
	for _, w := range s.workers {
		row := WorkerStatus{Name: w.name, HeartbeatAgeSec: now.Sub(w.lastBeat).Seconds()}
		if w.owns != nil {
			row.Shard = fmt.Sprintf("%s/%d", w.owns.id, w.owns.shard)
		}
		st.Workers = append(st.Workers, row)
	}
	// Registration keeps names unique.
	slices.SortFunc(st.Workers, func(a, b WorkerStatus) int { return strings.Compare(a.Name, b.Name) })
	var n shardCounts
	for _, id := range s.order {
		cs := s.campaigns[id]
		cst := s.campaignStatus(cs, now)
		st.Campaigns = append(st.Campaigns, cst)
		st.Redeals += cst.Redeals
		st.Runs += cst.Runs
		n.add(cs.shards)
	}
	st.Queued, st.Running, st.Done, st.Failed = n.queued, n.running, n.done, n.failed
	return st
}

// metrics returns the control-plane series of /metrics as a registry,
// and the latest stats snapshot of every shard, whose sum follows them.
func (s *state) metrics() (*stats.Registry, []stats.Snapshot) {
	var n shardCounts
	var snaps []stats.Snapshot
	for _, id := range s.order {
		shards := s.campaigns[id].shards
		n.add(shards)
		for _, sh := range shards {
			if sh.haveCkpt {
				snaps = append(snaps, sh.stats)
			}
		}
	}
	reg := stats.New()
	reg.Counter(MetricRedeals, "Shard re-deals after a worker died, went stale, or drained.").Add(s.redeals)
	reg.Counter(MetricUploads, "Accepted shard snapshot uploads.").Add(s.uploads)
	reg.Counter(MetricUploadsRejected, "Rejected shard snapshot uploads (tampered, stale owner, wrong campaign, regressing progress).").Add(s.uploadsRejected)
	reg.Gauge(MetricWorkers, "Currently registered workers.").Set(int64(len(s.workers)))
	reg.Gauge(MetricShardsQueued, "Shards waiting in the job queue.").Set(int64(n.queued))
	reg.Gauge(MetricShardsRunning, "Shards currently leased to a worker.").Set(int64(n.running))
	reg.Gauge(MetricShardsDone, "Shards completed.").Set(int64(n.done))
	return reg, snaps
}
