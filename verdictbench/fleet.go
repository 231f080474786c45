package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
)

// fleetConfig is an in-process fleet run with one scripted worker death.
type fleetConfig struct {
	protocol         string
	n                int
	mode             string          // submission mode
	reduction        repro.Reduction // the same mode as engine options, for the one-process reference
	shards           int
	every            int // runs between checkpoint uploads
	heartbeatTimeout time.Duration
	reconcileEvery   time.Duration
	pollEvery        time.Duration
	schedules        int // pinned merged schedule count
}

// fleetRedeal runs the tree of por-census's slot-renaming n=4 instance as
// a 2-shard por-memo campaign, so the fleet's own cost is the difference
// from that instance. Shard 1 is the larger one (about 1.9 s of one core,
// against 1.2 s for shard 0), so the kill always lands mid-shard. The
// timing is a deployed fleet's: CI's fleet-e2e coordinator declares a
// worker dead after 2 s without a heartbeat (workers beat every third of
// that), and the reconcile tick and idle lease poll are 100 ms.
var fleetRedeal = fleetConfig{
	protocol: "slot-renaming", n: 4, mode: "por-memo", reduction: repro.ReductionSleepMemo,
	shards: 2, every: 2000,
	heartbeatTimeout: 2 * time.Second, reconcileEvery: 100 * time.Millisecond, pollEvery: 100 * time.Millisecond,
	schedules: 13824,
}

// killShard is the shard whose worker dies, right after that worker's
// first heartbeat following its first accepted upload of the shard.
// Either worker may lease it, so the victim is whichever does: killing a
// fixed shard keeps the re-dealt work the same in every verdict. Killing
// right after a heartbeat fixes how long the coordinator takes to notice:
// one full HeartbeatTimeout, plus a reconcile tick.
const killShard = 1

// mergePoll is how often the benchmark reads the campaign's status once
// every shard has uploaded its final snapshot, until the coordinator
// reports the merged verdict. requeuePoll is how often a traced verdict
// reads it between the kill and the killed shard's re-queue.
const (
	mergePoll   = 5 * time.Millisecond
	requeuePoll = 10 * time.Millisecond
)

// fleetTimeout bounds every wait on the fleet.
const fleetTimeout = 60 * time.Second

func fleet(cfg fleetConfig) func(env) (session, error) {
	return func(e env) (session, error) {
		coord, err := repro.NewFleetCoordinator(repro.FleetCoordinatorConfig{
			DataDir:          filepath.Join(e.dir, "coordinator"),
			HeartbeatTimeout: cfg.heartbeatTimeout,
			ReconcileEvery:   cfg.reconcileEvery,
		})
		if err != nil {
			return nil, err
		}
		s := &fleetSession{
			e: e, cfg: cfg, coord: coord, handler: coord.Handler(),
			srv:       httptest.NewServer(coord.Handler()),
			transport: &http.Transport{},
			rec: &fleetRecorder{
				shards: cfg.shards, kills: map[string]func(){},
				registered: make(chan struct{}), killed: make(chan struct{}), allDone: make(chan struct{}),
				fleetRequests: fleetRequests{doneShards: map[int]bool{}},
			},
		}
		s.ctx, s.cancel = context.WithCancel(context.Background())
		for _, name := range []string{"worker-a", "worker-b"} {
			if err = s.startWorker(name); err != nil {
				break
			}
		}
		if err == nil {
			// Wait for both registrations to be answered, then see them
			// in /status; polling alone would round the set-up time up to
			// the poll interval.
			select {
			case <-s.rec.registered:
			case <-time.After(fleetTimeout):
			}
			var st repro.FleetStatus
			if err = json.Unmarshal(s.get("/status"), &st); err == nil && len(st.Workers) != 2 {
				err = fmt.Errorf("fleet /status lists %d workers after both registered, want 2", len(st.Workers))
			}
		}
		if err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
}

type fleetSession struct {
	e         env
	cfg       fleetConfig
	coord     *repro.FleetCoordinator
	handler   http.Handler
	srv       *httptest.Server
	transport *http.Transport
	rec       *fleetRecorder

	ctx     context.Context
	cancel  context.CancelFunc
	workers sync.WaitGroup
}

// startWorker starts a named worker whose requests go through the
// recorder's timing transport; close waits for its end.
func (s *fleetSession) startWorker(name string) error {
	w, err := repro.NewFleetWorker(repro.FleetWorkerConfig{
		Coordinator: s.srv.URL, Name: name, WorkDir: filepath.Join(s.e.dir, name),
		PollEvery: s.cfg.pollEvery,
		Client:    &http.Client{Timeout: 30 * time.Second, Transport: &timingTransport{base: s.transport, rec: s.rec, worker: name}},
	})
	if err != nil {
		return err
	}
	s.rec.mu.Lock()
	s.rec.kills[name] = w.Kill
	s.rec.mu.Unlock()
	s.workers.Add(1)
	go func() {
		defer s.workers.Done()
		if err := w.Run(s.ctx); err != nil {
			s.rec.fail("worker %s: %v", name, err)
		}
	}()
	return nil
}

// close drains the live workers and stops the coordinator; it returns once
// every goroutine the session started has ended.
func (s *fleetSession) close() {
	s.cancel()
	s.workers.Wait()
	s.srv.Close()
	s.coord.Close()
	s.transport.CloseIdleConnections()
}

// get serves one GET through the coordinator's handler in process.
func (s *fleetSession) get(path string) []byte {
	rr := httptest.NewRecorder()
	s.handler.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	return rr.Body.Bytes()
}

// campaign reads one campaign's status, as gsbfleet submit -wait does.
func (s *fleetSession) campaign(id string) (repro.FleetCampaignStatus, error) {
	var st repro.FleetCampaignStatus
	err := json.Unmarshal(s.get("/v1/campaigns/"+id), &st)
	return st, err
}

func (s *fleetSession) submit() (string, error) {
	body, err := json.Marshal(repro.FleetSubmission{
		Schema: repro.FleetSchema, Protocol: s.cfg.protocol, N: s.cfg.n, Mode: s.cfg.mode,
		Seed: s.e.seed, Shards: s.cfg.shards, CheckpointEvery: s.cfg.every,
	})
	if err != nil {
		return "", err
	}
	rr := httptest.NewRecorder()
	s.handler.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/campaigns", bytes.NewReader(body)))
	if rr.Code != http.StatusOK {
		return "", fmt.Errorf("fleet: submit: %d %s", rr.Code, rr.Body)
	}
	var resp struct {
		ID string `json:"id"`
	}
	err = json.Unmarshal(rr.Body.Bytes(), &resp)
	return resp.ID, err
}

// metric reads one sample of the coordinator's /metrics exposition.
func (s *fleetSession) metric(name string) float64 {
	sc := bufio.NewScanner(bytes.NewReader(s.get("/metrics")))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, _ := strconv.ParseFloat(v, 64)
			return f
		}
	}
	return 0
}

func (s *fleetSession) verdict(tr *tracer, parent int) iteration {
	var it iteration
	s.rec.trace(tr, parent)
	m := startMeter()
	submitAt := time.Now()
	id, err := s.submit()
	var final repro.FleetCampaignStatus
	var detectAt time.Time
	if err == nil {
		final, detectAt, err = s.await(id, tr != nil)
	}
	it.verdictS, it.cpuS, it.allocs = m.stop()
	doneAt := submitAt.Add(time.Duration(it.verdictS * float64(time.Second)))

	r := s.rec.snapshot()
	var schedules int
	var violation string
	if final.Report != nil {
		schedules, violation = final.Report.Schedules, final.Report.Violation
	}
	it.op(err == nil && final.Done && schedules == s.cfg.schedules && violation == "" && final.Redeals == 1,
		"fleet: done=%v, %d schedules (want %d), violation %q, %d re-deals (want 1), error %v",
		final.Done, schedules, s.cfg.schedules, violation, final.Redeals, err)
	rejected := s.metric("gsb_fleet_uploads_rejected_total")
	it.op(rejected == 0, "fleet: %v rejected uploads", rejected)
	it.attempted += r.requests
	it.failed += r.errors
	it.problems = append(it.problems, r.problems...)
	it.counts = []int{schedules, final.Redeals}
	it.units = schedules
	// From the kill until the killed shard is leased again, its work waits
	// out the heartbeat timeout, a reconcile tick and a lease poll.
	it.waitS = secondsBetween(r.killAt, r.redealAt)
	if tr == nil {
		return it
	}
	if !detectAt.IsZero() {
		tr.add("requeued", parent, detectAt, detectAt)
	}

	// The same submission as one process: what the fleet saves or costs.
	sspan := tr.begin("single-process", parent)
	sm := startMeter()
	single, serr := s.singleProcess()
	singleS, _, _ := sm.stop()
	tr.finish(sspan)
	it.op(serr == nil && single.Schedules == schedules, "one-process reference: %d schedules (fleet %d), error %v", single.Schedules, schedules, serr)

	upPct, upTail, _ := tail(r.uploadMS)
	var c map[string]int64
	if final.Report != nil && final.Report.Stats != nil {
		c = final.Report.Stats.Counters
	}
	l := map[string]float64{
		"engine.runs":              float64(c["gsb_runs_total"]),
		"engine.schedules":         float64(c["gsb_schedules_total"]),
		"engine.aborts":            float64(c["gsb_aborts_total"]),
		"engine.steals":            float64(c["gsb_steals_total"]),
		"engine.useful_ratio":      ratio(float64(c["gsb_schedules_total"]), float64(c["gsb_runs_total"])),
		"fleet.requests":           float64(r.requests),
		"fleet.http_errors":        float64(r.errors),
		"fleet.uploads":            float64(len(r.uploadMS)),
		"fleet.upload_ms.p50":      median(r.uploadMS),
		"fleet.upload_ms.tail":     upTail,
		"fleet.upload_ms.tail_pct": upPct,
		"fleet.upload_bytes":       float64(r.uploadBytes),
		"fleet.lease_ms.p50":       median(r.leaseMS),
		"fleet.heartbeat_ms.p50":   median(r.heartbeatMS),
		"fleet.rejected_uploads":   rejected,
		"fleet.redeal_s":           secondsBetween(r.killAt, r.redealAt),
		"fleet.detect_s":           secondsBetween(r.killAt, detectAt),
		"fleet.resume_s":           secondsBetween(r.redealAt, r.resumeAt),
		"fleet.merge_s":            secondsBetween(r.lastUploadAt, doneAt),
		"fleet.single_verdict_s":   singleS,
		"fleet.speedup":            ratio(singleS, it.verdictS),
	}
	// The re-dealt shard's critical path: until the kill, the re-deal, the
	// resumed run to its final upload, and the merge. What it leaves
	// unexplained is the surviving shard outlasting it.
	path := secondsBetween(submitAt, r.killAt) + l["fleet.redeal_s"] +
		secondsBetween(r.redealAt, r.killedFinalAt) + l["fleet.merge_s"]
	l["residual_share"] = 1 - ratio(path, it.verdictS)
	it.layers = l
	return it
}

// await waits for the scripted kill and starts the replacement worker;
// waits for every shard's final upload, which the workers' transport
// sees; and only then reads the campaign's status, until the coordinator
// has merged the shards. No status is read while the workers run, except
// in a traced verdict, which watches for the killed shard's re-queue and
// returns when it saw it.
func (s *fleetSession) await(id string, traced bool) (repro.FleetCampaignStatus, time.Time, error) {
	var none repro.FleetCampaignStatus
	var detectAt time.Time
	deadline := time.NewTimer(fleetTimeout)
	defer deadline.Stop()
	select {
	case <-s.rec.killed:
	case <-s.rec.allDone:
		return none, detectAt, fmt.Errorf("fleet: every shard finished before the scripted kill")
	case <-deadline.C:
		return none, detectAt, fmt.Errorf("fleet: no kill within %v", fleetTimeout)
	}
	if err := s.startWorker("replacement"); err != nil {
		return none, detectAt, err
	}
	var detected chan time.Time
	if traced {
		detected = make(chan time.Time, 1)
		go func() { detected <- s.watchRequeue(id) }()
	}
	select {
	case <-s.rec.allDone:
	case <-deadline.C:
		return none, detectAt, fmt.Errorf("fleet: shards not all done within %v", fleetTimeout)
	}
	if detected != nil {
		detectAt = <-detected
	}
	for {
		st, err := s.campaign(id)
		switch {
		case err != nil:
			return st, detectAt, fmt.Errorf("fleet: campaign status: %w", err)
		case st.Done:
			return st, detectAt, nil
		case st.State == "failed":
			return st, detectAt, fmt.Errorf("fleet: campaign failed: %s", st.Error)
		}
		select {
		case <-deadline.C:
			return st, detectAt, fmt.Errorf("fleet: campaign %s still %s after %v", id, st.State, fleetTimeout)
		case <-time.After(mergePoll):
		}
	}
}

// watchRequeue polls the campaign's status until the killed shard's
// re-deal count rises (it stays up once the shard is leased again), and
// returns when it saw it; the zero time if it never did.
func (s *fleetSession) watchRequeue(id string) time.Time {
	deadline := time.Now().Add(fleetTimeout)
	for time.Now().Before(deadline) {
		st, err := s.campaign(id)
		if err != nil {
			return time.Time{}
		}
		if killShard < len(st.Shards) && st.Shards[killShard].Redeals > 0 {
			return time.Now()
		}
		if st.Done {
			return time.Time{}
		}
		time.Sleep(requeuePoll)
	}
	return time.Time{}
}

// singleProcess runs the submission as one unsharded campaign.
func (s *fleetSession) singleProcess() (repro.CampaignReport, error) {
	spec, build, err := repro.SelectProtocol(s.cfg.protocol, s.cfg.n, s.e.seed)
	if err != nil {
		return repro.CampaignReport{}, err
	}
	return repro.RunCampaign(context.Background(), repro.CampaignConfig{
		Protocol: s.cfg.protocol, Spec: spec, Build: build,
		Opts:            repro.ExploreOptions{Seed: s.e.seed, Reduction: s.cfg.reduction},
		CheckpointEvery: s.cfg.every, Path: filepath.Join(s.e.dir, "single.ckpt"), Force: true,
	})
}

func secondsBetween(from, to time.Time) float64 {
	if from.IsZero() || to.IsZero() {
		return 0
	}
	return to.Sub(from).Seconds()
}

// timingTransport times every request a worker makes and reports it to the
// recorder.
type timingTransport struct {
	base   http.RoundTripper
	rec    *fleetRecorder
	worker string
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	var done bool
	if err == nil && resp.StatusCode == http.StatusOK && strings.HasSuffix(req.URL.Path, "/snapshot") {
		// An upload's answer says whether it completed the shard; read it
		// here and hand the worker the same bytes.
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var up struct {
			Done bool `json:"done"`
		}
		if rerr == nil && json.Unmarshal(body, &up) == nil {
			done = up.Done
		}
	}
	t.rec.observe(t.worker, req, resp, err, start, end, done)
	return resp, err
}

// fleetRecorder collects what the workers' transports see, and performs the
// scripted kill.
type fleetRecorder struct {
	shards     int
	registered chan struct{} // closed once the first two workers registered
	killed     chan struct{} // closed at the kill
	allDone    chan struct{} // closed at the last shard's final upload

	mu     sync.Mutex
	kills  map[string]func() // each worker's Kill, by name
	tr     *tracer
	parent int
	fleetRequests
}

// fleetRequests is the recorder's state, copied out by snapshot.
type fleetRequests struct {
	requests, errors int
	registrations    int
	problems         []string
	uploadMS         []float64
	leaseMS          []float64
	heartbeatMS      []float64
	uploadBytes      int64
	doneShards       map[int]bool

	victim        string // the worker that first uploaded the killed shard
	killAt        time.Time
	redealAt      time.Time // the killed shard's next lease
	redealWorker  string
	resumeAt      time.Time // the new owner's first accepted upload
	killedFinalAt time.Time // the killed shard's last accepted upload
	lastUploadAt  time.Time
}

func (r *fleetRecorder) trace(tr *tracer, parent int) {
	r.mu.Lock()
	r.tr, r.parent = tr, parent
	r.mu.Unlock()
}

func (r *fleetRecorder) snapshot() fleetRequests {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.fleetRequests
	c.problems = slices.Clone(c.problems)
	c.uploadMS = slices.Clone(c.uploadMS)
	c.leaseMS = slices.Clone(c.leaseMS)
	c.heartbeatMS = slices.Clone(c.heartbeatMS)
	return c
}

func (r *fleetRecorder) fail(format string, args ...any) {
	r.mu.Lock()
	r.errors++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// requestKind names a gsbfleet/v1 request and, for uploads, its shard.
func requestKind(req *http.Request) (kind string, shard int) {
	p := req.URL.Path
	switch {
	case strings.HasSuffix(p, "/heartbeat"):
		return "heartbeat", -1
	case strings.HasSuffix(p, "/lease"):
		return "lease", -1
	case strings.HasSuffix(p, "/snapshot"):
		parts := strings.Split(p, "/") // /v1/campaigns/{id}/shards/{k}/snapshot
		k, err := strconv.Atoi(parts[len(parts)-2])
		if err != nil {
			k = -1
		}
		return "upload", k
	case req.Method == http.MethodDelete:
		return "deregister", -1
	case p == "/v1/workers":
		return "register", -1
	}
	return "other", -1
}

func (r *fleetRecorder) observe(worker string, req *http.Request, resp *http.Response, err error, start, end time.Time, done bool) {
	kind, shard := requestKind(req)
	ms := end.Sub(start).Seconds() * 1000
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tr.add("http "+kind+" "+worker, r.parent, start, end)
	r.requests++
	switch {
	case err != nil:
		r.errors++
		r.problems = append(r.problems, fmt.Sprintf("%s %s %s: %v", worker, req.Method, req.URL.Path, err))
		return
	case resp.StatusCode >= 400:
		// No request of this script should be refused: the victim's
		// requests stop at the kill, before they reach the transport.
		r.errors++
		r.problems = append(r.problems, fmt.Sprintf("%s %s %s: HTTP %d", worker, req.Method, req.URL.Path, resp.StatusCode))
		return
	}
	switch kind {
	case "register":
		if r.registrations++; r.registrations == 2 {
			close(r.registered)
		}
	case "heartbeat":
		r.heartbeatMS = append(r.heartbeatMS, ms)
		if worker == r.victim && r.killAt.IsZero() {
			r.kills[worker]()
			r.killAt = time.Now()
			r.tr.add("kill "+worker, r.parent, r.killAt, r.killAt)
			close(r.killed)
		}
	case "lease":
		r.leaseMS = append(r.leaseMS, ms)
		if resp.StatusCode == http.StatusOK && !r.killAt.IsZero() && r.redealAt.IsZero() {
			// After the kill the only queued shard is the killed one.
			r.redealAt, r.redealWorker = end, worker
			r.tr.add("re-deal to "+worker, r.parent, end, end)
		}
	case "upload":
		r.uploadMS = append(r.uploadMS, ms)
		r.uploadBytes += req.ContentLength
		r.lastUploadAt = end
		if shard == killShard {
			if r.victim == "" {
				r.victim = worker
			}
			if !r.redealAt.IsZero() {
				if worker == r.redealWorker && r.resumeAt.IsZero() {
					r.resumeAt = end
				}
				r.killedFinalAt = end
			}
		}
		if done && !r.doneShards[shard] {
			if r.doneShards[shard] = true; len(r.doneShards) == r.shards {
				close(r.allDone)
			}
		}
	}
}
