package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/timeline"
)

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	// Required.
	Coordinator string
	// Name is the worker's self-chosen label (default: hostname).
	Name string
	// WorkDir is the scratch directory for shard snapshots while they
	// run locally. Required. The authoritative copies live on the
	// coordinator; this dir is disposable.
	WorkDir string
	// PollEvery is the lease-poll interval while the queue is empty
	// (default 500ms).
	PollEvery time.Duration
	// Logf, when set, receives worker event logs.
	Logf func(format string, args ...any)
	// Client overrides the HTTP client (tests inject a short timeout).
	Client *http.Client
}

func (c *WorkerConfig) normalize() error {
	if c.Coordinator == "" {
		return fmt.Errorf("fleet: worker needs a coordinator URL")
	}
	if c.WorkDir == "" {
		return fmt.Errorf("fleet: worker needs a work dir")
	}
	if c.Name == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		c.Name = host
	}
	if c.PollEvery <= 0 {
		c.PollEvery = 500 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return nil
}

// errAbandoned marks a run cut short because the coordinator fenced this
// worker off its shard (the shard was re-dealt while we ran — a zombie's
// view). The worker discards the run: nothing to release or fail.
var errAbandoned = errors.New("fleet: shard re-dealt to another worker; abandoning")

// Worker is one fleet agent: it registers with the coordinator, leases
// shards, runs them through campaign.Start/Resume, uploads the snapshot
// after every checkpoint write, and heartbeats in the background. Cancel
// the context passed to Run to drain: the in-flight shard pauses at its
// next checkpoint, the final snapshot is uploaded, the shard is released
// for immediate re-deal, and Run returns.
type Worker struct {
	cfg    WorkerConfig
	client *Client

	// killed simulates a SIGKILL for tests: every outbound request is
	// suppressed from the instant it is set, so the coordinator can
	// learn of the death only by missed heartbeats.
	killed   atomic.Bool
	hardStop context.CancelFunc
	hardCtx  context.Context

	// mu guards the session id, which re-registration replaces while the
	// heartbeat loop and the running shard read it.
	mu sync.Mutex
	id string
}

// NewWorker creates a worker; Run does the registering.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: work dir: %w", err)
	}
	w := &Worker{cfg: cfg}
	w.client = &Client{Base: cfg.Coordinator, HTTP: cfg.Client, off: &w.killed}
	return w, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Kill hard-stops the worker as a crash would: all outbound requests —
// uploads, heartbeats, release — are suppressed immediately and the
// in-flight campaign is cancelled. The coordinator finds out the way it
// would for a real SIGKILL: heartbeats stop arriving, the timeout
// expires, and the shard is re-dealt from its last uploaded checkpoint.
// Tests use it to produce worker deaths at exact points.
func (w *Worker) Kill() {
	w.killed.Store(true)
	if w.hardStop != nil {
		w.hardStop()
	}
}

// Run is the worker's whole life: register, heartbeat, lease/run until
// ctx is cancelled, then drain. The returned error is nil after a clean
// drain or kill.
func (w *Worker) Run(ctx context.Context) error {
	w.hardCtx, w.hardStop = context.WithCancel(ctx)
	defer w.hardStop()

	beat, err := w.register("")
	if err != nil {
		return err
	}

	// The heartbeat loop outlives ctx on purpose: a graceful drain
	// cancels ctx but the in-flight campaign still needs to reach its
	// next checkpoint, upload, and release — the worker must stay alive
	// in the coordinator's eyes for that whole window. Only Run's return
	// (or a kill, which suppresses all sends anyway) stops the beats.
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go w.heartbeatLoop(beat, hbStop, hbDone)
	defer func() { close(hbStop); <-hbDone }()

	for {
		if w.killed.Load() {
			return nil
		}
		select {
		case <-ctx.Done():
			// Drain complete: the last task (if any) already paused,
			// uploaded and released below before the loop came back here.
			_ = w.client.Deregister(w.session())
			return nil
		default:
		}
		id := w.session()
		task, ok, err := w.client.Lease(id)
		if err != nil {
			if !w.killed.Load() && ctx.Err() == nil {
				w.logf("fleet: lease failed: %v", err)
				if !w.reregister(id, err) {
					sleepCtx(ctx, w.cfg.PollEvery)
				}
			}
			continue
		}
		if !ok {
			sleepCtx(ctx, w.cfg.PollEvery)
			continue
		}
		w.runTask(ctx, task)
	}
}

// heartbeatLoop beats every interval until Run returns or the worker is
// killed.
func (w *Worker) heartbeatLoop(interval time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	if interval <= 0 {
		interval = 3 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if w.killed.Load() {
				return
			}
			id := w.session()
			if err := w.client.Heartbeat(id); err != nil {
				w.logf("fleet: heartbeat failed: %v", err)
				w.reregister(id, err)
			}
		}
	}
}

// register opens a coordinator session under the configured name and
// returns the heartbeat interval the coordinator asks for. It does
// nothing unless the session id is still stale: the first of the
// heartbeat loop and the lease loop to find the session gone
// re-registers, and the other then finds the fresh id.
func (w *Worker) register(stale string) (time.Duration, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.id != stale {
		return 0, nil
	}
	reg, err := w.client.Register(w.cfg.Name)
	if err != nil {
		return 0, err
	}
	w.id = reg.WorkerID
	w.logf("fleet: worker %s registered as %s (heartbeat every %.1fs)", reg.Name, reg.WorkerID, reg.HeartbeatSec)
	return time.Duration(reg.HeartbeatSec * float64(time.Second)), nil
}

// reregister handles a request of session id that failed with err: when
// the coordinator no longer knows the session (it declared this worker
// dead after missed heartbeats and re-dealt its shard), the worker
// registers again, and reports that it did. A shard still running under
// the old session is fenced off by its next upload and abandoned.
func (w *Worker) reregister(id string, err error) bool {
	var he *httpError
	if !errors.As(err, &he) || he.code != http.StatusNotFound {
		return false
	}
	if _, rerr := w.register(id); rerr != nil {
		w.logf("fleet: re-register failed: %v", rerr)
		return false
	}
	return true
}

// session is the current coordinator session id.
func (w *Worker) session() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// runTask runs one dealt shard to completion, pause, or death.
func (w *Worker) runTask(ctx context.Context, task Task) {
	path := filepath.Join(w.cfg.WorkDir, fmt.Sprintf("%s-shard%d.ckpt", task.CampaignID, task.Shard))
	cfg, err := task.Submission.config(task.Shard, path)
	if err != nil {
		w.failTask(task, err.Error())
		return
	}
	resume := len(task.Snapshot) > 0
	if resume {
		// Re-seed the local disk from the coordinator's authoritative
		// copy: the previous owner's scratch files died with it.
		if err := timeline.AtomicWrite(path, task.Snapshot); err != nil {
			w.failTask(task, err.Error())
			return
		}
		side := timeline.SidecarPath(path)
		if len(task.Timeline) > 0 {
			if err := timeline.AtomicWrite(side, task.Timeline); err != nil {
				w.failTask(task, err.Error())
				return
			}
		} else {
			os.Remove(side)
		}
	} else {
		// A fresh deal must not trip over scratch left by an earlier
		// unrelated task with a recycled campaign id.
		cfg.Force = true
		os.Remove(timeline.SidecarPath(path))
	}

	runCtx, cancelRun := context.WithCancel(w.hardCtx)
	defer cancelRun()

	abandoned := false
	// The campaign calls OnCheckpoint after EVERY snapshot write — the
	// periodic ones, the pause-on-cancel one, and the final one carrying
	// the shard result — so uploading here is all the coordinator needs
	// to track progress, accept the drain handoff, and detect shard
	// completion.
	cfg.Observer = campaign.NewObserver()
	cfg.OnCheckpoint = func(h campaign.Header) {
		if w.killed.Load() || abandoned {
			return
		}
		if _, err := w.client.Upload(task.CampaignID, task.Shard, w.session(), path); err != nil {
			var fence *httpError
			if errors.As(err, &fence) && fence.code == http.StatusConflict {
				w.logf("fleet: campaign %s shard %d: %v", task.CampaignID, task.Shard, errAbandoned)
				abandoned = true
				cancelRun()
				return
			}
			// Transient upload failure: keep running; the next
			// checkpoint retries with strictly more progress.
			w.logf("fleet: upload failed (will retry at next checkpoint): %v", err)
		}
	}

	w.logf("fleet: running campaign %s shard %d/%d (resume=%v)", task.CampaignID, task.Shard, task.Submission.Shards, resume)
	var rep campaign.Report
	if resume {
		rep, err = campaign.Resume(runCtx, cfg)
	} else {
		rep, err = campaign.Start(runCtx, cfg)
	}
	switch {
	case w.killed.Load() || abandoned:
		// Dead workers tell no tales: no release, no fail report.
	case rep.Done:
		// Finished (verified or violation found) — the final snapshot
		// upload already flipped the shard to done; the verdict rides in
		// its header's Result.
		w.logf("fleet: campaign %s shard %d done: %d schedules, violation=%q", task.CampaignID, task.Shard, rep.Schedules, rep.Violation)
	case errors.Is(err, campaign.ErrPaused):
		// Drain: the pause checkpoint was uploaded by OnCheckpoint;
		// hand the shard back so it re-deals immediately.
		w.logf("fleet: campaign %s shard %d paused for drain after %d schedules", task.CampaignID, task.Shard, rep.Schedules)
		w.release(task)
	case err != nil:
		// Terminal engine error a resume cannot fix (exhausted budget,
		// invalid config): report it so the campaign fails loudly
		// instead of re-dealing forever.
		w.failTask(task, err.Error())
	}
}

func (w *Worker) release(task Task) {
	if err := w.client.Release(w.session(), task.CampaignID, task.Shard); err != nil {
		w.logf("fleet: release failed (coordinator will re-deal on heartbeat timeout): %v", err)
	}
}

func (w *Worker) failTask(task Task, msg string) {
	if err := w.client.Fail(task.CampaignID, task.Shard, w.session(), msg); err != nil {
		w.logf("fleet: fail report rejected: %v", err)
	}
}

// sleepCtx sleeps d or until ctx is done; reports whether it slept the
// whole interval.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
