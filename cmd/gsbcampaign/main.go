// Command gsbcampaign runs durable, resumable, shardable verification
// campaigns: any of the repository's verification modes (exhaustive or
// partial-order-reduced exploration, random-walk or PCT sampling, crash
// sweeps) executed with periodic checkpoints to a versioned snapshot
// file, so a long run survives kills, splits across machines, and merges
// back into exactly the report an uninterrupted single process produces.
//
// Usage:
//
//	gsbcampaign start  -ckpt run.ckpt -protocol slot-renaming -n 4 -mode por [-every 5000] [-shard 0/3]
//	gsbcampaign resume -ckpt run.ckpt [-workers 8] [-every 5000]
//	gsbcampaign status -ckpt run.ckpt [-json | -watch [-interval 2s]]
//	gsbcampaign merge  shard0.ckpt shard1.ckpt shard2.ckpt
//
// Modes (-mode) are the request modes of the campaign library; the
// table in docs/checkpoint-format.md maps each one to the mode its
// snapshot header records and the engine options it sets.
//
// The execution model is a campaign axis (docs/models.md): -model picks
// the memory model the shared registers and snapshots execute under
// (atomic, regular, safe, stale-snapshot) and -adversary picks the
// crash-sweep strategy (uniform-crash, t-resilient, adaptive; crash mode
// only). Both are part of the snapshot's options hash: shards of one
// campaign must agree on them, and resuming under a changed model or
// adversary fails loudly.
//
// Observability (docs/metrics.md): start and resume take -metrics ADDR
// (serve a live HTML coverage dashboard at /, Prometheus /metrics, a
// gsbstatus/v1 JSON /status endpoint, and the gsbtimeline/v1 series at
// /timeline) and -progress DUR (write a gsbprogress/v1 NDJSON record to
// stderr every DUR; 0 disables). Counters are cumulative across resumed
// lives — they are checkpointed with the engine state, and each
// checkpoint write also appends one timeline sample to the snapshot's
// NDJSON sidecar (<ckpt>.timeline), so a kill/resume sequence yields one
// continuous coverage timeline. `status -watch` renders live progress
// for a running (or finished) campaign by polling its snapshot file,
// with a sparkline of the sidecar's coverage curve and an ETA when the
// mode's total is known up front. `merge -timeline FILE` interleaves the
// shard sidecars into one campaign-wide timeline.
//
// SIGINT/SIGTERM pause the campaign at the next checkpoint boundary: the
// engine stops claiming new work, finishes the runs in flight, writes the
// snapshot, and exits with code 3. A SIGKILL (or power loss) loses at
// most the work since the last periodic checkpoint — `resume` continues
// from the snapshot exactly, never re-counting or skipping a schedule.
// Resuming under changed campaign options fails loudly (the snapshot
// header carries an options hash); worker count and checkpoint interval
// may change freely across resumes.
//
// Exit codes: 0 verified, 1 violation or operational error, 2 usage,
// 3 paused at a checkpoint (resume to continue).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
)

// recordSchema versions the -json output records of start/resume/merge.
const recordSchema = "gsbcampaign/v1"

// record is the machine-readable outcome of a campaign command.
type record struct {
	Schema string `json:"schema"`
	repro.CampaignReport
	Paused bool   `json:"paused,omitempty"`
	Error  string `json:"error,omitempty"`
}

const (
	exitOK     = 0
	exitFailed = 1
	exitUsage  = 2
	exitPaused = 3
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(exitUsage)
	}
	switch os.Args[1] {
	case "start":
		os.Exit(cmdStart(os.Args[2:]))
	case "resume":
		os.Exit(cmdResume(os.Args[2:]))
	case "status":
		os.Exit(cmdStatus(os.Args[2:]))
	case "merge":
		os.Exit(cmdMerge(os.Args[2:]))
	case "-h", "-help", "--help", "help":
		usage()
		os.Exit(exitOK)
	default:
		fmt.Fprintf(os.Stderr, "gsbcampaign: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(exitUsage)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  gsbcampaign start  -ckpt FILE -protocol NAME -n N -mode MODE [-metrics ADDR] [-progress DUR] [flags]
  gsbcampaign resume -ckpt FILE [-workers W] [-every RUNS] [-metrics ADDR] [-progress DUR] [-json]
  gsbcampaign status -ckpt FILE [-json | -watch [-interval DUR]]
  gsbcampaign merge  [-json] [-timeline FILE] SHARD.ckpt...
modes: exhaustive | por | por-memo | walk | pct | crash
run 'gsbcampaign start -h' for the start flags`)
}

// parseShard parses "i/m" into (shard, of).
func parseShard(s string) (int, int, error) {
	if s == "" {
		return 0, 1, nil
	}
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return 0, 0, fmt.Errorf("-shard wants i/m (e.g. 0/3), got %q", s)
	}
	shard, err1 := strconv.Atoi(s[:i])
	of, err2 := strconv.Atoi(s[i+1:])
	if err1 != nil || err2 != nil || of < 1 || shard < 0 || shard >= of {
		return 0, 0, fmt.Errorf("-shard wants i/m with 0 <= i < m, got %q", s)
	}
	return shard, of, nil
}

// signalContext returns a context canceled by SIGINT/SIGTERM: the
// campaign loop sees the cancellation as a pause request and writes a
// checkpoint before exiting.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// startObservability attaches the live observability surfaces to obs: an
// HTTP listener serving /metrics and /status when addr is non-empty (the
// bound address is announced on stderr, so ":0" works), and a
// gsbprogress/v1 NDJSON ticker on stderr when every > 0 (plus one final
// record at stop, so short campaigns still log their outcome). The
// returned stop function shuts both down.
func startObservability(obs *repro.CampaignObserver, addr string, every time.Duration) (func(), error) {
	var ln net.Listener
	if addr != "" {
		var err error
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("-metrics %s: %w", addr, err)
		}
		fmt.Fprintf(os.Stderr, "gsbcampaign: serving /metrics and /status on http://%s\n", ln.Addr())
		srv := &http.Server{Handler: obs.Handler()}
		go func() { _ = srv.Serve(ln) }()
	}
	stopTick := make(chan struct{})
	doneTick := make(chan struct{})
	if every > 0 {
		go func() {
			defer close(doneTick)
			t := time.NewTicker(every)
			defer t.Stop()
			enc := json.NewEncoder(os.Stderr)
			for {
				select {
				case <-t.C:
					_ = enc.Encode(obs.Progress())
				case <-stopTick:
					_ = enc.Encode(obs.Progress())
					return
				}
			}
		}()
	} else {
		close(doneTick)
	}
	return func() {
		close(stopTick)
		<-doneTick
		if ln != nil {
			ln.Close()
		}
	}, nil
}

func cmdStart(args []string) int {
	fs := flag.NewFlagSet("gsbcampaign start", flag.ExitOnError)
	ckpt := fs.String("ckpt", "", "snapshot file (required)")
	var req repro.CampaignRequest
	req.BindFlags(fs)
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	shardSpec := fs.String("shard", "", "run shard i of m (\"i/m\"); every shard gets its own -ckpt file")
	force := fs.Bool("force", false, "overwrite an existing snapshot file")
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON record")
	metricsAddr := fs.String("metrics", "", "serve Prometheus /metrics and JSON /status on this address (e.g. :9090)")
	progress := fs.Duration("progress", 0, "write a gsbprogress/v1 NDJSON record to stderr every DUR (0 disables)")
	fs.Parse(args)

	if *ckpt == "" {
		fmt.Fprintln(os.Stderr, "gsbcampaign start: -ckpt is required")
		return exitUsage
	}
	shard, of, err := parseShard(*shardSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbcampaign start: %v\n", err)
		return exitUsage
	}
	// The model and adversary are validated with the rest of the
	// request, so a typo is a usage error before any snapshot file is
	// touched; both are part of the snapshot's options hash.
	cfg, err := req.Config(shard, of, *ckpt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbcampaign start: %v\n", err)
		return exitUsage
	}
	cfg.Opts.Workers = *workers
	cfg.Force = *force
	obs := repro.NewCampaignObserver()
	cfg.Observer = obs
	stop, err := startObservability(obs, *metricsAddr, *progress)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbcampaign start: %v\n", err)
		return exitUsage
	}
	ctx, cancel := signalContext()
	defer cancel()
	rep, err := repro.RunCampaign(ctx, cfg)
	stop()
	return report(rep, err, *jsonOut)
}

// resumeConfig rebuilds a campaign config from a snapshot header: the
// protocol registry plus the header's recorded options. The library
// re-verifies the options hash, so drift between the snapshot and this
// binary's protocol definitions fails loudly.
func resumeConfig(path string, workers, every int) (repro.CampaignConfig, error) {
	h, err := repro.CampaignStatus(path)
	if err != nil {
		return repro.CampaignConfig{}, err
	}
	opts := h.ExploreOptions()
	opts.Workers = workers
	spec, build, err := repro.SelectProtocol(h.Protocol, h.N, opts.Seed)
	if err != nil {
		return repro.CampaignConfig{}, fmt.Errorf("snapshot protocol: %w", err)
	}
	return repro.CampaignConfig{
		Protocol: h.Protocol, Spec: spec, IDs: h.IDs, Opts: opts, Build: build,
		Shard: h.Shard, Of: h.Of, CheckpointEvery: every, Path: path,
	}, nil
}

func cmdResume(args []string) int {
	fs := flag.NewFlagSet("gsbcampaign resume", flag.ExitOnError)
	ckpt := fs.String("ckpt", "", "snapshot file (required)")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	every := fs.Int("every", 0, "checkpoint interval in runs (0 = default)")
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON record")
	metricsAddr := fs.String("metrics", "", "serve Prometheus /metrics and JSON /status on this address (e.g. :9090)")
	progress := fs.Duration("progress", 0, "write a gsbprogress/v1 NDJSON record to stderr every DUR (0 disables)")
	fs.Parse(args)

	if *ckpt == "" {
		fmt.Fprintln(os.Stderr, "gsbcampaign resume: -ckpt is required")
		return exitUsage
	}
	cfg, err := resumeConfig(*ckpt, *workers, *every)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbcampaign resume: %v\n", err)
		return exitFailed
	}
	obs := repro.NewCampaignObserver()
	cfg.Observer = obs
	stop, err := startObservability(obs, *metricsAddr, *progress)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbcampaign resume: %v\n", err)
		return exitUsage
	}
	ctx, cancel := signalContext()
	defer cancel()
	rep, err := repro.ResumeCampaign(ctx, cfg)
	stop()
	return report(rep, err, *jsonOut)
}

func cmdStatus(args []string) int {
	fs := flag.NewFlagSet("gsbcampaign status", flag.ExitOnError)
	ckpt := fs.String("ckpt", "", "snapshot file (required)")
	jsonOut := fs.Bool("json", false, "emit the snapshot header as JSON")
	watch := fs.Bool("watch", false, "poll the snapshot and render live progress until the campaign finishes")
	interval := fs.Duration("interval", 2*time.Second, "poll interval for -watch")
	fs.Parse(args)

	if *ckpt == "" {
		fmt.Fprintln(os.Stderr, "gsbcampaign status: -ckpt is required")
		return exitUsage
	}
	if *watch {
		return watchStatus(*ckpt, *interval)
	}
	h, err := repro.CampaignStatus(*ckpt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbcampaign status: %v\n", err)
		return exitFailed
	}
	if *jsonOut {
		b, jerr := json.Marshal(h)
		if jerr != nil {
			fmt.Fprintf(os.Stderr, "gsbcampaign status: %v\n", jerr)
			return exitFailed
		}
		fmt.Println(string(b))
		return exitOK
	}
	state := "in progress"
	if h.Done {
		state = "done"
	}
	fmt.Printf("campaign %s shard %d/%d: %s on %s (n=%d, seed %d, hash %s)\n",
		h.Mode, h.Shard, h.Of, state, h.Task, h.N, h.Options.Seed, h.OptionsHash)
	fmt.Printf("  protocol %s, %d runs done", h.Protocol, h.Runs)
	if h.Frontier > 0 {
		fmt.Printf(", %d frontier prefixes unexplored", h.Frontier)
	}
	fmt.Printf(", updated %s\n", h.Updated)
	if h.Result != nil {
		if h.Result.Violation != "" {
			fmt.Printf("  verdict: VIOLATION after %d schedules: %s\n", h.Result.Schedules, h.Result.Violation)
		} else {
			fmt.Printf("  verdict: %d schedules verified\n", h.Result.Schedules)
		}
	}
	return exitOK
}

// sparkline renders the timeline's coverage-growth curve — distinct
// trace classes when the mode counts them, verified runs otherwise — as
// a string of spark characters over the last w samples.
func sparkline(recs []repro.TimelineRecord, w int) string {
	if len(recs) == 0 {
		return ""
	}
	useClasses := recs[len(recs)-1].Classes > 0
	vals := make([]int64, 0, len(recs))
	for _, r := range recs {
		if useClasses {
			vals = append(vals, r.Classes)
		} else {
			vals = append(vals, r.Runs)
		}
	}
	if len(vals) > w {
		vals = vals[len(vals)-w:]
	}
	var max int64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return ""
	}
	ticks := []rune("▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, v := range vals {
		b.WriteRune(ticks[int(v*int64(len(ticks)-1)/max)])
	}
	return b.String()
}

// watchStatus polls the snapshot header and prints one progress line per
// tick until the campaign finishes. It follows a campaign run by another
// process (the writer replaces the file atomically, so every read sees a
// consistent snapshot). Each line carries a sparkline of the coverage
// curve from the snapshot's timeline sidecar (when one exists), the
// current rate — the sidecar's last in-process runs/sec sample when
// available, successive header run counts (checkpoint-granular)
// otherwise — and, for seeded modes whose total is known up front, an
// ETA. Ctrl-C stops the watch without touching the campaign.
func watchStatus(path string, interval time.Duration) int {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	ctx, cancel := signalContext()
	defer cancel()
	var lastRuns int64 = -1
	var lastTime time.Time
	for {
		h, err := repro.CampaignStatus(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gsbcampaign status: %v\n", err)
			return exitFailed
		}
		// The sidecar is best-effort: campaigns run without an observer
		// (or pre-timeline snapshots) simply have none.
		recs, _ := repro.ReadTimeline(repro.TimelineSidecarPath(path))
		now := time.Now()
		var rateVal float64
		if len(recs) > 0 && recs[len(recs)-1].RunsPerSec > 0 {
			rateVal = recs[len(recs)-1].RunsPerSec
		} else if lastRuns >= 0 && h.Runs > lastRuns && now.After(lastTime) {
			rateVal = float64(h.Runs-lastRuns) / now.Sub(lastTime).Seconds()
		}
		rate := ""
		if rateVal > 0 {
			rate = fmt.Sprintf(", %.0f runs/sec", rateVal)
		}
		eta := ""
		if sec := repro.CampaignETASec(h.ShardTotal(), h.Runs, rateVal, h.Done); sec > 0 {
			eta = fmt.Sprintf(", ETA %s", time.Duration(sec*float64(time.Second)).Round(time.Second))
		}
		line := fmt.Sprintf("%s shard %d/%d on %s: %d runs", h.Mode, h.Shard, h.Of, h.Task, h.Runs)
		if h.Frontier > 0 {
			line += fmt.Sprintf(", %d frontier prefixes", h.Frontier)
		}
		if spark := sparkline(recs, 32); spark != "" {
			line = spark + "  " + line
		}
		fmt.Printf("%s%s%s (checkpoint %s)\n", line, rate, eta, h.Updated)
		if h.Done {
			if h.Result != nil && h.Result.Violation != "" {
				fmt.Printf("verdict: VIOLATION after %d schedules: %s\n", h.Result.Schedules, h.Result.Violation)
				return exitFailed
			}
			if h.Result != nil {
				fmt.Printf("verdict: %d schedules verified\n", h.Result.Schedules)
			}
			return exitOK
		}
		lastRuns, lastTime = h.Runs, now
		select {
		case <-ctx.Done():
			return exitOK
		case <-time.After(interval):
		}
	}
}

func cmdMerge(args []string) int {
	fs := flag.NewFlagSet("gsbcampaign merge", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON record")
	workers := fs.Int("workers", 0, "worker goroutines for the merge's counting pass (0 = GOMAXPROCS)")
	timelineOut := fs.String("timeline", "", "also merge the shards' timeline sidecars into one campaign-wide NDJSON timeline at FILE")
	fs.Parse(args)
	paths := fs.Args()

	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "gsbcampaign merge: need at least one snapshot path")
		return exitUsage
	}
	cfg, err := resumeConfig(paths[0], *workers, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbcampaign merge: %v\n", err)
		return exitFailed
	}
	rep, err := repro.MergeCampaigns(context.Background(), cfg, paths)
	if *timelineOut != "" && err == nil {
		if merr := mergeTimelines(paths, *timelineOut); merr != nil {
			fmt.Fprintf(os.Stderr, "gsbcampaign merge: %v\n", merr)
			return exitFailed
		}
	}
	return report(rep, err, *jsonOut)
}

// mergeTimelines interleaves the shard snapshots' timeline sidecars by
// (sample index, shard) into one campaign-wide NDJSON timeline file.
func mergeTimelines(paths []string, out string) error {
	series := make([][]repro.TimelineRecord, 0, len(paths))
	for _, p := range paths {
		recs, err := repro.ReadTimeline(repro.TimelineSidecarPath(p))
		if err != nil {
			return fmt.Errorf("timeline sidecar of %s: %w", p, err)
		}
		series = append(series, recs)
	}
	merged, err := repro.MergeTimelines(series...)
	if err != nil {
		return err
	}
	if err := repro.WriteTimeline(out, merged); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gsbcampaign: wrote merged timeline %s (%d samples from %d shards)\n", out, len(merged), len(paths))
	return nil
}

// report renders a campaign outcome and picks the exit code.
func report(rep repro.CampaignReport, err error, jsonOut bool) int {
	paused := errors.Is(err, repro.ErrCampaignPaused)
	if jsonOut {
		rec := record{Schema: recordSchema, CampaignReport: rep, Paused: paused}
		if err != nil {
			rec.Error = err.Error()
		}
		b, jerr := json.Marshal(rec)
		if jerr != nil {
			fmt.Fprintf(os.Stderr, "gsbcampaign: %v\n", jerr)
			return exitFailed
		}
		fmt.Println(string(b))
	}
	switch {
	case paused:
		if !jsonOut {
			fmt.Fprintf(os.Stderr, "gsbcampaign: %v\n", err)
		}
		return exitPaused
	case err != nil && rep.Done:
		// A finished campaign whose verdict is a violation.
		if !jsonOut {
			fmt.Printf("campaign %s shard %d/%d: VIOLATION after %d schedules\n  %v\n", rep.Mode, rep.Shard, rep.Of, rep.Schedules, err)
		}
		return exitFailed
	case err != nil:
		if !jsonOut {
			fmt.Fprintf(os.Stderr, "gsbcampaign: %v\n", err)
		}
		return exitFailed
	default:
		if !jsonOut {
			fmt.Printf("campaign %s shard %d/%d: %d schedules verified on %s", rep.Mode, rep.Shard, rep.Of, rep.Schedules, rep.Task)
			if rep.Classes > 0 {
				fmt.Printf(" (%d distinct trace classes, %.1f%% coverage)", rep.Classes, 100*rep.Coverage)
			}
			fmt.Println()
		}
		return exitOK
	}
}
