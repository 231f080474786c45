// Command gsbfleet runs and drives a verification fleet: the
// distributed form of a sharded campaign (docs/fleet.md).
//
//	gsbfleet coordinator -data DIR [-listen ADDR]      # control plane
//	gsbfleet worker -coordinator URL [-work DIR]       # campaign runner
//	gsbfleet submit -coordinator URL -protocol P -n N -mode M [-shards S] [-wait]
//	gsbfleet status -coordinator URL [-json | -watch]
//	gsbfleet result -coordinator URL -id ID [-json]
//	gsbfleet upload -coordinator URL -id ID -shard I SNAPSHOT.ckpt
//
// The coordinator owns all fleet state: the campaign registry, the shard
// queue, the latest uploaded checkpoint of every shard, and the
// reconcile loop that re-deals the shard of a worker that stopped
// heartbeating or stopped making progress. Workers are stateless
// agents: kill -9 one and its shard resumes on another worker from the
// last uploaded checkpoint, with no verified run repeated or lost —
// the merged report is identical to an uninterrupted single-process
// run. SIGTERM drains a worker gracefully: its campaign pauses at the
// next checkpoint, the final snapshot is uploaded and the shard is
// released for immediate re-deal.
//
// Exit codes: 0 success/verified, 1 violation or operational error,
// 2 usage.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
)

const (
	exitOK     = 0
	exitFailed = 1
	exitUsage  = 2
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(exitUsage)
	}
	switch os.Args[1] {
	case "coordinator":
		os.Exit(cmdCoordinator(os.Args[2:]))
	case "worker":
		os.Exit(cmdWorker(os.Args[2:]))
	case "submit":
		os.Exit(cmdSubmit(os.Args[2:]))
	case "status":
		os.Exit(cmdStatus(os.Args[2:]))
	case "result":
		os.Exit(cmdResult(os.Args[2:]))
	case "upload":
		os.Exit(cmdUpload(os.Args[2:]))
	case "-h", "-help", "--help", "help":
		usage()
		os.Exit(exitOK)
	default:
		fmt.Fprintf(os.Stderr, "gsbfleet: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(exitUsage)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  gsbfleet coordinator -data DIR [-listen ADDR] [-heartbeat DUR] [-stale DUR]
  gsbfleet worker -coordinator URL [-name NAME] [-work DIR] [-poll DUR]
  gsbfleet submit -coordinator URL -protocol P -n N -mode MODE [-shards S] [-wait [-interval DUR]] [-json] [flags]
  gsbfleet status -coordinator URL [-json | -watch [-interval DUR]]
  gsbfleet result -coordinator URL -id ID [-json]
  gsbfleet upload -coordinator URL -id ID -shard I SNAPSHOT.ckpt
modes: exhaustive | por | por-memo | walk | pct | crash
run 'gsbfleet submit -h' for the submit flags`)
}

func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

func cmdCoordinator(args []string) int {
	fs := flag.NewFlagSet("gsbfleet coordinator", flag.ExitOnError)
	listen := fs.String("listen", ":8600", "address to serve the gsbfleet/v1 API on (\":0\" picks a port)")
	data := fs.String("data", "", "directory for uploaded shard snapshots (required)")
	heartbeat := fs.Duration("heartbeat", 10*time.Second, "declare a worker dead after this long without a heartbeat")
	stale := fs.Duration("stale", 2*time.Minute, "re-deal a running shard whose last upload is older than this (<0 disables)")
	fs.Parse(args)
	if *data == "" {
		fmt.Fprintln(os.Stderr, "gsbfleet coordinator: -data is required")
		return exitUsage
	}
	c, err := repro.NewFleetCoordinator(repro.FleetCoordinatorConfig{
		DataDir:          *data,
		HeartbeatTimeout: *heartbeat,
		StaleCheckpoint:  *stale,
		Logf:             func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbfleet coordinator: %v\n", err)
		return exitFailed
	}
	defer c.Close()
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbfleet coordinator: -listen %s: %v\n", *listen, err)
		return exitFailed
	}
	// The bound address is announced so -listen :0 is scriptable.
	fmt.Fprintf(os.Stderr, "gsbfleet: coordinator serving gsbfleet/v1 on http://%s\n", ln.Addr())
	srv := &http.Server{Handler: c.Handler()}
	ctx, cancel := signalContext()
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "gsbfleet coordinator: %v\n", err)
		return exitFailed
	case <-ctx.Done():
	}
	shutdownCtx, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	_ = srv.Shutdown(shutdownCtx)
	fmt.Fprintln(os.Stderr, "gsbfleet: coordinator stopped")
	return exitOK
}

func cmdWorker(args []string) int {
	fs := flag.NewFlagSet("gsbfleet worker", flag.ExitOnError)
	coord := fs.String("coordinator", "", "coordinator base URL (required, e.g. http://localhost:8600)")
	name := fs.String("name", "", "worker label (default: hostname)")
	work := fs.String("work", "", "scratch directory for shard snapshots (default: a temp dir)")
	poll := fs.Duration("poll", 500*time.Millisecond, "lease-poll interval while idle")
	fs.Parse(args)
	if *coord == "" {
		fmt.Fprintln(os.Stderr, "gsbfleet worker: -coordinator is required")
		return exitUsage
	}
	dir := *work
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "gsbfleet-worker-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "gsbfleet worker: %v\n", err)
			return exitFailed
		}
		defer os.RemoveAll(dir)
	}
	w, err := repro.NewFleetWorker(repro.FleetWorkerConfig{
		Coordinator: strings.TrimRight(*coord, "/"),
		Name:        *name,
		WorkDir:     dir,
		PollEvery:   *poll,
		Logf:        func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbfleet worker: %v\n", err)
		return exitFailed
	}
	ctx, cancel := signalContext()
	defer cancel()
	if err := w.Run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "gsbfleet worker: %v\n", err)
		return exitFailed
	}
	fmt.Fprintln(os.Stderr, "gsbfleet: worker drained")
	return exitOK
}

func cmdSubmit(args []string) int {
	fs := flag.NewFlagSet("gsbfleet submit", flag.ExitOnError)
	coord := fs.String("coordinator", "", "coordinator base URL (required)")
	var req repro.CampaignRequest
	req.BindFlags(fs)
	shards := fs.Int("shards", 1, "number of shards to deal the campaign as")
	wait := fs.Bool("wait", false, "poll until the campaign finishes and report its verdict")
	interval := fs.Duration("interval", time.Second, "poll interval for -wait")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON")
	fs.Parse(args)
	if *coord == "" {
		fmt.Fprintln(os.Stderr, "gsbfleet submit: -coordinator is required")
		return exitUsage
	}
	// A non-positive poll interval would hammer the coordinator.
	if *interval <= 0 {
		fmt.Fprintf(os.Stderr, "gsbfleet submit: -interval must be positive (got %v)\n", *interval)
		return exitUsage
	}
	sub := repro.FleetSubmission{
		Schema: repro.FleetSchema, Protocol: req.Protocol, N: req.N, Mode: req.Mode,
		Runs: req.Runs, PCTDepth: req.PCTDepth, CrashProb: req.CrashProb, Seed: req.Seed,
		Model: req.Model, Adversary: req.Adversary, MaxRuns: req.MaxRuns, MaxSteps: req.MaxSteps,
		Shards: *shards, CheckpointEvery: req.CheckpointEvery,
	}
	// Validate locally first: a typo is a usage error here, not a
	// round-trip to the coordinator.
	if err := sub.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "gsbfleet submit: %v\n", err)
		return exitUsage
	}
	cl := client(*coord)
	resp, err := cl.Submit(sub)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbfleet submit: %v\n", err)
		return exitFailed
	}
	if !*wait {
		if *jsonOut {
			_ = json.NewEncoder(os.Stdout).Encode(resp)
		} else {
			fmt.Printf("submitted %s (%d shards)\n", resp.ID, resp.Shards)
		}
		return exitOK
	}
	fmt.Fprintf(os.Stderr, "gsbfleet: submitted %s (%d shards), waiting\n", resp.ID, resp.Shards)
	for {
		st, err := cl.Campaign(resp.ID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gsbfleet submit: %v\n", err)
			return exitFailed
		}
		switch st.State {
		case "done", "failed":
			return reportCampaign(st, *jsonOut)
		}
		time.Sleep(*interval)
	}
}

// reportCampaign prints a terminal campaign status and maps it to an
// exit code the way gsbcampaign maps a report: 0 verified, 1 violation
// or failure.
func reportCampaign(st repro.FleetCampaignStatus, jsonOut bool) int {
	if jsonOut {
		_ = json.NewEncoder(os.Stdout).Encode(st)
	} else if st.State == "failed" {
		fmt.Printf("campaign %s FAILED: %s\n", st.ID, st.Error)
	} else if st.Violation != "" {
		fmt.Printf("campaign %s: VIOLATION after %d schedules: %s\n", st.ID, st.Report.Schedules, st.Violation)
	} else {
		fmt.Printf("campaign %s: verified, %d schedules (%d redeals)\n", st.ID, st.Report.Schedules, st.Redeals)
	}
	if st.State == "failed" || st.Violation != "" {
		return exitFailed
	}
	return exitOK
}

func cmdStatus(args []string) int {
	fs := flag.NewFlagSet("gsbfleet status", flag.ExitOnError)
	coord := fs.String("coordinator", "", "coordinator base URL (required)")
	jsonOut := fs.Bool("json", false, "emit the raw gsbfleetstatus/v1 JSON")
	watch := fs.Bool("watch", false, "redraw the fleet status until interrupted")
	interval := fs.Duration("interval", time.Second, "refresh interval for -watch")
	fs.Parse(args)
	if *coord == "" {
		fmt.Fprintln(os.Stderr, "gsbfleet status: -coordinator is required")
		return exitUsage
	}
	// A non-positive refresh interval would redraw without pause.
	if *interval <= 0 {
		fmt.Fprintf(os.Stderr, "gsbfleet status: -interval must be positive (got %v)\n", *interval)
		return exitUsage
	}
	cl := client(*coord)
	show := func() int {
		st, err := cl.Status()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gsbfleet status: %v\n", err)
			return exitFailed
		}
		if *jsonOut {
			_ = json.NewEncoder(os.Stdout).Encode(st)
		} else {
			fmt.Print(renderFleet(st))
		}
		return exitOK
	}
	if !*watch {
		return show()
	}
	ctx, cancel := signalContext()
	defer cancel()
	for {
		fmt.Print("\x1b[H\x1b[2J")
		if rc := show(); rc != exitOK {
			return rc
		}
		select {
		case <-ctx.Done():
			return exitOK
		case <-time.After(*interval):
		}
	}
}

// renderFleet formats a fleet status as an aligned text block.
func renderFleet(st repro.FleetStatus) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d workers, shards %d queued / %d running / %d done / %d failed, %d redeals, %d runs\n",
		len(st.Workers), st.Queued, st.Running, st.Done, st.Failed, st.Redeals, st.Runs)
	for _, w := range st.Workers {
		shard := w.Shard
		if shard == "" {
			shard = "idle"
		}
		fmt.Fprintf(&b, "  worker %-16s %-12s beat %.1fs ago\n", w.Name, shard, w.HeartbeatAgeSec)
	}
	for _, c := range st.Campaigns {
		fmt.Fprintf(&b, "  campaign %s %-8s %s mode=%s shards=%d runs=%d",
			c.ID, c.State, c.Task, c.Submission.Mode, len(c.Shards), c.Runs)
		if c.RunsPerSec > 0 && !c.Done {
			fmt.Fprintf(&b, " %.0f runs/s", c.RunsPerSec)
		}
		if c.ETASec > 0 && !c.Done {
			fmt.Fprintf(&b, " eta %s", (time.Duration(c.ETASec * float64(time.Second))).Round(time.Second))
		}
		if c.Redeals > 0 {
			fmt.Fprintf(&b, " redeals=%d", c.Redeals)
		}
		if c.Violation != "" {
			fmt.Fprintf(&b, " VIOLATION: %s", c.Violation)
		}
		if c.Error != "" {
			fmt.Fprintf(&b, " error: %s", c.Error)
		}
		b.WriteByte('\n')
		for _, sh := range c.Shards {
			fmt.Fprintf(&b, "    shard %d %-8s runs=%d redeals=%d", sh.Shard, sh.State, sh.Runs, sh.Redeals)
			if sh.Worker != "" {
				fmt.Fprintf(&b, " on %s", sh.Worker)
			}
			if sh.Error != "" {
				fmt.Fprintf(&b, " error: %s", sh.Error)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func cmdResult(args []string) int {
	fs := flag.NewFlagSet("gsbfleet result", flag.ExitOnError)
	coord := fs.String("coordinator", "", "coordinator base URL (required)")
	id := fs.String("id", "", "campaign id (required)")
	jsonOut := fs.Bool("json", false, "emit the full campaign status JSON")
	fs.Parse(args)
	if *coord == "" || *id == "" {
		fmt.Fprintln(os.Stderr, "gsbfleet result: -coordinator and -id are required")
		return exitUsage
	}
	st, err := client(*coord).Result(*id)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbfleet result: %v\n", err)
		return exitFailed
	}
	return reportCampaign(st, *jsonOut)
}

func cmdUpload(args []string) int {
	fs := flag.NewFlagSet("gsbfleet upload", flag.ExitOnError)
	coord := fs.String("coordinator", "", "coordinator base URL (required)")
	id := fs.String("id", "", "campaign id (required)")
	shard := fs.Int("shard", -1, "shard index the snapshot belongs to (required)")
	fs.Parse(args)
	if *coord == "" || *id == "" || *shard < 0 || fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "gsbfleet upload: need -coordinator, -id, -shard and one snapshot file")
		return exitUsage
	}
	resp, err := client(*coord).Upload(*id, *shard, "", fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsbfleet upload: %v\n", err)
		return exitFailed
	}
	fmt.Printf("imported %s shard %d at %d runs (done=%v)\n", *id, *shard, resp.Runs, resp.Done)
	return exitOK
}

// client is the gsbfleet/v1 client of the coordinator at base URL coord.
func client(coord string) *repro.FleetClient {
	return &repro.FleetClient{Base: strings.TrimRight(coord, "/")}
}
