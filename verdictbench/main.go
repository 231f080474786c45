// Command verdictbench measures the time users of this repository wait
// for a verdict on a GSB-task protocol: one-shot exhaustive and
// partial-order-reduced model checking, a durable checkpointed campaign,
// and a distributed fleet that loses a worker on the way. Each call runs
// one workload and prints one JSON result as its last line of output:
//
//	verdictbench --workload NAME --seed N --seconds S --trace 0|1
//
// The workloads are exhaustive-census, por-census, campaign-walk and
// fleet-redeal (README.md says why each exists). Every input derives from
// the seed. A run repeats the workload's verdict for about S seconds and
// reports medians; times are calibrated by a reference computation timed
// around each verdict (reference.go), which cancels the host's drifting
// speed. With --trace 0 it reports the end-to-end metrics; with --trace 1
// it alternates plain and instrumented verdicts, reports the per-layer
// metrics of the instrumented ones, and writes their spans as JSON lines
// under .bench_build/traces/. Each layer is measured from outside, by
// timing calls into the repository's public API; no code outside this
// directory is instrumented.
//
// The result holds "correct", "attempted" and "failed" (every verdict's
// counts are checked, and on the fleet every HTTP request that fails
// counts too) and "metrics", each a value with its unit. The line before
// it records the host (nproc, GOMAXPROCS, the Go version and platform) and
// the raw median times. The engine runs on benchWorkers workers at
// GOMAXPROCS benchWorkers; numbers are not to be extrapolated to other
// core counts. The exit status is 1 when any check failed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"repro"
)

// benchWorkers is the engine's worker count and the process's GOMAXPROCS:
// the core count of the host the benchmark was defined on.
const benchWorkers = 2

// setupProbes is how many child processes time the set-up.
const setupProbes = 15

// minIterations is the least number of verdicts a run measures, whatever
// its window.
const minIterations = 3

// runDir holds each run's scratch files and traceDir the traced runs'
// spans, both relative to the working directory (the checkout's root).
const (
	runDir   = ".bench_build/run"
	traceDir = ".bench_build/traces"
)

type workload struct {
	name  string
	setUp func(env) (session, error)
}

var workloads = []workload{
	{"exhaustive-census", census(exhaustiveInstances, repro.ReductionNone)},
	{"por-census", census(porInstances, repro.ReductionSleepSets)},
	{"campaign-walk", walkCampaign(campaignWalk)},
	{"fleet-redeal", fleet(fleetRedeal)},
}

// env is what a workload's set-up receives: the seed every input derives
// from, and a scratch directory.
type env struct {
	seed int64
	dir  string
}

// A session is a set-up workload, ready for its first engine call (the
// set-up is what setup_s times). verdict runs the workload once; a traced
// verdict (non-nil tracer) also reports per-layer metrics, measured after
// the timed interval where they need extra work. close releases the
// session, waiting for everything it started.
type session interface {
	verdict(tr *tracer, parent int) iteration
	close()
}

// iteration is the outcome of one verdict.
type iteration struct {
	verdictS, cpuS float64
	allocs         uint64
	peakRSSMiB     float64
	// waitS is the part of verdictS spent waiting out a timer (the fleet's
	// heartbeat timeout), which the host's speed does not scale.
	waitS float64
	// refS and refCPUS time the reference runs around the verdict.
	refS, refCPUS float64
	// units is the allocs_per_run denominator: verified schedules (trace
	// classes under reduction) or sampled runs.
	units int
	// counts are the verdict's deterministic outputs; every iteration of a
	// run must report the same.
	counts            []int
	attempted, failed int
	problems          []string
	layers            map[string]float64
}

// op records one attempted operation and whether it succeeded.
func (it *iteration) op(ok bool, format string, args ...any) {
	it.attempted++
	if !ok {
		it.failed++
		it.problems = append(it.problems, fmt.Sprintf(format, args...))
	}
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are what a user waits for and pays; every untraced run reports
// all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"verdict_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"allocs_per_run", "allocs/run"},
}

// perLayer are the traced run's metrics. Every traced run reports all of
// them; a layer its workload bypasses reads 0.
var perLayer = []metricDef{
	{"tasks.build_calls", "count"},
	{"tasks.build_s", "s"},
	{"tasks.verify_calls", "count"},
	{"tasks.verify_s", "s"},
	{"tasks.share", "ratio"},
	{"runner.steps", "count"},
	{"runner.ns_per_step", "ns"},
	{"runner.allocs_per_step", "allocs/step"},
	{"runner.share", "ratio"},
	{"engine.runs", "count"},
	{"engine.schedules", "count"},
	{"engine.aborts", "count"},
	{"engine.steals", "count"},
	{"engine.useful_ratio", "ratio"},
	{"engine.self_share", "ratio"},
	{"sample.runs", "count"},
	{"sample.classes", "count"},
	{"sample.verdict_s", "s"},
	{"sample.share", "ratio"},
	{"campaign.self_s", "s"},
	{"campaign.share", "ratio"},
	{"campaign.checkpoints", "count"},
	{"campaign.checkpoint_s", "s"},
	{"campaign.checkpoint_share", "ratio"},
	{"campaign.bytes_last", "bytes"},
	{"campaign.bytes_written", "bytes"},
	{"timeline.records", "count"},
	{"timeline.bytes", "bytes"},
	{"fleet.requests", "count"},
	{"fleet.http_errors", "count"},
	{"fleet.uploads", "count"},
	{"fleet.upload_ms.p50", "ms"},
	{"fleet.upload_ms.tail", "ms"},
	{"fleet.upload_ms.tail_pct", "%"},
	{"fleet.upload_bytes", "bytes"},
	{"fleet.lease_ms.p50", "ms"},
	{"fleet.heartbeat_ms.p50", "ms"},
	{"fleet.rejected_uploads", "count"},
	{"fleet.redeal_s", "s"},
	{"fleet.detect_s", "s"},
	{"fleet.resume_s", "s"},
	{"fleet.merge_s", "s"},
	{"fleet.single_verdict_s", "s"},
	{"fleet.speedup", "ratio"},
	{"trace.overhead", "ratio"},
	{"residual_share", "ratio"},
	{"raw.verdict_s", "s"},
	{"raw.cpu_s", "s"},
	{"raw.ref_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("verdictbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed every input derives from")
	seconds := fs.Float64("seconds", 20, "how long to repeat the verdict")
	trace := fs.Int("trace", 0, "1: a traced run, reporting the per-layer metrics")
	probe := fs.Bool("setup-probe", false, "set the workload up, print ready, and exit (the child process setup_s times)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "verdictbench: need --workload (%s) and --trace 0 or 1\n", workloadNames())
		return 2
	}
	w := workloads[i]
	runtime.GOMAXPROCS(benchWorkers)
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "verdictbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(runDir, w.name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "verdictbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := env{seed: *seed, dir: dir}

	if *probe {
		s, err := w.setUp(e)
		if err != nil {
			fmt.Fprintf(stderr, "verdictbench: set-up: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		s.close()
		return 0
	}

	var setup []float64
	var tr *tracer
	if *trace == 1 {
		tr = newTracer(w.name)
	} else if setup, err = timeSetUp(args, stderr); err != nil {
		fmt.Fprintf(stderr, "verdictbench: %v\n", err)
		return 1
	}
	plain, traced := measure(w, e, time.Duration(*seconds*float64(time.Second)), tr, stderr)

	res, problems := summarize(plain, traced)
	if tr == nil {
		res.Metrics = endToEndMetrics(plain, setup)
	} else {
		res.Metrics = layerMetrics(plain, traced)
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(stderr, "verdictbench: trace: %v\n", err)
			return 1
		}
	}
	for _, p := range problems {
		fmt.Fprintf(stderr, "verdictbench: %s: check failed: %s\n", w.name, p)
	}
	host, _ := json.Marshal(map[string]any{
		"workload": w.name, "seed": *seed, "iterations": len(plain), "traced_iterations": len(traced),
		"verdict_s": medianOf(plain, verdictS), "cpu_s": medianOf(plain, cpuS), "ref_s": medianOf(plain, refS),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
	})
	fmt.Fprintf(stdout, "%s\n", host)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "verdictbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// timeSetUp runs this program setupProbes times as a set-up probe and
// returns each probe's time from process start to "ready": the runtime's
// start, the workload's set-up and, for the fleet, the workers'
// registration.
func timeSetUp(args []string, stderr io.Writer) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var times []float64
	for range setupProbes {
		cmd := exec.Command(exe, append(slices.Clone(args), "--setup-probe")...)
		cmd.Stderr = stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		took := time.Since(start).Seconds()
		_, _ = io.Copy(io.Discard, out)
		werr := cmd.Wait()
		if rerr != nil || line != "ready\n" || werr != nil {
			return nil, fmt.Errorf("set-up probe: read %q (%v), exit %v", line, rerr, werr)
		}
		times = append(times, took)
	}
	return times, nil
}

// measure repeats the workload's verdict until the window is spent, and at
// least minIterations times; it stops at the first verdict with a failed
// check. A traced run alternates plain and traced
// verdicts, so both see the same machine state. A reference run precedes
// the first verdict and follows each one; a verdict's reference time is
// the mean of the two around it.
func measure(w workload, e env, window time.Duration, tr *tracer, log io.Writer) (plain, traced []iteration) {
	root := tr.begin("workload", 0)
	defer tr.finish(root)
	start := time.Now()
	var plainS, tracedS []float64 // wall time of whole iterations, to predict the next
	refS, refCPUS := reference()
	for i := 0; ; i++ {
		withTrace := tr != nil && i%2 == 1
		t0 := time.Now()
		// Every verdict starts from a collected heap returned to the
		// system, as in a fresh process, and measures its own peak RSS.
		runtime.GC()
		debug.FreeOSMemory()
		rssErr := resetPeakRSS()
		goroutines := runtime.NumGoroutine()
		var it iteration
		s, err := w.setUp(e)
		if err != nil {
			it.op(false, "set-up: %v", err)
		} else {
			if withTrace {
				id := tr.begin("verdict", root)
				it = s.verdict(tr, id)
				tr.finish(id)
			} else {
				it = s.verdict(nil, 0)
			}
			s.close()
			// The reference below must not share the machine with
			// anything the verdict left running.
			if left := settle(goroutines); left > goroutines {
				it.op(false, "%d goroutines still running %v after the session closed, %d before its set-up", left, goroutineGrace, goroutines)
			}
		}
		if rssErr != nil {
			// A lifetime peak would carry earlier verdicts' peaks over.
			it.op(false, "peak_rss_mb: cannot reset the peak resident set: %v", rssErr)
		}
		it.peakRSSMiB = peakRSSMiB()
		runtime.GC()
		nextS, nextCPUS := reference()
		it.refS, it.refCPUS = (refS+nextS)/2, (refCPUS+nextCPUS)/2
		refS, refCPUS = nextS, nextCPUS
		took := time.Since(t0).Seconds()
		fmt.Fprintf(log, "verdictbench: %s verdict %d (traced %v): %.3fs wall (%.3fs waiting), %.3fs cpu, %d allocs, %d failed; reference %.3fs wall, %.3fs cpu; %.1fs in all\n",
			w.name, i, withTrace, it.verdictS, it.waitS, it.cpuS, it.allocs, it.failed, it.refS, it.refCPUS, took)
		if withTrace {
			traced = append(traced, it)
			tracedS = append(tracedS, took)
		} else {
			plain = append(plain, it)
			plainS = append(plainS, took)
		}
		if it.failed > 0 {
			// The run is wrong already; more verdicts would not right it.
			return plain, traced
		}
		next := median(plainS)
		if tr != nil && !withTrace {
			next = median(tracedS)
		}
		enough := len(plain) >= minIterations && (tr == nil || len(traced) >= minIterations)
		if enough && time.Since(start).Seconds()+next > window.Seconds() {
			return plain, traced
		}
	}
}

// summarize counts operations, checks that every verdict reported the same
// counts, and collects what failed.
func summarize(plain, traced []iteration) (result, []string) {
	var res result
	var problems []string
	all := append(slices.Clone(plain), traced...)
	for _, it := range all {
		res.Attempted += it.attempted
		res.Failed += it.failed
		problems = append(problems, it.problems...)
	}
	for _, it := range all[1:] {
		if !slices.Equal(it.counts, all[0].counts) {
			res.Failed++
			res.Attempted++
			problems = append(problems, fmt.Sprintf("counts drifted between verdicts: %v then %v", all[0].counts, it.counts))
			break
		}
	}
	res.Correct = res.Failed == 0
	return res, problems
}

// medianOf is the median of f over the iterations.
func medianOf(its []iteration, f func(iteration) float64) float64 {
	xs := make([]float64, len(its))
	for i, it := range its {
		xs[i] = f(it)
	}
	return median(xs)
}

func verdictS(it iteration) float64 { return it.verdictS }
func cpuS(it iteration) float64     { return it.cpuS }
func refS(it iteration) float64     { return it.refS }

// calibratedVerdict is a verdict's time in seconds on the host the
// benchmark was defined on: the part the host's speed scales, over the
// reference beside it, times the reference's usual time; plus the time
// spent waiting out timers, as measured.
func calibratedVerdict(it iteration) float64 {
	return ratio(it.verdictS-it.waitS, it.refS)*refHostS + it.waitS
}

// endToEndMetrics reports medians over the plain verdicts. The times are
// calibrated by the reference (reference.go): each verdict's by the
// reference runs around it (all but its timer waits, see
// calibratedVerdict), the set-up probes' by the run's median reference.
func endToEndMetrics(plain []iteration, setup []float64) map[string]metricValue {
	v := map[string]float64{
		"setup_s":        median(setup) * refHostS / medianOf(plain, refS),
		"verdict_s":      medianOf(plain, calibratedVerdict),
		"cpu_s":          medianOf(plain, func(it iteration) float64 { return it.cpuS / it.refCPUS }) * refHostCPUS,
		"peak_rss_mb":    medianOf(plain, func(it iteration) float64 { return it.peakRSSMiB }),
		"allocs_per_run": medianOf(plain, func(it iteration) float64 { return ratio(float64(it.allocs), float64(it.units)) }),
	}
	return withUnits(endToEnd, v)
}

// layerMetrics reports each per-layer metric's median over the traced
// verdicts; the tracing overhead, comparing traced and plain verdicts each
// calibrated by its reference runs; and the plain verdicts' raw times.
func layerMetrics(plain, traced []iteration) map[string]metricValue {
	v := map[string]float64{}
	for _, d := range perLayer {
		v[d.name] = medianOf(traced, func(it iteration) float64 { return it.layers[d.name] })
	}
	v["trace.overhead"] = ratio(medianOf(traced, calibratedVerdict), medianOf(plain, calibratedVerdict)) - 1
	v["raw.verdict_s"] = medianOf(plain, verdictS)
	v["raw.cpu_s"] = medianOf(plain, cpuS)
	v["raw.ref_s"] = medianOf(plain, refS)
	return withUnits(perLayer, v)
}

// withUnits attaches units; a non-finite value (a bug) reads as 0.
func withUnits(defs []metricDef, v map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		x := v[d.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[d.name] = metricValue{Value: x, Unit: d.unit}
	}
	return out
}
