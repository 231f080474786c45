package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests check the
// program against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// checkMetrics asserts that got holds exactly the listed metrics, with
// their units and finite values.
func checkMetrics(t *testing.T, what string, want []struct{ Name, Unit string }, got map[string]metricValue) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", what, m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", what, m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: metric %s = %v", what, m.Name, v.Value)
		}
	}
}

// TestWorkloads runs each workload function on a tiny instance and checks
// that a run passes its output checks and emits every metric
// BENCHMARK.json lists, plus the metrics of the layers it exercises.
func TestWorkloads(t *testing.T) {
	bench := readBenchmark(t)
	if got, want := len(bench.Workloads), len(workloads); got != want {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", got, want)
	}
	for _, w := range bench.Workloads {
		if !slices.ContainsFunc(workloads, func(x workload) bool { return x.name == w.Name }) {
			t.Errorf("BENCHMARK.json workload %s is not in the program", w.Name)
		}
	}
	cases := []struct {
		name  string
		setUp func(env) (session, error)
		// active are per-layer metrics the workload must move off zero.
		active []string
	}{
		{"exhaustive", census([]instance{{"wsb", 3, "", 90}}, repro.ReductionNone),
			[]string{"tasks.build_calls", "tasks.verify_s", "runner.steps", "runner.ns_per_step", "engine.runs", "engine.schedules"}},
		{"por", census([]instance{{"slot-renaming", 2, "", 8}}, repro.ReductionSleepSets),
			[]string{"tasks.build_calls", "engine.aborts", "engine.useful_ratio"}},
		{"walk", walkCampaign(walkConfig{protocol: "slot-renaming", n: 6, runs: 2000, every: 500, classes: 2000}),
			[]string{"sample.runs", "sample.verdict_s", "campaign.checkpoints", "campaign.checkpoint_s", "campaign.bytes_last", "timeline.records"}},
		{"fleet", fleet(testFleet),
			[]string{"fleet.requests", "fleet.uploads", "fleet.upload_ms.p50", "fleet.redeal_s", "fleet.detect_s", "fleet.single_verdict_s", "engine.runs"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := workload{name: c.name, setUp: c.setUp}
			plain, traced := measure(w, env{seed: 1, dir: t.TempDir()}, 0, newTracer(c.name), io.Discard)
			res, problems := summarize(plain, traced)
			for _, p := range problems {
				t.Error(p)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < len(plain)+len(traced) {
				t.Fatalf("correct %v, %d of %d operations failed", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, "end-to-end", bench.EndToEnd, endToEndMetrics(plain, []float64{0.01}))
			layers := layerMetrics(plain, traced)
			checkMetrics(t, "per-layer", bench.PerLayer, layers)
			for _, name := range c.active {
				if layers[name].Value <= 0 {
					t.Errorf("per-layer %s = %v, want > 0 on this workload", name, layers[name].Value)
				}
			}
		})
	}
}

// testFleet is fleet-redeal at test speed: a small instance checkpointing
// often enough that the victim dies mid-shard.
var testFleet = fleetConfig{
	protocol: "wsb", n: 4, mode: "exhaustive", reduction: repro.ReductionNone,
	shards: 2, every: 2,
	heartbeatTimeout: 300 * time.Millisecond, reconcileEvery: 10 * time.Millisecond, pollEvery: 10 * time.Millisecond,
	schedules: 2520,
}

// TestTamperedCountFails: a verdict whose count differs from the pinned one
// is a failed operation, and fails the run.
func TestTamperedCountFails(t *testing.T) {
	s, err := census([]instance{{"wsb", 3, "", 91}}, repro.ReductionNone)(env{seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	it := s.verdict(nil, 0)
	if it.failed != 1 || it.attempted != 1 || len(it.problems) != 1 || !strings.Contains(it.problems[0], "want 91") {
		t.Fatalf("tampered count: %d of %d failed, problems %q", it.failed, it.attempted, it.problems)
	}
	if res, _ := summarize([]iteration{it}, nil); res.Correct || res.Failed != 1 {
		t.Errorf("run with a tampered count: correct %v, failed %d", res.Correct, res.Failed)
	}
}

// leakySession leaves a goroutine running after close, as a session that
// failed to stop its workers would.
type leakySession struct{ release chan struct{} }

func (s leakySession) verdict(*tracer, int) iteration {
	var it iteration
	it.op(true, "")
	return it
}

func (s leakySession) close() { go func() { <-s.release }() }

// TestLeakedGoroutineFails: a verdict whose goroutines outlive its session
// fails, and the run stops there.
func TestLeakedGoroutineFails(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	w := workload{name: "leaky", setUp: func(env) (session, error) { return leakySession{release}, nil }}
	plain, _ := measure(w, env{seed: 1, dir: t.TempDir()}, 0, nil, io.Discard)
	res, problems := summarize(plain, nil)
	if len(plain) != 1 || res.Correct || res.Failed != 1 || len(problems) != 1 || !strings.Contains(problems[0], "goroutines still running") {
		t.Errorf("leaked goroutine: %d verdicts, correct %v, %d failed, problems %q", len(plain), res.Correct, res.Failed, problems)
	}
}

// TestCountDriftFails: verdicts of one run that disagree fail the run.
func TestCountDriftFails(t *testing.T) {
	res, problems := summarize([]iteration{{counts: []int{1, 2}, attempted: 1}, {counts: []int{1, 3}, attempted: 1}}, nil)
	if res.Correct || res.Failed != 1 || res.Attempted != 3 || len(problems) != 1 {
		t.Errorf("drifting counts: correct %v, %d of %d failed, problems %q", res.Correct, res.Failed, res.Attempted, problems)
	}
}

func TestTail(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		pct, want float64
	}{
		{0, 0, 0},
		{19, 0, 0},
		{20, 50, 10},
		{99, 50, 50},
		{100, 90, 90},
		{999, 90, 900},
		{1000, 99, 990},
		{10000, 99.9, 9990},
	} {
		pct, v, n := tail(samples(c.n))
		if pct != c.pct || v != c.want || n != c.n {
			t.Errorf("tail of %d samples = p%v %v (n %d), want p%v %v", c.n, pct, v, n, c.pct, c.want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "por-census", "--trace", "2"},
		{"--seed", "x"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run %v = %d, want 2", args, code)
		}
	}
}
