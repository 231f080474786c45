package stats

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrency hammers one registry from 1/2/8 goroutines (run
// under -race in CI) and checks the totals are exact.
func TestRegistryConcurrency(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			r := New()
			const perWorker = 10000
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Handles resolved per goroutine: registration must be
					// idempotent and race-free.
					c := r.Counter("gsb_runs_total", "runs")
					g := r.Gauge("gsb_frontier_depth", "depth")
					h := r.Histogram("gsb_checkpoint_write_seconds", "latency", nil)
					for i := 0; i < perWorker; i++ {
						c.Inc()
						g.Set(int64(i))
						h.Observe(0.002)
					}
				}(w)
			}
			wg.Wait()
			want := int64(workers * perWorker)
			if got := r.Counter("gsb_runs_total", "").Value(); got != want {
				t.Fatalf("counter = %d, want %d", got, want)
			}
			h := r.Histogram("gsb_checkpoint_write_seconds", "", nil)
			if h.Count() != want {
				t.Fatalf("histogram count = %d, want %d", h.Count(), want)
			}
			if wantSum := 0.002 * float64(want); h.Sum() < wantSum*0.999 || h.Sum() > wantSum*1.001 {
				t.Fatalf("histogram sum = %g, want ~%g", h.Sum(), wantSum)
			}
		})
	}
}

// TestHotPathZeroAllocs pins the publishing operations at zero
// allocations: these run once per engine run (>10^5/sec), so any
// allocation here would show up in the gsbbench allocs gauge. The
// nil-registry input is observability off: its handles are nil and
// publishing through them is a no-op, also at zero allocations.
func TestHotPathZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    *Registry
	}{{"registry", New()}, {"nil-registry", nil}} {
		c := tc.r.Counter("c", "")
		g := tc.r.Gauge("g", "")
		h := tc.r.Histogram("h", "", nil)
		if off := tc.r == nil; off != (c == nil) || off != (g == nil) || off != (h == nil) {
			t.Fatalf("%s: handles (%p, %p, %p), want all nil exactly when the registry is nil", tc.name, c, g, h)
		}
		if n := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(2) }); n != 0 {
			t.Fatalf("%s: counter ops allocate %v/op, want 0", tc.name, n)
		}
		if n := testing.AllocsPerRun(1000, func() { g.Set(7); g.Add(-1) }); n != 0 {
			t.Fatalf("%s: gauge ops allocate %v/op, want 0", tc.name, n)
		}
		if n := testing.AllocsPerRun(1000, func() { h.Observe(0.01) }); n != 0 {
			t.Fatalf("%s: histogram observe allocates %v/op, want 0", tc.name, n)
		}
		if tc.r != nil && (c.Value() != 3*1001 || g.Value() != 6 || h.Count() != 1001) {
			t.Fatalf("%s: (counter, gauge, observations) = (%d, %d, %d), want (3003, 6, 1001)", tc.name, c.Value(), g.Value(), h.Count())
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("requesting counter name as gauge did not panic")
		}
	}()
	r.Gauge("x", "")
}

// TestWritePrometheus is a golden test for the text exposition rendering.
func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("gsb_runs_total", "Runs executed.").Add(42)
	r.Gauge("gsb_frontier_depth", "Pending frontier prefixes.").Set(7)
	h := r.Histogram("gsb_checkpoint_write_seconds", "Checkpoint write latency.", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP gsb_runs_total Runs executed.
# TYPE gsb_runs_total counter
gsb_runs_total 42
# HELP gsb_frontier_depth Pending frontier prefixes.
# TYPE gsb_frontier_depth gauge
gsb_frontier_depth 7
# HELP gsb_checkpoint_write_seconds Checkpoint write latency.
# TYPE gsb_checkpoint_write_seconds histogram
gsb_checkpoint_write_seconds_bucket{le="0.01"} 1
gsb_checkpoint_write_seconds_bucket{le="0.1"} 2
gsb_checkpoint_write_seconds_bucket{le="+Inf"} 3
gsb_checkpoint_write_seconds_sum 0.555
gsb_checkpoint_write_seconds_count 3
`
	if got := b.String(); got != want {
		t.Fatalf("prometheus output mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestSnapshotRestoreRoundTrip checks the checkpoint path: snapshot →
// JSON → restore into a fresh registry reproduces every total, and a
// second restore doubles counters (restore adds, making resumed lives
// cumulative) while gauges stay set.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	r := New()
	r.Counter("gsb_runs_total", "").Add(100)
	r.Gauge("gsb_frontier_depth", "").Set(9)
	h := r.Histogram("gsb_checkpoint_write_seconds", "", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)

	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}

	fresh := New()
	fresh.Restore(snap)
	if got := fresh.Counter("gsb_runs_total", "").Value(); got != 100 {
		t.Fatalf("restored counter = %d, want 100", got)
	}
	if got := fresh.Gauge("gsb_frontier_depth", "").Value(); got != 9 {
		t.Fatalf("restored gauge = %d, want 9", got)
	}
	h2 := fresh.Histogram("gsb_checkpoint_write_seconds", "", nil)
	if h2.Count() != 2 || h2.Sum() != 0.055 {
		t.Fatalf("restored histogram = (%d, %g), want (2, 0.055)", h2.Count(), h2.Sum())
	}

	fresh.Restore(snap)
	if got := fresh.Counter("gsb_runs_total", "").Value(); got != 200 {
		t.Fatalf("double-restored counter = %d, want 200 (restore must add)", got)
	}
	if got := fresh.Gauge("gsb_frontier_depth", "").Value(); got != 9 {
		t.Fatalf("double-restored gauge = %d, want 9 (restore must set)", got)
	}
}

// TestSnapshotAdd checks shard-merge summing: every kind of metric is
// summed, so the order of the shards does not matter.
func TestSnapshotAdd(t *testing.T) {
	a := Snapshot{
		Counters:   map[string]int64{"gsb_runs_total": 10, "gsb_steals_total": 1},
		Gauges:     map[string]int64{"gsb_frontier_depth": 3},
		Histograms: map[string]HistogramSnapshot{"h": {Bounds: []float64{1}, Counts: []int64{2, 0}, Sum: 0.5, Count: 2}},
	}
	b := Snapshot{
		Counters:   map[string]int64{"gsb_runs_total": 5},
		Gauges:     map[string]int64{"gsb_frontier_depth": 8},
		Histograms: map[string]HistogramSnapshot{"h": {Bounds: []float64{1}, Counts: []int64{1, 1}, Sum: 2.5, Count: 2}},
	}
	sum := a.Add(b)
	if sum.Counters["gsb_runs_total"] != 15 || sum.Counters["gsb_steals_total"] != 1 {
		t.Fatalf("counters = %v", sum.Counters)
	}
	if sum.Gauges["gsb_frontier_depth"] != 11 {
		t.Fatalf("gauge merge = %d, want 11 (3+8)", sum.Gauges["gsb_frontier_depth"])
	}
	h := sum.Histograms["h"]
	if h.Count != 4 || h.Sum != 3.0 || h.Counts[0] != 3 || h.Counts[1] != 1 {
		t.Fatalf("histogram merge = %+v", h)
	}
	if ab, ba := Sum(a, b), Sum(b, a); !reflect.DeepEqual(ab, ba) {
		t.Fatalf("Sum(a, b) = %+v, Sum(b, a) = %+v", ab, ba)
	}
}

// TestSnapshotOfEmptyRegistry ensures an empty snapshot marshals to {}
// and restores as a no-op.
func TestSnapshotOfEmptyRegistry(t *testing.T) {
	raw, err := json.Marshal(New().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "{}" {
		t.Fatalf("empty snapshot = %s, want {}", raw)
	}
	New().Restore(Snapshot{})
}
