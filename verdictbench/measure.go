package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// meter brackets one verdict interval: wall clock, process CPU time
// (user+sys from getrusage) and the heap-allocation count.
type meter struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
}

func startMeter() meter {
	return meter{wall: time.Now(), cpu: processCPU(), mallocs: mallocs()}
}

// stop returns the wall and CPU seconds and the allocations since start.
func (m meter) stop() (wallS, cpuS float64, allocs uint64) {
	wall := time.Since(m.wall)
	return wall.Seconds(), (processCPU() - m.cpu).Seconds(), mallocs() - m.mallocs
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM), so that
// peakRSSMiB reports the peak since the call. It fails on kernels without
// clear_refs, where a verdict's peak cannot be told from the process's;
// measure counts that as a failed check.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// goroutineGrace is how long settle waits for a closed session's
// goroutines (connection loops, timers firing late) to end.
const goroutineGrace = time.Second

// settle waits up to goroutineGrace for the goroutine count to fall to n,
// and returns the count it ends at.
func settle(n int) int {
	deadline := time.Now().Add(goroutineGrace)
	for {
		g := runtime.NumGoroutine()
		if g <= n || time.Now().After(deadline) {
			return g
		}
		time.Sleep(time.Millisecond)
	}
}

// peakRSSMiB is the resident set size's peak since resetPeakRSS.
func peakRSSMiB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kib / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// callTimer accumulates a per-call cost over millions of concurrent calls.
// Every call is counted; only one call in timerSample is timed, and the
// total is extrapolated, which keeps the clock reads from inflating the
// very cost being measured.
type callTimer struct {
	calls atomic.Int64
	timed atomic.Int64
	ns    atomic.Int64
}

const timerSample = 16

// begin counts a call and, for the sampled ones, returns its start time.
func (t *callTimer) begin() (start time.Time, sampled bool) {
	if t.calls.Add(1)%timerSample != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (t *callTimer) end(start time.Time) {
	t.ns.Add(int64(time.Since(start)))
	t.timed.Add(1)
}

// scale extrapolates a quantity summed over the sampled calls to all calls.
func (t *callTimer) scale(sampledSum float64) float64 {
	return ratio(sampledSum*float64(t.calls.Load()), float64(t.timed.Load()))
}

// total is the extrapolated time spent in all calls.
func (t *callTimer) total() time.Duration {
	return time.Duration(t.scale(float64(t.ns.Load())))
}

// span is one traced interval. Per-run work (millions of build and verify
// calls) is not a span; it is summed into its instance span as Count and
// TotalS.
type span struct {
	ID       int     `json:"id"`
	Name     string  `json:"name"`
	Start    float64 `json:"start"` // seconds since the trace began
	End      float64 `json:"end"`
	Parent   int     `json:"parent"` // 0: root
	Workload string  `json:"workload"`
	Count    int64   `json:"count,omitempty"`
	TotalS   float64 `json:"total_s,omitempty"`
}

// tracer records spans in memory; write dumps them as JSON lines. A nil
// *tracer is an untraced run: every method is a no-op.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: parent, Workload: t.workload,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
	return id
}

// begin opens a span; finish closes it.
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = time.Since(t.t0).Seconds()
	t.mu.Unlock()
}

// sum attaches a count and total duration of per-run calls to a span.
func (t *tracer) sum(id int, name string, c *callTimer) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.spans[id-1]
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Name: name, Parent: id, Workload: t.workload,
		Start: parent.Start, End: parent.End,
		Count: c.calls.Load(), TotalS: c.total().Seconds(),
	})
}

// write dumps the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// median of xs (the mean of the middle two for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailLadder is the percentiles, in tenths of a percent, a tail latency
// is reported at: p50, p90, p99 and p99.9.
var tailLadder = []int{500, 900, 990, 999}

// tail reports the highest percentile of tailLadder that has at least ten
// samples beyond it (nearest rank), its value, and the sample count. With
// fewer than 20 samples no percentile qualifies and pct is 0.
func tail(xs []float64) (pct, value float64, n int) {
	n = len(xs)
	best := 0
	for _, pm := range tailLadder {
		if n*(1000-pm) >= 10*1000 {
			best = pm
		}
	}
	if best == 0 {
		return 0, 0, n
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := (best*n + 999) / 1000 // ceil(best/1000 * n), 1-based
	return float64(best) / 10, s[rank-1], n
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
