// Package stats is the engine observability registry: a low-overhead
// collection of named counters, gauges and histograms that the
// exploration/POR engine, the seeded-run pool, the samplers and the
// campaign checkpointer publish into while a verification runs.
//
// The design constraints come from the hot path they instrument (the
// runner executes >10^5 runs/sec with zero steady-state allocations):
//
//   - Registration is the only synchronized, allocating operation.
//     Callers resolve a metric handle once — Registry.Counter and friends
//     are idempotent by name — and publish through the handle.
//   - Publishing (Counter.Inc/Add, Gauge.Set/Add, Histogram.Observe) is
//     one or two atomic operations and allocates nothing, pinned by
//     testing.AllocsPerRun in the package tests.
//   - A nil handle is the off switch. A nil *Registry hands out nil
//     handles, and every publishing method returns at once on a nil
//     receiver, so callers resolve and publish without guards: one
//     predictable branch when observability is off, one atomic add when
//     it is on.
//   - The whole registry is serializable: Snapshot renders every metric
//     to a plain JSON value, Restore folds a snapshot back into the live
//     metrics, and Snapshot.Add sums snapshots, gauges included. That is
//     what lets a campaign checkpoint its counters, a resumed campaign
//     keep reporting cumulative (not per-process-life) totals, and a
//     shard merge or the fleet sum its shards' totals and levels.
//
// Rendering is Prometheus text exposition format (WritePrometheus), so a
// `-metrics` endpoint needs no client library; internal/campaign builds
// the /metrics and /status HTTP endpoints on top of this package, and
// docs/metrics.md is the reference for every metric the engines register.
package stats

import (
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing metric (runs executed, steals,
// checkpoint writes). All methods are safe for concurrent use and the
// publishing methods (Inc, Add) never allocate; on a nil *Counter they
// do nothing.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1 to the counter.
//
//gsb:hotpath
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds delta to the counter. Counters are monotone by convention;
// Restore uses Add internally, so negative deltas are not rejected, but
// engine code must never pass one.
//
//gsb:hotpath
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// A Gauge is a point-in-time level (frontier depth, last snapshot size).
// All methods are safe for concurrent use and never allocate; the
// publishing methods (Set, Add) do nothing on a nil *Gauge.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
//
//gsb:hotpath
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta.
//
//gsb:hotpath
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// A Histogram accumulates observations (checkpoint write latencies) into
// fixed buckets chosen at registration. Observe is lock-free — a bucket
// increment, a count increment and a CAS loop for the sum — never
// allocates, and does nothing on a nil *Histogram.
type Histogram struct {
	bounds  []float64 // immutable upper bounds, ascending; +Inf implied
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the observation sum
}

// DefBuckets are the default histogram bounds, in seconds: sized for
// checkpoint write latencies from sub-millisecond tmpfs writes to
// multi-second snapshots of saturated coverage maps.
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Observe records one observation.
//
//gsb:hotpath
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

// addSum adds v to the observation sum with a compare-and-swap loop.
//
//gsb:hotpath
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// metric is one registered metric: a name, a help line, and exactly one
// of the three kinds.
type metric struct {
	name string
	help string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

func (m metric) kind() string {
	switch {
	case m.c != nil:
		return "counter"
	case m.g != nil:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry is an ordered set of named metrics. The zero value is not
// usable; call New. A nil *Registry is observability off: its Counter,
// Gauge and Histogram return nil handles, which publish nowhere.
// Registration is idempotent by name: asking twice for the same name
// (with the same kind) returns the same handle, which is what lets
// independent engine slices resolve their handles without coordinating.
// Asking for an existing name with a different kind panics — that is a
// programming error, not a runtime condition.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	byName  map[string]int
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// register returns the metric called name, registering the one mk makes
// when the name is new. Asking for an existing name with another kind
// panics.
func (r *Registry) register(name, help, kind string, mk func(*metric)) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byName[name]; ok {
		m := r.metrics[i]
		if m.kind() != kind {
			panic(fmt.Sprintf("stats: metric %q registered as %s, requested as %s", name, m.kind(), kind))
		}
		return m
	}
	m := metric{name: name, help: help}
	mk(&m)
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
	return m
}

// Counter registers (or fetches) the counter called name; nil on a nil
// registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, "counter", func(m *metric) { m.c = &Counter{} }).c
}

// Gauge registers (or fetches) the gauge called name; nil on a nil
// registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, "gauge", func(m *metric) { m.g = &Gauge{} }).g
}

// Histogram registers (or fetches) the histogram called name with the
// given bucket upper bounds (ascending; a +Inf bucket is implicit; nil
// means DefBuckets); nil on a nil registry. The bounds of an
// already-registered histogram win — re-registration never resizes live
// buckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, "histogram", func(m *metric) {
		if bounds == nil {
			bounds = DefBuckets
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("stats: histogram %q bounds not ascending: %v", name, bounds))
			}
		}
		m.h = &Histogram{
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]atomic.Int64, len(bounds)+1),
		}
	}).h
}

// snapshotLocked returns a copy of the metric list; rendering and
// snapshotting read metric values outside the lock (the handles are
// atomic) so a slow writer never blocks publishers.
func (r *Registry) list() []metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]metric(nil), r.metrics...)
}

// WritePrometheus renders every metric in Prometheus text exposition
// format (text/plain; version=0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, m := range r.list() {
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind()); err != nil {
			return err
		}
		var err error
		switch {
		case m.c != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.c.Value())
		case m.g != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.g.Value())
		case m.h != nil:
			cum := int64(0)
			for i, b := range m.h.bounds {
				cum += m.h.buckets[i].Load()
				if _, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.name, formatBound(b), cum); err != nil {
					return err
				}
			}
			cum += m.h.buckets[len(m.h.bounds)].Load()
			if _, err = fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum); err != nil {
				return err
			}
			if _, err = fmt.Fprintf(w, "%s_sum %g\n", m.name, m.h.Sum()); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s_count %d\n", m.name, m.h.Count())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func formatBound(b float64) string {
	return fmt.Sprintf("%g", b)
}

// HistogramSnapshot is the serializable state of one histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds (+Inf implicit); Counts has one
	// entry per bucket plus the +Inf bucket, non-cumulative.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Snapshot is a serializable point-in-time copy of a registry: the value
// every campaign checkpoint carries (docs/checkpoint-format.md) so
// counters survive kills and sum across shards.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	for _, m := range r.list() {
		switch {
		case m.c != nil:
			if s.Counters == nil {
				s.Counters = map[string]int64{}
			}
			s.Counters[m.name] = m.c.Value()
		case m.g != nil:
			if s.Gauges == nil {
				s.Gauges = map[string]int64{}
			}
			s.Gauges[m.name] = m.g.Value()
		case m.h != nil:
			if s.Histograms == nil {
				s.Histograms = map[string]HistogramSnapshot{}
			}
			hs := HistogramSnapshot{
				Bounds: append([]float64(nil), m.h.bounds...),
				Counts: make([]int64, len(m.h.buckets)),
				Sum:    m.h.Sum(),
				Count:  m.h.Count(),
			}
			for i := range m.h.buckets {
				hs.Counts[i] = m.h.buckets[i].Load()
			}
			s.Histograms[m.name] = hs
		}
	}
	return s
}

// Restore folds a snapshot's totals into the live registry: counters and
// histogram buckets are added (the intended use restores a checkpoint
// into a fresh registry, making the live totals cumulative across process
// lives), gauges are set (the checkpointed level replaces the live one).
// Metrics absent from the registry are registered; a histogram whose live
// bounds differ from the snapshot's folds only sum and count (the buckets
// are not comparable), which can only happen if the bucket layout changed
// between the writing and the restoring build.
func (r *Registry) Restore(s Snapshot) {
	for _, name := range slices.Sorted(maps.Keys(s.Counters)) {
		r.Counter(name, "").Add(s.Counters[name])
	}
	for _, name := range slices.Sorted(maps.Keys(s.Gauges)) {
		r.Gauge(name, "").Set(s.Gauges[name])
	}
	for _, name := range slices.Sorted(maps.Keys(s.Histograms)) {
		hs := s.Histograms[name]
		h := r.Histogram(name, "", hs.Bounds)
		if len(h.buckets) == len(hs.Counts) && slices.Equal(h.bounds, hs.Bounds) {
			for i, c := range hs.Counts {
				h.buckets[i].Add(c)
			}
		}
		h.count.Add(hs.Count)
		h.addSum(hs.Sum)
	}
}

// Add returns the element-wise sum of two snapshots: counters, gauges and
// histograms summed. Shard snapshots are disjoint parts of one campaign,
// so their summed gauges are the whole's levels (the total frontier, the
// total size of the latest snapshots). Merging shard snapshots uses it.
func (s Snapshot) Add(t Snapshot) Snapshot {
	out := Snapshot{Counters: sumInts(s.Counters, t.Counters), Gauges: sumInts(s.Gauges, t.Gauges)}
	for _, src := range []map[string]HistogramSnapshot{s.Histograms, t.Histograms} {
		for k, v := range src {
			if out.Histograms == nil {
				out.Histograms = map[string]HistogramSnapshot{}
			}
			have, ok := out.Histograms[k]
			if !ok {
				out.Histograms[k] = HistogramSnapshot{
					Bounds: append([]float64(nil), v.Bounds...),
					Counts: append([]int64(nil), v.Counts...),
					Sum:    v.Sum,
					Count:  v.Count,
				}
				continue
			}
			if len(have.Counts) == len(v.Counts) && slices.Equal(have.Bounds, v.Bounds) {
				for i := range have.Counts {
					have.Counts[i] += v.Counts[i]
				}
			}
			have.Sum += v.Sum
			have.Count += v.Count
			out.Histograms[k] = have
		}
	}
	return out
}

// sumInts returns the key-wise sum of a and b, nil when both are empty.
func sumInts(a, b map[string]int64) map[string]int64 {
	var out map[string]int64
	for _, src := range []map[string]int64{a, b} {
		for k, v := range src {
			if out == nil {
				out = map[string]int64{}
			}
			out[k] += v
		}
	}
	return out
}

// Counter returns the snapshot's value for a counter (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Sum folds any number of snapshots with Add: the element-wise total of
// the set, counters, gauges and histograms alike, so the order of the
// snapshots does not matter. The fleet coordinator aggregates shard
// snapshots with it — one snapshot per shard, each already cumulative
// across that shard's process lives, so summing the latest snapshot per
// shard equals an uninterrupted unsharded run and never double-counts a
// re-dealt shard's pre-crash work.
func Sum(snaps ...Snapshot) Snapshot {
	var out Snapshot
	for _, s := range snaps {
		out = out.Add(s)
	}
	return out
}
