// Package telemetry is the process-wide runtime metrics layer for the
// long-running tools: a low-overhead registry of atomic counters, gauges,
// and fixed-bucket histograms, a wall-clock heartbeat emitter that renders
// human progress lines and a machine-readable JSONL stream, and an opt-in
// HTTP debug server exposing /metrics (Prometheus text), expvar (the
// registry's JSON view) and /debug/pprof.
//
// Telemetry is strictly off the result path. Instrumented code writes
// counters; nothing ever reads them back into a decision, so every
// byte-stability guarantee of the instrumented tools (-json stdout parity
// across -parallel values, byte-identical replay) holds with telemetry
// enabled. Every handle is nil-safe: a nil *Registry hands out nil
// *Counter/*Gauge/*Histogram whose methods are no-ops, so instrumentation
// costs one nil check when disabled.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic metric. The zero value is
// ready to use; a nil Counter ignores writes and reads as zero.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on a nil receiver).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value. The zero value is ready to use; a
// nil Gauge ignores writes and reads as zero.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d. No-op on a nil receiver.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Max raises the gauge to v if v is greater. No-op on a nil receiver.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value (0 on a nil receiver).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets with ascending upper
// bounds (an implicit +Inf bucket catches the rest). A nil Histogram ignores
// observations.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Registry is a named collection of metrics. Handles are get-or-create:
// asking twice for the same name returns the same metric, so concurrent
// subsystems share series. All methods are safe for concurrent use, and a
// nil Registry hands out nil handles.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending upper bounds on first use (later calls reuse the first bounds).
// A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{
			bounds:  append([]int64(nil), bounds...),
			buckets: make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// Point is one scalar metric reading.
type Point struct {
	Name  string
	Value int64
}

// HistPoint is one histogram reading: per-bucket counts aligned with Bounds
// (the final count is the +Inf bucket), plus the observation count and sum.
type HistPoint struct {
	Name    string
	Bounds  []int64
	Buckets []int64
	Count   int64
	Sum     int64
}

// Snapshot is a point-in-time reading of a registry, each section sorted by
// name, so rendering a snapshot is deterministic.
type Snapshot struct {
	Counters   []Point
	Gauges     []Point
	Histograms []HistPoint
}

// Snapshot reads every metric. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, Point{Name: name, Value: c.Load()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, Point{Name: name, Value: g.Load()})
	}
	for name, h := range r.hists {
		hp := HistPoint{
			Name:   name,
			Bounds: h.bounds,
			Count:  h.count.Load(),
			Sum:    h.sum.Load(),
		}
		for i := range h.buckets {
			hp.Buckets = append(hp.Buckets, h.buckets[i].Load())
		}
		s.Histograms = append(s.Histograms, hp)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Flat folds the snapshot into one name→value map: counters and gauges as
// themselves, histograms as name_count and name_sum series. This is the
// shape of the JSONL stream (Go's JSON encoder sorts map keys, so encoding
// is deterministic).
func (s Snapshot) Flat() map[string]int64 {
	out := make(map[string]int64, len(s.Counters)+len(s.Gauges)+2*len(s.Histograms))
	for _, p := range s.Counters {
		out[p.Name] = p.Value
	}
	for _, p := range s.Gauges {
		out[p.Name] = p.Value
	}
	for _, h := range s.Histograms {
		out[h.Name+"_count"] = h.Count
		out[h.Name+"_sum"] = h.Sum
	}
	return out
}

// Export folds the registry's final state into the flat name→value map a
// perf-ledger manifest carries. A nil registry (telemetry disabled) exports
// nil, so the manifest's telemetry section is absent rather than empty — a
// run with telemetry off stays byte-identical to one that never had the
// ledger wired.
func (r *Registry) Export() map[string]int64 {
	if r == nil {
		return nil
	}
	return r.Snapshot().Flat()
}
