package telemetry

import (
	"sync"
	"testing"
)

// TestNilSafety: every handle chain off a nil registry must be a usable
// no-op — this is the zero-cost-when-disabled contract instrumented code
// relies on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []int64{1, 2})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out non-nil handles")
	}
	c.Add(3)
	c.Inc()
	g.Set(7)
	g.Add(1)
	g.Max(9)
	h.Observe(5)
	if c.Load() != 0 || g.Load() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var hb *Heartbeat
	hb.Stop() // must not panic
	var d *DebugServer
	if d.Addr() != "" || d.Close() != nil {
		t.Fatal("nil debug server methods misbehaved")
	}
}

// TestGetOrCreate: the same name always resolves to the same metric, so
// concurrent subsystems share series.
func TestGetOrCreate(t *testing.T) {
	r := New()
	a, b := r.Counter("n"), r.Counter("n")
	if a != b {
		t.Fatal("Counter(\"n\") returned distinct instances")
	}
	a.Add(2)
	if b.Load() != 2 {
		t.Fatalf("shared counter read %d, want 2", b.Load())
	}
	if r.Gauge("n") == nil || r.Gauge("n") != r.Gauge("n") {
		t.Fatal("gauge identity broken")
	}
}

func TestGaugeMax(t *testing.T) {
	g := New().Gauge("g")
	g.Max(5)
	g.Max(3)
	if g.Load() != 5 {
		t.Fatalf("Max regressed: %d", g.Load())
	}
	g.Max(9)
	if g.Load() != 9 {
		t.Fatalf("Max did not raise: %d", g.Load())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat", []int64{1, 4, 16})
	for _, v := range []int64{0, 1, 2, 4, 5, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("want 1 histogram, got %d", len(snap.Histograms))
	}
	hp := snap.Histograms[0]
	want := []int64{2, 2, 1, 1} // <=1: {0,1}; <=4: {2,4}; <=16: {5}; +Inf: {100}
	for i, w := range want {
		if hp.Buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, hp.Buckets[i], w, hp.Buckets)
		}
	}
	if hp.Count != 6 || hp.Sum != 112 {
		t.Fatalf("count/sum = %d/%d, want 6/112", hp.Count, hp.Sum)
	}
	flat := snap.Flat()
	if flat["lat_count"] != 6 || flat["lat_sum"] != 112 {
		t.Fatalf("flat histogram series wrong: %v", flat)
	}
}

// TestSnapshotSortedAndGet: snapshots are name-sorted per section (the
// determinism the exposition formats build on) and Get resolves every
// flattened series.
func TestSnapshotSortedAndGet(t *testing.T) {
	r := New()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("z").Set(26)
	r.Histogram("h", []int64{10}).Observe(3)
	s := r.Snapshot()
	if s.Counters[0].Name != "a" || s.Counters[1].Name != "b" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	flat := s.Flat()
	for name, want := range map[string]int64{"a": 1, "b": 2, "z": 26, "h_count": 1, "h_sum": 3} {
		got, ok := flat[name]
		if !ok || got != want {
			t.Fatalf("Flat()[%q] = %d,%v want %d,true", name, got, ok, want)
		}
	}
	if _, ok := flat["missing"]; ok {
		t.Fatal("Flat holds a missing series")
	}
}

// TestConcurrentUse hammers one registry from many goroutines; run under
// -race this locks in the lock-free hot path.
func TestConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits")
			h := r.Histogram("lens", []int64{8, 64})
			for j := 0; j < 1000; j++ {
				c.Inc()
				r.Gauge("depth").Set(int64(j))
				h.Observe(int64(j % 100))
				if j%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Load(); got != 8000 {
		t.Fatalf("hits = %d, want 8000", got)
	}
}

// TestExport pins the perf-ledger export contract: a nil registry exports
// nil (so a disabled-telemetry manifest omits the section entirely), and a
// live one exports the flattened final snapshot.
func TestExport(t *testing.T) {
	var nilReg *Registry
	if got := nilReg.Export(); got != nil {
		t.Fatalf("nil registry exported %v, want nil", got)
	}
	r := New()
	r.Counter("runs").Add(3)
	r.Histogram("lat", []int64{10}).Observe(7)
	got := r.Export()
	if got["runs"] != 3 || got["lat_count"] != 1 || got["lat_sum"] != 7 {
		t.Fatalf("export = %v", got)
	}
}
