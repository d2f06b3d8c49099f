package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunWritesJSONReport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "native.json")
	err := run([]string{
		"-algs", "mcs,watree", "-procs", "1,2", "-passes", "40", "-warmup", "5",
		"-json", path,
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep nativeReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(rep.Points) != 4 {
		t.Fatalf("points = %d, want 4 (2 algs x 2 sweep values)", len(rep.Points))
	}
	for _, pt := range rep.Points {
		if pt.ThroughputPerSec <= 0 {
			t.Errorf("%s n=%d: nonpositive throughput", pt.Alg, pt.Procs)
		}
		if pt.Histogram.Count != int64(pt.Procs*pt.Passes) {
			t.Errorf("%s n=%d: histogram count = %d, want %d",
				pt.Alg, pt.Procs, pt.Histogram.Count, pt.Procs*pt.Passes)
		}
		if len(pt.Histogram.BoundsNS) == 0 || len(pt.Histogram.Buckets) != len(pt.Histogram.BoundsNS)+1 {
			t.Errorf("%s n=%d: malformed histogram (%d bounds, %d buckets)",
				pt.Alg, pt.Procs, len(pt.Histogram.BoundsNS), len(pt.Histogram.Buckets))
		}
		if pt.Latency.P50NS <= 0 || pt.Latency.MaxNS < pt.Latency.P99NS {
			t.Errorf("%s n=%d: implausible latency summary %+v", pt.Alg, pt.Procs, pt.Latency)
		}
		if pt.SimCCRMRPerPassageMax <= 0 {
			t.Errorf("%s n=%d: missing sim correlation", pt.Alg, pt.Procs)
		}
	}
}

func TestRunMergesIntoExistingReport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_results.json")
	if err := os.WriteFile(path, []byte(`{"full": true, "experiments": []}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{
		"-algs", "ticket", "-procs", "1", "-passes", "30", "-warmup", "5", "-nosim",
		"-merge", path,
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(blob, &obj); err != nil {
		t.Fatal(err)
	}
	if obj["full"] != true {
		t.Error("merge dropped existing keys")
	}
	native, ok := obj["native"].(map[string]any)
	if !ok {
		t.Fatalf("no native key after merge: %v", obj)
	}
	if pts, ok := native["points"].([]any); !ok || len(pts) != 1 {
		t.Errorf("native.points = %v", native["points"])
	}
}

// TestMergeUnionsSeries is the regression test for the series-clobber bug:
// a second -merge run with different (alg, procs) points must extend the
// native series, not replace it; only same-key points are overwritten.
func TestMergeUnionsSeries(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_results.json")
	if err := os.WriteFile(path, []byte(`{"full": true}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pt := func(alg string, procs int, thpt float64) pointRecord {
		return pointRecord{Alg: alg, Procs: procs, GOMAXPROCS: procs, Passes: 10, ThroughputPerSec: thpt}
	}
	// Run 1: mcs at n=1,2.
	if err := mergeReport(path, nativeReport{
		Width:  8,
		Points: []pointRecord{pt("mcs", 1, 100), pt("mcs", 2, 200)},
	}); err != nil {
		t.Fatal(err)
	}
	// Run 2: ticket at n=1 (new series) plus a re-measured mcs n=2.
	if err := mergeReport(path, nativeReport{
		Width:  8,
		Points: []pointRecord{pt("ticket", 1, 300), pt("mcs", 2, 250)},
	}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var obj struct {
		Full   bool         `json:"full"`
		Native nativeReport `json:"native"`
	}
	if err := json.Unmarshal(blob, &obj); err != nil {
		t.Fatal(err)
	}
	if !obj.Full {
		t.Error("merge dropped existing keys")
	}
	got := obj.Native.Points
	if len(got) != 3 {
		t.Fatalf("points after two merges = %d, want 3 (union, not replace): %+v", len(got), got)
	}
	want := []struct {
		alg   string
		procs int
		thpt  float64
	}{{"mcs", 1, 100}, {"mcs", 2, 250}, {"ticket", 1, 300}}
	for i, w := range want {
		if got[i].Alg != w.alg || got[i].Procs != w.procs || got[i].ThroughputPerSec != w.thpt {
			t.Errorf("point %d = %s/n%d thpt %v; want %s/n%d thpt %v",
				i, got[i].Alg, got[i].Procs, got[i].ThroughputPerSec, w.alg, w.procs, w.thpt)
		}
	}
}

// rmrbenchReport is a report exactly as `rmrbench -only E7 -json FILE`
// writes it: experiment records keep their struct field order.
const rmrbenchReport = `{
  "experiments": [
    {
      "id": "E7",
      "title": "Crash steps rescue hiding (paper §1.1)",
      "wall_ms": 12.317,
      "tables": 1,
      "runs": 4,
      "steps": 406,
      "max_rmr": 14,
      "avg_max_rmr": 7.25
    }
  ],
  "full": false,
  "parallel": 2,
  "provenance": {
    "go_version": "go1.24.0"
  },
  "seed": 0,
  "total_wall_ms": 12.412
}
`

// withoutMember returns blob with its top-level member key and the comma
// before it cut out. The member must not be the object's first.
func withoutMember(t *testing.T, blob []byte, key string) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(blob))
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	for dec.More() {
		start := dec.InputOffset()
		k, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		if k == key {
			return string(blob[:start]) + string(blob[dec.InputOffset():])
		}
	}
	t.Fatalf("no %q member in %s", key, blob)
	return ""
}

// TestMergeLeavesOtherSectionsByteIdentical: -merge into a report written
// by rmrbench -json rewrites only the "native" member, on the first merge
// and on one over an existing series; every other byte, the key order
// inside experiment records included, stays as rmrbench wrote it.
func TestMergeLeavesOtherSectionsByteIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	if err := os.WriteFile(path, []byte(rmrbenchReport), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"ticket", "mcs"} {
		err := run([]string{
			"-algs", alg, "-procs", "1", "-passes", "30", "-warmup", "5", "-nosim",
			"-merge", path,
		})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := withoutMember(t, blob, "native"); got != rmrbenchReport {
			t.Fatalf("after merging %s, the bytes outside \"native\" changed:\n%s\nwant:\n%s", alg, got, rmrbenchReport)
		}
	}
}

// TestMergeErrorPaths locks in the failure modes: a non-object file and a
// corrupt "native" entry must both error out instead of silently clobbering
// the file.
func TestMergeErrorPaths(t *testing.T) {
	dir := t.TempDir()

	notObject := filepath.Join(dir, "array.json")
	if err := os.WriteFile(notObject, []byte(`[1, 2, 3]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mergeReport(notObject, nativeReport{}); err == nil {
		t.Error("non-object file: want error")
	}

	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte(`{"native": "not a report"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mergeReport(corrupt, nativeReport{}); err == nil {
		t.Error("corrupt native entry: want error")
	}
	// The corrupt file must be left untouched by the failed merge.
	blob, err := os.ReadFile(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != `{"native": "not a report"}` {
		t.Errorf("failed merge rewrote the file: %s", blob)
	}
}

func TestRunCrashInjectionSweep(t *testing.T) {
	// Crash-mode benchmarking on a recoverable algorithm must complete and
	// record crashes.
	dir := t.TempDir()
	path := filepath.Join(dir, "native.json")
	err := run([]string{
		"-algs", "rspin", "-procs", "2", "-passes", "60", "-warmup", "5",
		"-crashevery", "4", "-nosim", "-json", path,
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep nativeReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 1 || rep.Points[0].Crashes == 0 {
		t.Fatalf("expected injected crashes in report, got %+v", rep.Points)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-algs", "nosuchlock"}); err == nil {
		t.Error("unknown algorithm: want error")
	}
	if err := run([]string{"-procs", "0"}); err == nil {
		t.Error("-procs 0: want error")
	}
	if err := run([]string{"-width", "65"}); err == nil {
		t.Error("width 65: want error")
	}
}

func TestPercentile(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		p    int
		want int64
	}{{50, 50}, {90, 90}, {99, 100}, {100, 100}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("p%d = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %d", got)
	}
}

func TestMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"mcs":         "mcs",
		"watree(f=2)": "watree_f_2_",
		"watree+fast": "watree_fast",
	} {
		if got := metricName(in); got != want {
			t.Errorf("metricName(%q) = %q, want %q", in, got, want)
		}
	}
}
