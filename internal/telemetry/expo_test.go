package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds the fixture registry behind the Prometheus golden
// file: every metric kind, names needing sanitization, and interleaved
// sort order across kinds.
func goldenRegistry() *Registry {
	r := New()
	r.Counter("check_states_visited").Add(2013)
	r.Counter("zz_last").Add(1)
	r.Gauge("check_frontier_depth").Set(17)
	r.Gauge("bad-name.with/chars").Set(3)
	h := r.Histogram("check_restore_replay_len", []int64{1, 8, 64})
	for _, v := range []int64{0, 1, 5, 9, 100, 7} {
		h.Observe(v)
	}
	return r
}

// TestPrometheusGolden locks the text exposition format — stable ordering
// across metric kinds, cumulative buckets, sanitized names — against a
// committed golden file, so /metrics output is diff-able across PRs.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, goldenRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "snapshot.prom")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("prometheus exposition drifted from %s (run with -update to accept):\n--- got ---\n%s\n--- want ---\n%s",
			path, buf.Bytes(), want)
	}
	// Rendering twice produces identical bytes.
	var again bytes.Buffer
	WritePrometheus(&again, goldenRegistry().Snapshot())
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("exposition is not deterministic")
	}
}

func TestSanitizeName(t *testing.T) {
	for in, want := range map[string]string{
		"ok_name:x":          "ok_name:x",
		"bad-name.with/char": "bad_name_with_char",
		"9leading":           "_leading",
		"":                   "_",
	} {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEscapeLabel(t *testing.T) {
	if got := escapeLabel("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Fatalf("escapeLabel = %q", got)
	}
}
