package perflog

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleManifest() *Manifest {
	m := New("rmecheck")
	m.Label = "unit"
	m.SetConfig("alg", "watree")
	m.SetConfig("n", 2)
	m.SetConfig("memo", true)
	m.AddCounters("", map[string]int64{"machine_steps": 12345})
	m.AddCounters("stress_", map[string]int64{"complete": 9})
	m.Counters["states_visited"] = 678
	m.Sample("wall_ms", 41.5)
	m.Finalize()
	return m
}

// TestDigestSortedAndStable pins the digest convention: insertion order is
// irrelevant, every key/value participates, and equal configs hash equally.
func TestDigestSortedAndStable(t *testing.T) {
	a := map[string]string{"alg": "watree", "n": "2", "w": "8"}
	b := map[string]string{"w": "8", "n": "2", "alg": "watree"}
	if Digest(a) != Digest(b) {
		t.Fatal("digest depends on map insertion order")
	}
	c := map[string]string{"alg": "watree", "n": "3", "w": "8"}
	if Digest(a) == Digest(c) {
		t.Fatal("digest ignored a changed value")
	}
	if len(Digest(a)) != 64 {
		t.Fatalf("digest is not hex sha256: %q", Digest(a))
	}
	// Keys and values must both be delimited: {"a":"b=c"} != {"a=b":"c"}.
	if Digest(map[string]string{"a": "b=c"}) == Digest(map[string]string{"a=b": "c"}) {
		t.Fatal("digest conflates key and value bytes")
	}
}

// TestAppendReadRoundTrip covers the ledger's core contract: append N
// manifests (across two calls, simulating separate runs), read them back in
// order with every section intact.
func TestAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs", "ledger.jsonl")
	first := sampleManifest()
	if err := Append(path, first); err != nil {
		t.Fatal(err)
	}
	second := sampleManifest()
	second.Label = "second"
	second.Counters["machine_steps"] = 99999
	third := New("rmrbench")
	third.SetConfig("experiment", "E2")
	third.Counters["steps"] = 7
	if err := Append(path, second, third); err != nil {
		t.Fatal(err)
	}

	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d manifests, want 3", len(got))
	}
	if got[0].Label != "unit" || got[1].Label != "second" || got[2].Tool != "rmrbench" {
		t.Fatalf("append order not preserved: %+v", got)
	}
	if got[1].Counters["machine_steps"] != 99999 || got[0].Counters["stress_complete"] != 9 {
		t.Fatalf("counter lost: %+v", got[1].Counters)
	}
	if got[0].Wall["wall_ms"] != 41.5 {
		t.Fatalf("wall sample lost: %+v", got[0].Wall)
	}
	if got[0].ConfigDigest == "" || got[0].ConfigDigest != got[1].ConfigDigest {
		t.Fatalf("same config must share a digest: %q vs %q", got[0].ConfigDigest, got[1].ConfigDigest)
	}
	if got[0].Key() == got[2].Key() {
		t.Fatal("different tools must not share a key")
	}
}

// TestReadRejectsCorruptLine: a malformed line is an error naming the line
// number, not a silently dropped run.
func TestReadRejectsCorruptLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := Append(path, sampleManifest()); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("{not json\n")
	f.Close()
	_, err = Read(path)
	if err == nil || !strings.Contains(err.Error(), ":2:") {
		t.Fatalf("want an error naming line 2, got %v", err)
	}
}

// TestReadRejectsUnknownVersion: future-schema entries fail loudly.
func TestReadRejectsUnknownVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := os.WriteFile(path,
		[]byte(`{"version":99,"tool":"x","config":{},"config_digest":"","counters":{}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("want a version error, got %v", err)
	}
}

// TestSemanticBytesExcludesAdvisory: label, provenance, wall samples, and
// the telemetry snapshot must not leak into the deterministic portion — that
// is what lets the determinism tests demand byte equality with telemetry on
// and off.
func TestSemanticBytesExcludesAdvisory(t *testing.T) {
	a := sampleManifest()
	b := sampleManifest()
	b.Label = "other-label"
	b.Provenance = Provenance{GoVersion: "go9.99", Revision: "deadbeef", Dirty: true}
	b.Sample("wall_ms", 9000)
	b.Telemetry = map[string]int64{"engine_busy_ns": 123456789}
	if !bytes.Equal(a.SemanticBytes(), b.SemanticBytes()) {
		t.Fatalf("advisory fields leaked into SemanticBytes:\n%s\n%s", a.SemanticBytes(), b.SemanticBytes())
	}
	b.Counters["machine_steps"] = 1
	if bytes.Equal(a.SemanticBytes(), b.SemanticBytes()) {
		t.Fatal("counter drift not visible in SemanticBytes")
	}
}

// TestBuildProvenance sanity-checks the build-info reader: a go_version is
// always present, and Short never returns an empty string.
func TestBuildProvenance(t *testing.T) {
	p := Build()
	if p.GoVersion == "" {
		t.Fatal("no go version in provenance")
	}
	if p.Short() == "" {
		t.Fatal("empty Short()")
	}
}
