package main

import (
	"os"
	"path/filepath"
	"testing"

	"rme/internal/telemetry"
)

// TestProfileFlags: -cpuprofile and -memprofile write non-empty pprof files
// around a single adversary construction.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	_, err := captureStdout(t, func() error {
		return run([]string{"-alg", "watree", "-n", "16", "-w", "4",
			"-cpuprofile", cpu, "-memprofile", mem})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
}

// TestMetricsStreamFromConstruction: a heartbeat-enabled construction writes
// a JSONL stream whose final record reports the round progression.
func TestMetricsStreamFromConstruction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.jsonl")
	_, err := captureStdout(t, func() error {
		return run([]string{"-alg", "watree", "-n", "16", "-w", "4",
			"-heartbeat", "1ms", "-metrics", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := telemetry.ReadRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("want >= 2 snapshots, got %d", len(recs))
	}
	last := recs[len(recs)-1]
	if !last.Final {
		t.Fatal("stream has no final cumulative record")
	}
	if last.Label != "adversary" {
		t.Fatalf("label = %q, want adversary", last.Label)
	}
	if last.Metrics["adversary_rounds"] == 0 {
		t.Fatalf("final record reports no rounds: %v", last.Metrics)
	}
}

// TestAuditSplitTelemetry: the final metrics record splits the erasure
// audits and the adopted erasures by path. The watree anchor decides audits
// on the controller-only replay and adopts erasures by patching the live
// session; tournament, whose waits span several cells, also replays bodies
// for both.
func TestAuditSplitTelemetry(t *testing.T) {
	for _, tc := range []struct{ alg, metric string }{
		{"watree", "adversary_audits_fast"},
		{"watree", "adversary_adoptions_fast"},
		{"tournament", "adversary_audits_replayed"},
		{"tournament", "adversary_adoptions_replayed"},
	} {
		path := filepath.Join(t.TempDir(), tc.alg+".jsonl")
		_, err := captureStdout(t, func() error {
			return run([]string{"-alg", tc.alg, "-n", "16", "-w", "4", "-metrics", path})
		})
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := telemetry.ReadRecords(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		last := recs[len(recs)-1]
		if !last.Final {
			t.Fatalf("%s: stream has no final cumulative record", tc.alg)
		}
		if last.Metrics[tc.metric] == 0 {
			t.Errorf("%s: %s = 0, want > 0 (metrics %v)", tc.alg, tc.metric, last.Metrics)
		}
	}
}
