package cliutil

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rme/internal/telemetry"
)

func parseTelemetry(t *testing.T, args ...string) *Telemetry {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	tele := telemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return tele
}

func TestTelemetryFlagsRegistered(t *testing.T) {
	tele := parseTelemetry(t, "-heartbeat", "250ms", "-metrics", "m.jsonl", "-debugaddr", "localhost:6060")
	if tele.Heartbeat != 250*time.Millisecond || tele.MetricsPath != "m.jsonl" || tele.DebugAddr != "localhost:6060" {
		t.Fatalf("flags not parsed: %+v", tele)
	}
	if !tele.Enabled() {
		t.Fatal("Enabled() = false with all flags set")
	}
}

func TestTelemetryDisabledIsFree(t *testing.T) {
	tele := parseTelemetry(t)
	if tele.Enabled() {
		t.Fatal("Enabled() = true with no flags set")
	}
	stop, err := tele.Start("test", telemetry.View{})
	if err != nil {
		t.Fatal(err)
	}
	if tele.Registry() != nil {
		t.Fatal("disabled telemetry must not allocate a registry")
	}
	stop() // must be safe
}

// TestTelemetryMetricsOnlyStream: -metrics without -heartbeat still writes a
// JSONL stream (baseline + final at minimum), with nothing on stderr.
func TestTelemetryMetricsOnlyStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.jsonl")
	tele := parseTelemetry(t, "-metrics", path)
	stop, err := tele.Start("unit", telemetry.View{})
	if err != nil {
		t.Fatal(err)
	}
	reg := tele.Registry()
	if reg == nil {
		t.Fatal("enabled telemetry must allocate a registry")
	}
	reg.Counter("unit_work").Add(7)
	stop()
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
		t.Fatalf("want baseline + final records, got %d", len(recs))
	}
	last := recs[len(recs)-1]
	if !last.Final || last.Label != "unit" || last.Metrics["unit_work"] != 7 {
		t.Fatalf("bad final record: %+v", last)
	}
}

func TestTelemetryStartErrors(t *testing.T) {
	bad := parseTelemetry(t, "-metrics", filepath.Join(t.TempDir(), "no", "such", "dir", "m.jsonl"))
	if _, err := bad.Start("unit", telemetry.View{}); err == nil {
		t.Fatal("want error for unwritable -metrics path")
	}
	badAddr := parseTelemetry(t, "-debugaddr", "256.0.0.1:bogus")
	if _, err := badAddr.Start("unit", telemetry.View{}); err == nil {
		t.Fatal("want error for unusable -debugaddr")
	}
}
