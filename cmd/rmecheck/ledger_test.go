package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"rme/internal/perflog"
)

// ledgerRun runs the checker with -ledger into a fresh file and returns the
// single manifest it appended.
func ledgerRun(t *testing.T, extra ...string) *perflog.Manifest {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	args := append([]string{
		"-alg", "tas", "-n", "2", "-crashes", "0", "-stress", "50",
		"-ledger", path,
	}, extra...)
	if _, err := captureStdout(t, func() error { return run(args) }); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	ms, err := perflog.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("want 1 manifest, got %d", len(ms))
	}
	return ms[0]
}

// TestManifestSemanticBytesDeterministic pins the ledger's core guarantee:
// the manifest's semantic portion (tool, config, digest, counters) is
// byte-identical at -parallel 1 vs 8 and with telemetry on vs off. Only
// host-dependent sections (wall samples, telemetry snapshot, provenance) may
// differ between those runs.
func TestManifestSemanticBytesDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs exhaustive searches")
	}
	base := ledgerRun(t, "-parallel", "1")
	variants := map[string]*perflog.Manifest{
		"-parallel 8":  ledgerRun(t, "-parallel", "8"),
		"telemetry on": ledgerRun(t, "-parallel", "1", "-heartbeat", "1h"),
		"json output":  ledgerRun(t, "-parallel", "1", "-json"),
	}
	want := base.SemanticBytes()
	for name, m := range variants {
		if got := m.SemanticBytes(); !bytes.Equal(got, want) {
			t.Errorf("%s changed the semantic manifest:\nbase:    %s\nvariant: %s", name, want, got)
		}
	}
	if tel := variants["telemetry on"].Telemetry; len(tel) == 0 {
		t.Error("telemetry-enabled run exported no telemetry snapshot")
	}
	if base.Telemetry != nil {
		t.Errorf("telemetry-off run exported a snapshot: %v", base.Telemetry)
	}
}

// TestConfigDigestStability checks what the digest must and must not react
// to: stable under non-semantic flags (-parallel, -heartbeat, the ledger
// path itself, -runlabel) and under -wave and -maxwaves without -sharedset,
// different under semantic ones (-alg, -n, and -wave with -sharedset).
func TestConfigDigestStability(t *testing.T) {
	if testing.Short() {
		t.Skip("runs exhaustive searches")
	}
	base := ledgerRun(t)
	if base.ConfigDigest == "" {
		t.Fatal("manifest missing config digest")
	}
	for name, m := range map[string]*perflog.Manifest{
		"-parallel":  ledgerRun(t, "-parallel", "4"),
		"-heartbeat": ledgerRun(t, "-heartbeat", "1h"),
		"-runlabel":  ledgerRun(t, "-runlabel", "other"),
		// A private search runs one wave, so the wave flags are inert.
		"-wave":     ledgerRun(t, "-wave", "2"),
		"-maxwaves": ledgerRun(t, "-maxwaves", "1"),
	} {
		// Each helper call already uses a different ledger path, so path
		// independence is exercised by every comparison here.
		if m.ConfigDigest != base.ConfigDigest {
			t.Errorf("%s changed the config digest", name)
		}
	}
	if m := ledgerRun(t, "-alg", "ticket"); m.ConfigDigest == base.ConfigDigest {
		t.Error("-alg change did not move the config digest")
	}
	if m := ledgerRun(t, "-n", "3"); m.ConfigDigest == base.ConfigDigest {
		t.Error("-n change did not move the config digest")
	}
	if a, b := ledgerRun(t, "-sharedset"), ledgerRun(t, "-sharedset", "-wave", "2"); a.ConfigDigest == b.ConfigDigest {
		t.Error("-wave change did not move the config digest of a -sharedset search")
	}
}

// TestVersionFlag checks the shared -version banner.
func TestVersionFlag(t *testing.T) {
	out, err := captureStdout(t, func() error { return run([]string{"-version"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix([]byte(out), []byte("rmecheck go")) {
		t.Fatalf("version banner: %q", out)
	}
}
