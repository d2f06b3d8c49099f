package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"rme/internal/perflog"
)

// captureStdout runs fn with stdout redirected to a pipe and returns what it
// wrote. Stderr (timings, notes) is silenced: the contract under test is
// that *stdout* is byte-identical across -parallel values.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = wr, devnull
	defer func() {
		os.Stdout, os.Stderr = oldOut, oldErr
		devnull.Close()
	}()
	done := make(chan string, 1)
	go func() {
		blob, _ := io.ReadAll(r)
		done <- string(blob)
	}()
	runErr := fn()
	wr.Close()
	out := <-done
	r.Close()
	return out, runErr
}

// TestStdoutParityAcrossParallelism locks in the documented guarantee that
// the rendered experiment tables are byte-identical at any -parallel value.
// E6, E9, and E11 cover the three experiment families (engine grids, crash
// waves, seeded-random fairness runs) while staying fast.
func TestStdoutParityAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full experiment grids")
	}
	args := []string{"-only", "E6,E9,E11"}
	one, err := captureStdout(t, func() error { return run(append([]string{"-parallel", "1"}, args...)) })
	if err != nil {
		t.Fatalf("-parallel 1: %v", err)
	}
	eight, err := captureStdout(t, func() error { return run(append([]string{"-parallel", "8"}, args...)) })
	if err != nil {
		t.Fatalf("-parallel 8: %v", err)
	}
	if one != eight {
		t.Fatalf("stdout differs between -parallel 1 and 8:\n--- parallel 1 ---\n%s\n--- parallel 8 ---\n%s", one, eight)
	}
	if len(one) == 0 {
		t.Fatal("no output captured")
	}
}

// TestTraceParityAcrossParallelism locks in the trace determinism guarantee:
// the exported step-level trace — not just the rendered tables — is
// byte-identical at any -parallel value, because captures are merged in
// submission order regardless of which worker finished first.
func TestTraceParityAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full experiment grid")
	}
	dir := t.TempDir()
	one := filepath.Join(dir, "p1.jsonl")
	eight := filepath.Join(dir, "p8.jsonl")
	for parallel, path := range map[string]string{"1": one, "8": eight} {
		if _, err := captureStdout(t, func() error {
			return run([]string{"-only", "E6", "-parallel", parallel, "-trace", path})
		}); err != nil {
			t.Fatalf("-parallel %s: %v", parallel, err)
		}
	}
	a, err := os.ReadFile(one)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(eight)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("trace differs between -parallel 1 (%d bytes) and 8 (%d bytes)", len(a), len(b))
	}
}

// TestStdoutMachineClean asserts the output-stream discipline: no timing or
// progress diagnostics on stdout (they carry wall times that change between
// runs), so stdout can be diffed or piped directly.
func TestStdoutMachineClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full experiment grid")
	}
	out, err := captureStdout(t, func() error {
		return run([]string{"-only", "E6"})
	})
	if err != nil {
		t.Fatal(err)
	}
	timing := regexp.MustCompile(`\bin \d+(\.\d+)?[mµn]?s\b|^wrote `)
	for _, line := range strings.Split(out, "\n") {
		if timing.MatchString(line) {
			t.Errorf("timing/progress line leaked to stdout: %q", line)
		}
	}
}

// TestTracingDisabledNoRegression is the bench guard: with tracing disabled
// (no -trace, no -top) the E2 grid must stay within generous slack of the
// wall_ms recorded in E2's manifest in runs/baseline.jsonl, so
// Machine.record's NoTrace branch is demonstrably free. Gated behind
// RME_BENCH_GUARD=1 because wall-clock assertions are too flaky for ordinary
// CI runners.
func TestTracingDisabledNoRegression(t *testing.T) {
	if os.Getenv("RME_BENCH_GUARD") == "" {
		t.Skip("set RME_BENCH_GUARD=1 to enable the wall-clock guard")
	}
	ms, err := perflog.Read("../../runs/baseline.jsonl")
	if err != nil {
		t.Skipf("no baseline: %v", err)
	}
	var baseMS float64
	for _, m := range ms {
		if m.Tool == "rmrbench" && m.Config["experiment"] == "E2" {
			baseMS = m.Wall["wall_ms"]
		}
	}
	if baseMS == 0 {
		t.Skip("baseline has no E2 entry")
	}
	start := time.Now()
	if _, err := captureStdout(t, func() error {
		return run([]string{"-only", "E2", "-parallel", "1"})
	}); err != nil {
		t.Fatal(err)
	}
	got := float64(time.Since(start).Microseconds()) / 1000
	// 5x slack: this guards against the untraced step path accidentally
	// becoming hot (an order of magnitude), not against scheduler noise.
	if got > 5*baseMS {
		t.Errorf("tracing-disabled E2 took %.0f ms, baseline %.0f ms (>5x)", got, baseMS)
	}
}

// ledgerRun runs rmrbench with args and -ledger into a fresh file and
// returns the manifests it appended.
func ledgerRun(t *testing.T, args ...string) []*perflog.Manifest {
	t.Helper()
	ledger := filepath.Join(t.TempDir(), "runs.jsonl")
	args = append(args, "-ledger", ledger)
	if _, err := captureStdout(t, func() error { return run(args) }); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	ms, err := perflog.Read(ledger)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// TestLedgerEmission checks the -ledger wiring end to end: one manifest per
// experiment, rmrbench-shaped counters, and the -runlabel stamp.
func TestLedgerEmission(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full experiment grid")
	}
	ms := ledgerRun(t, "-only", "E6", "-runlabel", "unit")
	if len(ms) != 1 {
		t.Fatalf("want 1 manifest, got %d", len(ms))
	}
	m := ms[0]
	if m.Tool != "rmrbench" || m.Label != "unit" || m.Config["experiment"] != "E6" {
		t.Fatalf("manifest identity wrong: %+v", m)
	}
	for _, key := range []string{"runs", "steps", "max_rmr", "tables"} {
		if m.Counters[key] == 0 {
			t.Errorf("counter %s missing or zero: %+v", key, m.Counters)
		}
	}
	if m.ConfigDigest == "" || m.Wall["wall_ms"] <= 0 {
		t.Fatalf("digest or wall sample missing: %+v", m)
	}
}

// TestSeedChangesRandomizedTables checks that -seed actually reaches the
// randomized experiments: E11's fairness sample must differ between seeds.
func TestSeedChangesRandomizedTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full experiment grids")
	}
	base, err := captureStdout(t, func() error { return run([]string{"-only", "E11", "-seed", "0"}) })
	if err != nil {
		t.Fatal(err)
	}
	reseeded, err := captureStdout(t, func() error { return run([]string{"-only", "E11", "-seed", "12345"}) })
	if err != nil {
		t.Fatal(err)
	}
	if base == reseeded {
		t.Fatal("-seed 12345 produced the same E11 tables as -seed 0")
	}
}

// TestOnlyRejectsUnknownID checks that an -only id naming no experiment is
// an error naming it, raised before any experiment runs: a typo in a gated
// -only list must not gate nothing.
func TestOnlyRejectsUnknownID(t *testing.T) {
	out, err := captureStdout(t, func() error { return run([]string{"-only", "E2,E99"}) })
	if err == nil || !strings.Contains(err.Error(), `"E99"`) {
		t.Fatalf("want an error naming E99, got %v", err)
	}
	if out != "" {
		t.Fatalf("an unknown id still ran experiments:\n%s", out)
	}
}

// TestFullE8Completes runs E8's enlarged grid, whose n=256 rows include
// grlock, and requires its manifest.
func TestFullE8Completes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the -full E8 grid")
	}
	ms := ledgerRun(t, "-full", "-only", "E8")
	if len(ms) != 1 || ms[0].Config["experiment"] != "E8" || ms[0].Config["full"] != "true" {
		t.Fatalf("want one full E8 manifest, got %+v", ms)
	}
}
