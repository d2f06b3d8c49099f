package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"testing"

	"rme/internal/perflog"
)

// ledgerRun runs rmenative with args and -ledger into a fresh file and
// returns the manifests it appended, one per (algorithm, n) point.
func ledgerRun(t *testing.T, args ...string) []*perflog.Manifest {
	t.Helper()
	path := filepath.Join(t.TempDir(), "native.jsonl")
	if err := run(append(args, "-ledger", path)); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	ms, err := perflog.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// TestRunWritesJSONReport: each point's machine-readable record is its
// ledger manifest — the sim correlation counters and the latency wall
// samples — and, with telemetry on, the live latency histogram counts every
// timed passage.
func TestRunWritesJSONReport(t *testing.T) {
	const passes = 40
	ms := ledgerRun(t, "-algs", "mcs,watree", "-procs", "1,2", "-passes", strconv.Itoa(passes), "-warmup", "5",
		"-heartbeat", "1h")
	if len(ms) != 4 {
		t.Fatalf("manifests = %d, want 4 (2 algs x 2 sweep values)", len(ms))
	}
	for _, m := range ms {
		alg, procs := m.Config["alg"], m.Config["procs"]
		w := m.Wall
		if w["throughput_per_sec"] <= 0 {
			t.Errorf("%s n=%s: nonpositive throughput", alg, procs)
		}
		if w["p50_ns"] <= 0 || w["min_ns"] > w["p50_ns"] || w["p50_ns"] > w["p90_ns"] ||
			w["p90_ns"] > w["p99_ns"] || w["p99_ns"] > w["max_ns"] ||
			w["mean_ns"] < w["min_ns"] || w["mean_ns"] > w["max_ns"] {
			t.Errorf("%s n=%s: implausible latency samples %v", alg, procs, w)
		}
		n, err := strconv.Atoi(procs)
		if err != nil {
			t.Fatal(err)
		}
		hist := fmt.Sprintf("native_latency_ns_%s_n%d_count", alg, n)
		if got := m.Telemetry[hist]; got != int64(n*passes) {
			t.Errorf("%s n=%d: histogram count = %d, want %d", alg, n, got, n*passes)
		}
		if m.Counters["sim_cc_rmr_max"] <= 0 {
			t.Errorf("%s n=%d: missing sim correlation", alg, n)
		}
	}
}

// TestRunCrashInjectionSweep: crash-mode benchmarking on a recoverable
// algorithm must complete and record crashes, and each point records the
// interval it ran with. A non-recoverable algorithm runs crash-free under
// -crashevery, so its manifest must say crashevery=0 and match the digest of
// a plain run.
func TestRunCrashInjectionSweep(t *testing.T) {
	flags := []string{"-procs", "2", "-passes", "60", "-warmup", "5", "-nosim"}
	ms := ledgerRun(t, append([]string{"-algs", "mcs,rspin", "-crashevery", "4"}, flags...)...)
	if len(ms) != 2 {
		t.Fatalf("manifests = %d, want 2", len(ms))
	}
	mcs, rspin := ms[0], ms[1]
	if rspin.Config["crashevery"] != "4" || rspin.Wall["crashes"] == 0 {
		t.Errorf("rspin: crashevery=%s crashes=%v, want 4 and injected crashes",
			rspin.Config["crashevery"], rspin.Wall["crashes"])
	}
	if mcs.Config["crashevery"] != "0" || mcs.Wall["crashes"] != 0 {
		t.Errorf("mcs: crashevery=%s crashes=%v, want a crash-free point",
			mcs.Config["crashevery"], mcs.Wall["crashes"])
	}
	plain := ledgerRun(t, append([]string{"-algs", "mcs"}, flags...)...)
	if len(plain) != 1 {
		t.Fatalf("plain run: manifests = %d, want 1", len(plain))
	}
	if plain[0].ConfigDigest != mcs.ConfigDigest {
		t.Errorf("mcs under -crashevery has digest %s, a plain run %s", mcs.ConfigDigest, plain[0].ConfigDigest)
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

// TestMetricName: a latency series is its full name passed through
// telemetry.SanitizeName, so algorithm names outside the Prometheus charset
// ("watree(f=2)", "watree+fast") still give valid, distinct series.
func TestMetricName(t *testing.T) {
	const passes = 10
	ms := ledgerRun(t, "-algs", "mcs,watree2,watree-fast", "-procs", "1", "-passes", strconv.Itoa(passes),
		"-warmup", "1", "-nosim", "-heartbeat", "1h")
	want := []string{"native_latency_ns_mcs_n1", "native_latency_ns_watree_f_2__n1", "native_latency_ns_watree_fast_n1"}
	if len(ms) != len(want) {
		t.Fatalf("manifests = %d, want %d", len(ms), len(want))
	}
	for i, m := range ms {
		if got := m.Telemetry[want[i]+"_count"]; got != passes {
			t.Errorf("%s: %s_count = %d, want %d", m.Config["alg"], want[i], got, passes)
		}
	}
}
