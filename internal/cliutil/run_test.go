package cliutil

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rme/internal/perflog"
	"rme/internal/sim"
	"rme/internal/telemetry"
	"rme/internal/trace"
)

// doOK runs Do around a body that succeeds with no manifests.
func doOK(r *Run) error {
	return r.Do("unit", telemetry.View{}, func() ([]*perflog.Manifest, error) { return nil, nil })
}

func TestStartCPUProfileDisabled(t *testing.T) {
	if err := doOK(parseRun(t)); err != nil {
		t.Fatal(err)
	}
}

func TestStartCPUProfileWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	err := parseRun(t, "-cpuprofile", path).Do("unit", telemetry.View{}, func() ([]*perflog.Manifest, error) {
		// Burn a little CPU so the profile has something to record; the
		// file is valid (header + samples) even if no sample lands.
		x := 0
		for i := 0; i < 1_000_000; i++ {
			x += i * i
		}
		_ = x
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("CPU profile is empty")
	}
}

func TestStartCPUProfileBadPath(t *testing.T) {
	if err := doOK(parseRun(t, "-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.pprof"))); err == nil {
		t.Fatal("want error for unwritable path")
	}
}

func TestWriteHeapProfile(t *testing.T) {
	if err := writeHeapProfile(""); err != nil {
		t.Fatalf("empty path must be a no-op, got %v", err)
	}
	path := filepath.Join(t.TempDir(), "mem.pprof")
	if err := writeHeapProfile(path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("heap profile is empty")
	}
	if err := writeHeapProfile(filepath.Join(t.TempDir(), "no", "such", "dir", "mem.pprof")); err == nil {
		t.Fatal("want error for unwritable path")
	}
}

func TestExportTrace(t *testing.T) {
	runs := []trace.Run{{Label: "unit", Procs: 1, Model: sim.CC}}
	if err := (&Trace{Format: "jsonl"}).Write(io.Discard, runs, sim.CC); err != nil {
		t.Fatalf("empty path must be a no-op, got %v", err)
	}
	if err := (&Trace{Path: filepath.Join(t.TempDir(), "t.jsonl"), Format: "bogus"}).Write(io.Discard, runs, sim.CC); err == nil {
		t.Fatal("want error for unknown format")
	}
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if err := (&Trace{Path: path, Format: "jsonl"}).Write(io.Discard, runs, sim.CC); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "unit") {
		t.Fatalf("exported trace missing run label:\n%s", blob)
	}
}

func TestSummarizeTraceTopZero(t *testing.T) {
	var sb strings.Builder
	runs := []trace.Run{{Label: "unit", Procs: 1, Model: sim.CC}}
	if err := (&Trace{Format: "jsonl"}).Write(&sb, runs, sim.CC); err != nil || sb.Len() != 0 {
		t.Fatalf("top=0 must print nothing, got %q (err %v)", sb.String(), err)
	}
	if err := (&Trace{Format: "jsonl", Top: 3}).Write(&sb, runs, sim.CC); err != nil || sb.Len() == 0 {
		t.Fatalf("top=3 must print the attribution tables (err %v)", err)
	}
}

// parseRun registers the bundle and the trace piece on a fresh flag set.
func parseRun(t *testing.T, args ...string) *Run {
	t.Helper()
	fs := flag.NewFlagSet("unit", flag.ContinueOnError)
	r := Flags(fs)
	r.TraceFlags(fs, "trace", "top")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDoLifecycle pins the order Do drives the bundle in: -version and a bad
// -traceformat stop before the body runs, the heap profile is written on
// every exit once the body has run (failing runs included), and the ledger
// receives manifests only from a successful body.
func TestDoLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name       string
		args       []string
		fail       bool
		wantBody   bool
		wantErr    bool
		wantHeap   bool
		wantLedger bool
	}{
		{name: "success", wantBody: true, wantHeap: true, wantLedger: true},
		{name: "failing body", fail: true, wantBody: true, wantErr: true, wantHeap: true},
		{name: "version", args: []string{"-version"}},
		{name: "bad traceformat", args: []string{"-traceformat", "bogus"}, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			heap, ledger := filepath.Join(dir, "mem.pprof"), filepath.Join(dir, "ledger.jsonl")
			r := parseRun(t, append([]string{"-memprofile", heap, "-ledger", ledger}, tc.args...)...)
			ran := false
			err := r.Do("unit", telemetry.View{}, func() ([]*perflog.Manifest, error) {
				ran = true
				if tc.fail {
					return nil, errors.New("run failed")
				}
				return []*perflog.Manifest{perflog.New("unit")}, nil
			})
			if ran != tc.wantBody || (err != nil) != tc.wantErr {
				t.Fatalf("body ran %v, err %v; want ran %v, error %v", ran, err, tc.wantBody, tc.wantErr)
			}
			if _, err := os.Stat(heap); (err == nil) != tc.wantHeap {
				t.Errorf("heap profile written = %v, want %v", err == nil, tc.wantHeap)
			}
			if _, err := os.Stat(ledger); (err == nil) != tc.wantLedger {
				t.Errorf("ledger written = %v, want %v", err == nil, tc.wantLedger)
			}
		})
	}
}
