package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// TestStdoutParityAcrossParallelism locks in byte-identical sweep output at
// any -parallel value: constructions land by index, so row order never
// depends on completion order. The header names the threshold each row ran
// with, since the default k grows with n.
func TestStdoutParityAcrossParallelism(t *testing.T) {
	args := []string{"-alg", "watree", "-w", "8", "-sweep", "4,8,16"}
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
	if header := strings.SplitN(one, "\n", 2)[0]; header != "adversary sweep vs watree: w=8 model=CC k=4,8,16" {
		t.Fatalf("sweep header %q; want the rows' thresholds k=4,8,16", header)
	}
}

// TestNameFlags: -alg resolves case-insensitively through the shared
// registry, and an unknown -model is an error naming the value rather than a
// silent CC construction.
func TestNameFlags(t *testing.T) {
	if _, err := captureStdout(t, func() error {
		return run([]string{"-alg", "WATree", "-n", "8", "-w", "4"})
	}); err != nil {
		t.Errorf("-alg WATree: %v", err)
	}
	err := run([]string{"-alg", "watree", "-n", "8", "-w", "4", "-model", "dms"})
	if err == nil || !strings.Contains(err.Error(), `"dms"`) {
		t.Fatalf("-model dms: err = %v; want an error naming the value", err)
	}
}

// TestSweepRejectsTraceFlags: -trace and -top replay a single construction,
// so -sweep refuses them with an error naming the flag instead of silently
// ignoring them.
func TestSweepRejectsTraceFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	for _, args := range [][]string{{"-trace", path}, {"-top", "3"}} {
		err := run(append([]string{"-alg", "watree", "-w", "4", "-sweep", "4,8"}, args...))
		if err == nil || !strings.HasPrefix(err.Error(), args[0]+" ") {
			t.Errorf("-sweep %v: err = %v; want an error naming %s", args, err, args[0])
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("a rejected -sweep run wrote %s", path)
	}
}

// TestDefaultKRecordedAsUsed: the manifest records the threshold the
// construction ran with, so -k 0 (the default) and the value it stands for
// append the same semantic manifest.
func TestDefaultKRecordedAsUsed(t *testing.T) {
	var got [][]byte
	for _, extra := range [][]string{nil, {"-k", "16"}} {
		path := filepath.Join(t.TempDir(), "ledger.jsonl")
		args := append([]string{"-alg", "watree", "-n", "16", "-w", "4", "-ledger", path}, extra...)
		if _, err := captureStdout(t, func() error { return run(args) }); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		ms, err := perflog.Read(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 1 {
			t.Fatalf("run(%v) appended %d manifests, want 1", args, len(ms))
		}
		got = append(got, ms[0].SemanticBytes())
	}
	if !bytes.Equal(got[0], got[1]) {
		t.Fatalf("-k 0 and -k 16 recorded different manifests:\n%s\n%s", got[0], got[1])
	}
}

// TestRoundCapPrintedOnlyWhenSet: a construction that stops at its round cap
// with two or more actives says so, in a single run and in a sweep row, and
// one that ends before the cap prints nothing about it, so pinned outputs
// keep their bytes. watree at n=64 and w=2 runs all 16 rounds and keeps 4
// actives; at n=16 and w=4 it ends before its 32.
func TestRoundCapPrintedOnlyWhenSet(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "64", "-w", "2"}, "round cap:          reached after 16 rounds with 4 actives left"},
		{[]string{"-sweep", "64", "-w", "2"}, "round cap at n=64: reached after 16 rounds with 4 actives left"},
		{[]string{"-n", "16", "-w", "4"}, ""},
		{[]string{"-sweep", "16", "-w", "4"}, ""},
	} {
		out, err := captureStdout(t, func() error { return run(append([]string{"-alg", "watree"}, tc.args...)) })
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		switch {
		case tc.want == "" && strings.Contains(out, "round cap"):
			t.Errorf("%v: a run that ended before its round cap printed one:\n%s", tc.args, out)
		case tc.want != "" && !strings.Contains(out, tc.want):
			t.Errorf("%v: stdout lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}
