package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestStdoutParityAcrossParallelism locks in the campaign determinism
// guarantee end to end: the full report — including failure reproducers and
// shrunk schedules — is byte-identical at any -parallel value.
func TestStdoutParityAcrossParallelism(t *testing.T) {
	args := []string{"-alg", "broken", "-n", "2", "-seed", "7"}
	one, errOne := captureStdout(t, func() error { return run(append([]string{"-parallel", "1"}, args...)) })
	eight, errEight := captureStdout(t, func() error { return run(append([]string{"-parallel", "8"}, args...)) })
	if errOne == nil || errEight == nil {
		t.Fatal("the broken algorithm campaign must exit with an error")
	}
	if one != eight {
		t.Fatalf("stdout differs between -parallel 1 and 8:\n--- parallel 1 ---\n%s\n--- parallel 8 ---\n%s", one, eight)
	}
	if len(one) == 0 {
		t.Fatal("no output captured")
	}
}

// TestTraceParityAcrossParallelism checks that the traced reproducer replays
// are byte-identical at any -parallel value: the failure set (and hence the
// shrunk schedules replayed under tracing) is campaign-deterministic.
func TestTraceParityAcrossParallelism(t *testing.T) {
	dir := t.TempDir()
	one := filepath.Join(dir, "p1.jsonl")
	eight := filepath.Join(dir, "p8.jsonl")
	for parallel, path := range map[string]string{"1": one, "8": eight} {
		_, runErr := captureStdout(t, func() error {
			return run([]string{"-alg", "broken", "-n", "2", "-seed", "7", "-parallel", parallel, "-trace", path})
		})
		if runErr == nil {
			t.Fatal("the broken algorithm campaign must exit with an error")
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
		t.Fatalf("reproducer trace differs between -parallel 1 (%d bytes) and 8 (%d bytes)", len(a), len(b))
	}
}

// TestJSONStdoutMachineClean asserts -json stdout is exactly one JSON
// document — no timing, progress, or trace-summary lines mixed in — even
// when tracing and summarizing are active.
func TestJSONStdoutMachineClean(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	out, runErr := captureStdout(t, func() error {
		return run([]string{"-alg", "broken", "-n", "2", "-seed", "7", "-json", "-trace", path, "-top", "3"})
	})
	if runErr == nil {
		t.Fatal("the broken algorithm campaign must exit with an error")
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-json stdout is not a single JSON document: %v\n%s", err, out)
	}
}

// TestJSONReportMachineReadable checks the -json report parses and carries
// the failure reproducers.
func TestJSONReportMachineReadable(t *testing.T) {
	out, runErr := captureStdout(t, func() error {
		return run([]string{"-alg", "broken", "-n", "2", "-seed", "7", "-json"})
	})
	if runErr == nil {
		t.Fatal("the broken algorithm campaign must exit with an error")
	}
	var rep struct {
		Algorithm string `json:"algorithm"`
		Ok        bool   `json:"ok"`
		Runs      int    `json:"runs"`
		Failures  []struct {
			Oracle string `json:"oracle"`
			Shrunk string `json:"shrunk"`
		} `json:"failures"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if rep.Algorithm != "broken-tas" || rep.Ok || rep.Runs == 0 || len(rep.Failures) == 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if rep.Failures[0].Shrunk == "" {
		t.Fatal("failure carries no shrunk reproducer")
	}
}

// TestUnknownModelRejected: an unknown -model is an error naming the value
// rather than a silent CC campaign.
func TestUnknownModelRejected(t *testing.T) {
	err := run([]string{"-alg", "broken", "-n", "2", "-model", "dms"})
	if err == nil || !strings.Contains(err.Error(), `"dms"`) {
		t.Fatalf("-model dms: err = %v; want an error naming the value", err)
	}
}
