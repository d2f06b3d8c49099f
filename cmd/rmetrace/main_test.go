package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rme/internal/algorithms/watree"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/trace"
	"rme/internal/word"
)

// fixtureTrace writes a small traced watree run to a JSONL file and returns
// its path.
func fixtureTrace(t *testing.T) string {
	t.Helper()
	s, err := mutex.NewSession(mutex.Config{
		Procs: 2, Width: word.Width(8), Model: sim.CC, Algorithm: watree.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.RunRoundRobin(); err != nil {
		t.Fatal(err)
	}
	runs := []trace.Run{{
		Label: "fixture", Procs: 2, Model: sim.CC,
		Events: append([]sim.Event(nil), s.Machine().Trace()...),
	}}
	path := filepath.Join(t.TempDir(), "fixture.jsonl")
	if err := trace.WriteFile(path, trace.FormatJSONL, runs); err != nil {
		t.Fatal(err)
	}
	return path
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// everything it printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		var buf bytes.Buffer
		buf.ReadFrom(r)
		done <- buf.Bytes()
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", ferr, out)
	}
	return out
}

func TestSummarize(t *testing.T) {
	path := fixtureTrace(t)
	out := captureStdout(t, func() error {
		return run([]string{"summarize", "-top", "5", path})
	})
	for _, want := range []string{"1 runs:", "fixture", "hottest cells", "costliest processes"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// Summarizing the same file twice prints identical bytes.
	again := captureStdout(t, func() error {
		return run([]string{"summarize", "-top", "5", path})
	})
	if !bytes.Equal(out, again) {
		t.Error("summarize is not deterministic across invocations")
	}
}

func TestConvertChrome(t *testing.T) {
	path := fixtureTrace(t)
	out := filepath.Join(t.TempDir(), "out.json")
	if err := run([]string{"convert", "-format", "chrome", "-o", out, path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"traceEvents"`)) {
		t.Errorf("chrome output missing traceEvents:\n%.200s", data)
	}
}

func TestConvertJSONLRoundTrip(t *testing.T) {
	path := fixtureTrace(t)
	out := captureStdout(t, func() error {
		return run([]string{"convert", "-format", "jsonl", path})
	})
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Op names survive only as display strings, but the encoder re-emits the
	// same bytes for everything a JSONL round trip preserves.
	if !bytes.Equal(out, orig) {
		t.Error("jsonl convert of a jsonl file changed its bytes")
	}
}

func TestBadArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no-arg run should fail")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown subcommand should fail")
	}
	if err := run([]string{"summarize", "/nonexistent/trace.jsonl"}); err == nil {
		t.Error("missing file should fail")
	}
}

// TestSummarizeUnknownModel: an unknown -model is an error naming the value
// rather than a silent CC ranking.
func TestSummarizeUnknownModel(t *testing.T) {
	err := run([]string{"summarize", "-model", "dms", fixtureTrace(t)})
	if err == nil || !strings.Contains(err.Error(), `"dms"`) {
		t.Fatalf("-model dms: err = %v; want an error naming the value", err)
	}
}
