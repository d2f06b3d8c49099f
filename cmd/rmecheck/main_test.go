package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rme/internal/check"
	"rme/internal/faults"
	"rme/internal/mutex"
	"rme/internal/sim"
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

// TestStdoutParityAcrossParallelism locks in byte-identical stdout at any
// -parallel value: the exhaustive DFS is sequential and the stress results
// are merged in seed order, so only timings (on stderr) may vary.
func TestStdoutParityAcrossParallelism(t *testing.T) {
	args := []string{"-alg", "rspin", "-n", "2", "-w", "8", "-crashes", "1", "-max", "20000", "-stress", "100"}
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

// TestJSONParityAcrossParallelism extends the stdout contract to -json: the
// whole document, including the search statistics, must be byte-identical at
// any -parallel value.
func TestJSONParityAcrossParallelism(t *testing.T) {
	args := []string{"-alg", "yatree", "-n", "2", "-w", "8", "-crashes", "1", "-max", "20000", "-stress", "50", "-json"}
	one, err := captureStdout(t, func() error { return run(append([]string{"-parallel", "1"}, args...)) })
	if err != nil {
		t.Fatalf("-parallel 1: %v", err)
	}
	eight, err := captureStdout(t, func() error { return run(append([]string{"-parallel", "8"}, args...)) })
	if err != nil {
		t.Fatalf("-parallel 8: %v", err)
	}
	if one != eight {
		t.Fatalf("JSON differs between -parallel 1 and 8:\n--- parallel 1 ---\n%s\n--- parallel 8 ---\n%s", one, eight)
	}
}

// TestJSONReportShape decodes the -json document and checks the stateful
// search statistics made it through with sane values.
func TestJSONReportShape(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-alg", "yatree", "-n", "2", "-crashes", "1", "-max", "20000", "-stress", "0", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc jsonReport
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("decoding -json output: %v\n%s", err, out)
	}
	if !doc.OK || doc.Algorithm != "yatree" || !doc.Memo || !doc.POR {
		t.Fatalf("unexpected report header: %+v", doc)
	}
	ex := doc.Exhaustive
	if ex.StatesVisited == 0 || ex.Complete == 0 {
		t.Fatalf("missing search statistics: %+v", ex)
	}
	if ex.Truncated || ex.DepthTruncated != 0 {
		t.Fatalf("unexpected truncation on a completing search: %+v", ex)
	}
	if ex.MachineSteps < ex.ReplaySteps || ex.MachineSteps == 0 {
		t.Fatalf("implausible step accounting: %+v", ex)
	}
	if doc.Stress != nil {
		t.Fatal("stress report present despite -stress 0")
	}
}

// TestJSONReportScaleOutShape covers the scale-out flags end to end: the
// -json document must carry the new header fields and counters, and a
// -resume of a finished checkpoint must reproduce the document byte for
// byte without re-exploring.
func TestJSONReportScaleOutShape(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-alg", "rspin", "-n", "2", "-crashes", "1", "-max", "20000", "-stress", "0",
		"-symmetry", "-sharedset", "-wave", "1", "-spilldir", dir, "-json"}
	out, err := captureStdout(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	var doc jsonReport
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("decoding -json output: %v\n%s", err, out)
	}
	if !doc.Symmetry || !doc.SharedSet || doc.WaveSize != 1 || !doc.Memo {
		t.Fatalf("scale-out header fields wrong: %+v", doc)
	}
	ex := doc.Exhaustive
	if ex.Waves == 0 || ex.StatesVisited == 0 {
		t.Fatalf("scale-out counters missing: %+v", ex)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatalf("no checkpoint manifest written: %v", err)
	}
	resumed, err := captureStdout(t, func() error { return run(append(args, "-resume")) })
	if err != nil {
		t.Fatalf("-resume: %v", err)
	}
	if resumed != out {
		t.Fatalf("-resume of a finished checkpoint differs:\n--- original ---\n%s\n--- resumed ---\n%s", out, resumed)
	}
	raw := map[string]json.RawMessage{}
	if err := json.Unmarshal([]byte(out), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"symmetry", "sharedset", "wave"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("-json document missing %q key:\n%s", key, out)
		}
	}
}

// TestTextOutputSurfacesScaleOutStats: -sharedset adds the wave/shared-prune
// line to the text report and the header reflects -symmetry.
func TestTextOutputSurfacesScaleOutStats(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-alg", "rspin", "-n", "2", "-crashes", "1", "-max", "20000", "-stress", "0",
			"-symmetry", "-sharedset", "-wave", "1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"symmetry=true", "shared: ", "waves", "states: ", "OK"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

// TestTextOutputSurfacesSearchStats: the text report must show the
// depth-truncation count and, when memoizing, the state statistics; with the
// reductions off the state line disappears and the run still passes.
func TestTextOutputSurfacesSearchStats(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-alg", "ticket", "-n", "2", "-crashes", "0", "-stress", "0"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"memo=true por=true", "depth-truncated prefixes: 0", "states: ", "steps: ", "OK"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
	plain, err := captureStdout(t, func() error {
		return run([]string{"-alg", "ticket", "-n", "2", "-crashes", "0", "-stress", "0", "-memo=false", "-por=false"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain, "states: ") {
		t.Fatalf("plain mode printed memo statistics:\n%s", plain)
	}
	if !strings.Contains(plain, "memo=false por=false") || !strings.Contains(plain, "OK") {
		t.Fatalf("plain run output unexpected:\n%s", plain)
	}
}

// TestNameFlags: -alg resolves through the shared registry (case-insensitive,
// so every name the registry knows is accepted), and an unknown -model is an
// error naming the value rather than a silent CC run.
func TestNameFlags(t *testing.T) {
	for _, alg := range []string{"WATree", "watree-fast", "watree2"} {
		if _, err := captureStdout(t, func() error {
			return run([]string{"-alg", alg, "-n", "2", "-crashes", "0", "-stress", "0"})
		}); err != nil {
			t.Errorf("-alg %s: %v", alg, err)
		}
	}
	err := run([]string{"-model", "dms", "-n", "2", "-stress", "0"})
	if err == nil || !strings.Contains(err.Error(), `"dms"`) {
		t.Fatalf("-model dms: err = %v; want an error naming the value", err)
	}
}

// TestFailedSearchRunsNoStress: stress runs only after a clean exhaustive
// search, so a failing search reports no stress phase in text or -json.
func TestFailedSearchRunsNoStress(t *testing.T) {
	cfg := check.Config{
		Session:        mutex.Config{Procs: 2, Width: 8, Model: sim.CC, Algorithm: faults.BrokenTAS{}},
		CrashesPerProc: 1,
		Memo:           true,
		POR:            true,
	}
	for _, jsonOut := range []bool{false, true} {
		out, err := captureStdout(t, func() error {
			_, _, err := search(cfg, 50, jsonOut)
			return err
		})
		if err == nil {
			t.Fatalf("json=%v: broken-tas passed the search:\n%s", jsonOut, out)
		}
		if jsonOut {
			var doc map[string]json.RawMessage
			if err := json.Unmarshal([]byte(out), &doc); err != nil {
				t.Fatalf("decoding -json output: %v\n%s", err, out)
			}
			if _, ok := doc["stress"]; ok || string(doc["ok"]) != "false" {
				t.Errorf("-json after a failed search: want ok false and no stress key:\n%s", out)
			}
			continue
		}
		failures := strings.Contains(out, "VIOLATION") || strings.Contains(out, "DEADLOCK")
		if strings.Contains(out, "stress:") || !failures {
			t.Errorf("text after a failed search: want its failures and no stress phase:\n%s", out)
		}
	}
}

// TestNonPositiveBudgetFlagsRejected: check.Config reads a 0 cap as its
// default, so a 0 flag would record one search under two config digests;
// each such flag is an error naming it.
func TestNonPositiveBudgetFlagsRejected(t *testing.T) {
	for _, name := range []string{"-max", "-maxstates", "-wave"} {
		err := run([]string{"-alg", "rspin", "-n", "2", "-stress", "0", name, "0"})
		if err == nil || !strings.HasPrefix(err.Error(), name+" ") {
			t.Errorf("%s 0: err = %v; want an error naming %s", name, err, name)
		}
	}
}
