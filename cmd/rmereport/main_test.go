package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rme/internal/perflog"
)

// captureStdout runs fn with stdout redirected to a pipe and returns what it
// wrote, following the other cmd packages' convention.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldOut := os.Stdout
	os.Stdout = wr
	defer func() { os.Stdout = oldOut }()
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

// benchRun builds a plausible rmrbench-shaped manifest.
func benchRun(label, experiment string, steps, rmr int64, wallMS float64) *perflog.Manifest {
	m := perflog.New("rmrbench")
	m.Label = label
	m.SetConfig("experiment", experiment)
	m.SetConfig("full", false)
	m.SetConfig("seed", 0)
	m.Counters["steps"] = steps
	m.Counters["max_rmr"] = rmr
	m.Counters["runs"] = 15
	m.Sample("wall_ms", wallMS)
	return m
}

func writeLedger(t *testing.T, path string, ms ...*perflog.Manifest) {
	t.Helper()
	if err := perflog.Append(path, ms...); err != nil {
		t.Fatal(err)
	}
}

// TestRegressCleanRerun: a byte-identical rerun of the baseline
// configurations gates every counter and exits 0.
func TestRegressCleanRerun(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "baseline.jsonl")
	curPath := filepath.Join(dir, "current.jsonl")
	writeLedger(t, basePath,
		benchRun("baseline", "E1", 2323, 30, 10532),
		benchRun("baseline", "E2", 196638, 118, 356))
	writeLedger(t, curPath,
		benchRun("ci", "E2", 196638, 118, 341)) // wall differs; counters identical

	out, err := captureStdout(t, func() error {
		return run([]string{"regress", "-baseline", basePath, curPath})
	})
	if err != nil {
		t.Fatalf("clean rerun must exit 0: %v\n%s", err, out)
	}
	if !strings.Contains(out, "OK") || strings.Contains(out, "DRIFT") {
		t.Fatalf("unexpected regress output:\n%s", out)
	}
	// Only E2 was rerun; the E1 baseline entry must not gate anything.
	if !strings.Contains(out, "1 runs gated") {
		t.Fatalf("subset matching broken:\n%s", out)
	}
	// The wall-clock difference is reported, advisory only.
	if !strings.Contains(out, "advisory") {
		t.Fatalf("wall delta not reported:\n%s", out)
	}
}

// TestRegressSeededDrift: an RMR-count and a machine-step drift each fail
// the gate, naming the metric, both values, and the run's config digest.
func TestRegressSeededDrift(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "baseline.jsonl")
	writeLedger(t, basePath,
		benchRun("baseline", "E1", 2323, 30, 10532),
		benchRun("baseline", "E2", 196638, 118, 356))

	cases := []struct {
		name    string
		drifted *perflog.Manifest
		metric  string
		oldVal  string
		newVal  string
	}{
		{"rmr-count", benchRun("ci", "E1", 2323, 31, 9000), "max_rmr", "30", "31"},
		{"machine-steps", benchRun("ci", "E2", 196640, 118, 356), "steps", "196638", "196640"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			curPath := filepath.Join(dir, tc.name+".jsonl")
			writeLedger(t, curPath, tc.drifted)
			out, err := captureStdout(t, func() error {
				return run([]string{"regress", "-baseline", basePath, curPath})
			})
			if err == nil {
				t.Fatalf("seeded drift must exit non-zero:\n%s", out)
			}
			tc.drifted.Finalize()
			for _, want := range []string{
				"DRIFT", "metric=" + tc.metric,
				"baseline=" + tc.oldVal, "current=" + tc.newVal,
				"digest=" + tc.drifted.ConfigDigest[:12],
			} {
				if !strings.Contains(out, want) {
					t.Errorf("drift report missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestRegressMissingCounterIsDrift: a counter disappearing from the current
// run is drift too — the instrumented code changed what it records.
func TestRegressMissingCounterIsDrift(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.jsonl")
	curPath := filepath.Join(dir, "cur.jsonl")
	writeLedger(t, basePath, benchRun("baseline", "E1", 2323, 30, 1))
	cur := benchRun("ci", "E1", 2323, 30, 1)
	delete(cur.Counters, "max_rmr")
	writeLedger(t, curPath, cur)
	out, err := captureStdout(t, func() error {
		return run([]string{"regress", "-baseline", basePath, curPath})
	})
	if err == nil || !strings.Contains(out, "current=(absent)") {
		t.Fatalf("missing counter not flagged: err=%v\n%s", err, out)
	}
}

// TestRegressUnmatchedOnly: a ledger with no matching baseline entry gates
// nothing and fails loudly rather than passing vacuously.
func TestRegressUnmatchedOnly(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.jsonl")
	curPath := filepath.Join(dir, "cur.jsonl")
	writeLedger(t, basePath, benchRun("baseline", "E1", 2323, 30, 1))
	other := benchRun("ci", "E1", 2323, 30, 1)
	other.SetConfig("seed", 42) // different semantic config -> different digest
	writeLedger(t, curPath, other)
	out, err := captureStdout(t, func() error {
		return run([]string{"regress", "-baseline", basePath, curPath})
	})
	if err == nil || !strings.Contains(out, "no baseline entry") {
		t.Fatalf("vacuous pass: err=%v\n%s", err, out)
	}
}

// TestCompareFormats: the delta table renders in all three formats, shows
// counter drift, and marks an obvious wall-clock shift significant.
func TestCompareFormats(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.jsonl")
	newPath := filepath.Join(dir, "new.jsonl")
	// Five samples per side so Mann-Whitney has power.
	for i := 0; i < 5; i++ {
		writeLedger(t, oldPath, benchRun("a", "E2", 196638, 118, 300+float64(i)))
		writeLedger(t, newPath, benchRun("b", "E2", 196639, 118, 600+float64(i)))
	}

	text, err := captureStdout(t, func() error {
		return run([]string{"compare", oldPath, newPath})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "DRIFT") || !strings.Contains(text, "steps") {
		t.Fatalf("counter drift missing from text compare:\n%s", text)
	}
	if !strings.Contains(text, "wall ! wall_ms") {
		t.Fatalf("doubled wall_ms not marked significant:\n%s", text)
	}

	md, err := captureStdout(t, func() error {
		return run([]string{"compare", "-format", "markdown", oldPath, newPath})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(md, "| config | metric |") || !strings.Contains(md, "wall_ms") {
		t.Fatalf("markdown table malformed:\n%s", md)
	}

	js, err := captureStdout(t, func() error {
		return run([]string{"compare", "-format", "json", oldPath, newPath})
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Matched int `json:"matched"`
		Groups  []struct {
			Tool     string `json:"tool"`
			Counters []struct {
				Metric string `json:"metric"`
				Old    int64  `json:"old"`
				New    int64  `json:"new"`
			} `json:"counters"`
		} `json:"groups"`
	}
	if err := json.Unmarshal([]byte(js), &doc); err != nil {
		t.Fatalf("compare -format json: %v\n%s", err, js)
	}
	if doc.Matched != 1 || len(doc.Groups) != 1 || doc.Groups[0].Tool != "rmrbench" {
		t.Fatalf("json compare shape: %+v", doc)
	}
}

// TestHistoryFormats: the trajectory renders the metric across ledger order
// with tool/label filters, in all three formats.
func TestHistoryFormats(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.jsonl")
	writeLedger(t, path,
		benchRun("baseline", "E2", 196638, 118, 356),
		benchRun("pr-12", "E2", 196640, 118, 349))
	other := perflog.New("rmecheck")
	other.Counters["steps"] = 7
	writeLedger(t, path, other)

	text, err := captureStdout(t, func() error {
		return run([]string{"history", "-metric", "steps", "-tool", "rmrbench", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "196638") || !strings.Contains(text, "196640") {
		t.Fatalf("history values missing:\n%s", text)
	}
	if strings.Contains(text, "rmecheck") {
		t.Fatalf("-tool filter leaked another tool:\n%s", text)
	}

	js, err := captureStdout(t, func() error {
		return run([]string{"history", "-metric", "wall_ms", "-format", "json", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Rows []struct {
			Section string  `json:"section"`
			Value   float64 `json:"value"`
		} `json:"rows"`
	}
	if err := json.Unmarshal([]byte(js), &doc); err != nil {
		t.Fatalf("history json: %v\n%s", err, js)
	}
	if len(doc.Rows) != 2 || doc.Rows[0].Section != "wall" || doc.Rows[0].Value != 356 {
		t.Fatalf("history json rows: %+v", doc)
	}

	md, err := captureStdout(t, func() error {
		return run([]string{"history", "-metric", "steps", "-format", "markdown", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(md, "| run | tool |") {
		t.Fatalf("markdown history malformed:\n%s", md)
	}
}

// TestUsageErrors covers the CLI error paths.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"compare", "one-file-only"},
		{"history", "no-metric.jsonl"},
		{"regress", "no-baseline.jsonl"},
		{"compare", "-format", "xml", "a", "b"},
	} {
		if _, err := captureStdout(t, func() error { return run(args) }); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
}
