package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rme/internal/telemetry"
)

// TestJSONParityWithTelemetry is the determinism acceptance check: the -json
// document must be byte-identical with heartbeats and the metrics stream on
// or off, at -parallel 1 and 8. Telemetry is write-only off the result path.
func TestJSONParityWithTelemetry(t *testing.T) {
	base := []string{"-alg", "yatree", "-n", "2", "-crashes", "1", "-max", "20000", "-stress", "50", "-json"}
	dir := t.TempDir()
	variant := func(name string, extra ...string) string {
		t.Helper()
		out, err := captureStdout(t, func() error {
			return run(append(append([]string{}, base...), extra...))
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return out
	}
	off1 := variant("off-parallel1", "-parallel", "1")
	off8 := variant("off-parallel8", "-parallel", "8")
	on1 := variant("on-parallel1", "-parallel", "1",
		"-heartbeat", "2ms", "-metrics", filepath.Join(dir, "p1.jsonl"))
	on8 := variant("on-parallel8", "-parallel", "8",
		"-heartbeat", "2ms", "-metrics", filepath.Join(dir, "p8.jsonl"))
	if len(off1) == 0 {
		t.Fatal("no output captured")
	}
	for name, got := range map[string]string{"off-parallel8": off8, "on-parallel1": on1, "on-parallel8": on8} {
		if got != off1 {
			t.Fatalf("stdout differs with telemetry (%s):\n--- baseline ---\n%s\n--- %s ---\n%s", name, off1, name, got)
		}
	}
}

// TestHeartbeatStreamMatchesResult is the accounting acceptance check: a
// heartbeat-enabled search emits at least two snapshots, bracketed by a
// baseline and a final record, and the final cumulative record accounts for
// the reported Result on every mirrored counter. Without a budget
// redistribution round it equals the Result field for field. With one (the
// private redistribution anchor of runs/baseline.jsonl) the monotonic
// counters also hold the work of the passes a rerun replaced, while the
// Result keeps only each root branch's final pass, so every counter is at
// least its Result field.
func TestHeartbeatStreamMatchesResult(t *testing.T) {
	for _, tc := range []struct {
		name        string
		args        []string
		budgetRound bool
	}{
		{"untruncated", []string{"-alg", "yatree", "-n", "2", "-crashes", "1"}, false},
		{"budget-round", []string{"-alg", "rspin", "-n", "2", "-crashes", "1", "-por=false",
			"-max", "100", "-maxstates", "4000"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "metrics.jsonl")
			args := append(append([]string{}, tc.args...),
				"-stress", "0", "-json", "-heartbeat", "1ms", "-metrics", path)
			out, err := captureStdout(t, func() error { return run(args) })
			if err != nil {
				t.Fatal(err)
			}
			var doc jsonReport
			if err := json.Unmarshal([]byte(out), &doc); err != nil {
				t.Fatalf("decoding -json output: %v\n%s", err, out)
			}
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
				t.Fatalf("want >= 2 snapshots, got %d", len(recs))
			}
			if recs[0].Final || !recs[len(recs)-1].Final {
				t.Fatalf("stream not bracketed by baseline and final records: first=%+v last=%+v",
					recs[0], recs[len(recs)-1])
			}
			final := recs[len(recs)-1].Metrics
			if rounds := final["check_budget_rounds"]; (rounds >= 1) != tc.budgetRound {
				t.Fatalf("check_budget_rounds = %d; this case needs a redistribution round: %t",
					rounds, tc.budgetRound)
			}
			ex := doc.Exhaustive
			for name, want := range map[string]int64{
				"check_states_visited":     int64(ex.StatesVisited),
				"check_states_pruned":      int64(ex.StatesPruned),
				"check_sleep_pruned":       int64(ex.SleepPruned),
				"check_schedules_complete": int64(ex.Complete),
				"check_machine_steps":      ex.MachineSteps,
				"check_replay_steps":       ex.ReplaySteps,
			} {
				if got := final[name]; got != want && !(tc.budgetRound && got > want) {
					t.Errorf("final %s = %d, Result field %d", name, got, want)
				}
			}
			if ex.StatesVisited == 0 {
				t.Fatal("search visited no states; the checks above are vacuous")
			}
		})
	}
}

// debugServedRun launches run(args) in a goroutine with stdout silenced and
// stderr piped, parses the "debug server on ..." announcement, and returns
// the bound address plus the run's completion channel.
func debugServedRun(t *testing.T, args []string) (string, chan error) {
	t.Helper()
	rErr, wErr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = devnull, wErr
	t.Cleanup(func() {
		os.Stdout, os.Stderr = oldOut, oldErr
		devnull.Close()
		wErr.Close()
		rErr.Close()
	})
	done := make(chan error, 1)
	go func() { done <- run(args) }()
	br := bufio.NewReader(rErr)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("reading debug announcement: %v", err)
	}
	go io.Copy(io.Discard, br) // keep draining stderr so the run never blocks
	const marker = "debug server on http://"
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("no debug server announcement, got %q", line)
	}
	return strings.Fields(line[i+len(marker):])[0], done
}

// pollGet fetches url until the body contains want (the run may not have
// populated the registry at the first scrape).
func pollGet(t *testing.T, url, want string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK && strings.Contains(string(body), want) {
				return string(body)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s: never saw %q (last err %v)", url, want, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDebugEndpointsDuringSearch is the -debugaddr integration check: while
// a search runs, /metrics (both formats), /debug/vars and /debug/pprof all
// answer on the announced address.
func TestDebugEndpointsDuringSearch(t *testing.T) {
	addr, done := debugServedRun(t, []string{
		"-alg", "yatree", "-n", "2", "-crashes", "1", "-max", "1000",
		"-stress", "50000", "-parallel", "1", "-debugaddr", "127.0.0.1:0",
	})
	base := "http://" + addr

	prom := pollGet(t, base+"/metrics", "check_states_visited")
	if !strings.Contains(prom, "# TYPE check_states_visited counter") {
		t.Errorf("prometheus exposition missing TYPE line:\n%s", prom)
	}
	var js struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(pollGet(t, base+"/metrics?format=json", "check_states_visited")), &js); err != nil {
		t.Errorf("JSON /metrics: %v", err)
	} else if js.Counters["check_states_visited"] == 0 {
		t.Errorf("JSON /metrics shows no visited states: %v", js.Counters)
	}
	pollGet(t, base+"/debug/vars", "rme_telemetry")
	pollGet(t, base+"/debug/pprof/", "goroutine")

	if err := <-done; err != nil {
		t.Fatalf("instrumented run failed: %v", err)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile write non-empty pprof files.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	_, err := captureStdout(t, func() error {
		return run([]string{"-alg", "yatree", "-n", "2", "-crashes", "1", "-stress", "50",
			"-cpuprofile", cpu, "-memprofile", mem})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
}
