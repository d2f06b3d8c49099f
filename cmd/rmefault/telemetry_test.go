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
)

// TestJSONParityWithTelemetry is the determinism acceptance check for the
// campaign CLI: the -json document must be byte-identical with heartbeats
// and the metrics stream on or off, at -parallel 1 and 8.
func TestJSONParityWithTelemetry(t *testing.T) {
	base := []string{"-alg", "broken", "-n", "2", "-seed", "7", "-json"}
	dir := t.TempDir()
	variant := func(name string, extra ...string) string {
		t.Helper()
		out, err := captureStdout(t, func() error {
			return run(append(append([]string{}, base...), extra...))
		})
		if err == nil {
			t.Fatalf("%s: the broken algorithm campaign must exit with an error", name)
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

// pollGet fetches url until the body contains want (the campaign may not
// have populated the registry at the first scrape).
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

// TestDebugEndpointsDuringCampaign is the -debugaddr integration check:
// while a campaign runs, /metrics, /debug/vars and /debug/pprof all answer
// on the announced address.
func TestDebugEndpointsDuringCampaign(t *testing.T) {
	addr, done := debugServedRun(t, []string{
		"-alg", "yatree", "-n", "4", "-runs", "20000", "-parallel", "1",
		"-debugaddr", "127.0.0.1:0",
	})
	base := "http://" + addr

	prom := pollGet(t, base+"/metrics", "faults_runs")
	if !strings.Contains(prom, "# TYPE faults_runs counter") {
		t.Errorf("prometheus exposition missing TYPE line:\n%s", prom)
	}
	// faults_runs is registered before the first run completes; poll until
	// one shows.
	var vars struct {
		Telemetry map[string]int64 `json:"rme_telemetry"`
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if err := json.Unmarshal([]byte(pollGet(t, base+"/debug/vars", "rme_telemetry")), &vars); err != nil {
			t.Fatalf("/debug/vars: %v", err)
		}
		if vars.Telemetry["faults_runs"] > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/debug/vars shows no completed runs: %v", vars.Telemetry)
		}
	}
	pollGet(t, base+"/debug/pprof/", "goroutine")

	if err := <-done; err != nil {
		t.Fatalf("clean campaign failed: %v", err)
	}
}
