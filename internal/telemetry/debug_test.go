package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServeDebug exercises every endpoint of the opt-in debug server:
// /metrics, expvar's rme_telemetry entry, and the pprof index.
func TestServeDebug(t *testing.T) {
	reg := New()
	reg.Counter("check_states_visited").Add(41)
	reg.Histogram("check_restore_replay_len", []int64{8}).Observe(3)

	d, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := "http://" + d.Addr()

	// Prometheus text by default; the counter moves between scrapes.
	code, body := get(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "# TYPE check_states_visited counter") ||
		!strings.Contains(body, "check_states_visited 41") {
		t.Fatalf("prometheus /metrics: %d\n%s", code, body)
	}
	if !strings.Contains(body, `check_restore_replay_len_bucket{le="+Inf"} 1`) {
		t.Fatalf("histogram missing from exposition:\n%s", body)
	}
	reg.Counter("check_states_visited").Add(1)
	if _, body := get(t, base+"/metrics"); !strings.Contains(body, "check_states_visited 42") {
		t.Fatalf("scrape not live:\n%s", body)
	}

	// expvar: rme_telemetry is the registry's flat series, histograms as
	// _count and _sum.
	code, body = get(t, base+"/debug/vars")
	var vars struct {
		Telemetry map[string]int64 `json:"rme_telemetry"`
	}
	if err := json.Unmarshal([]byte(body), &vars); code != http.StatusOK || err != nil {
		t.Fatalf("expvar: %d %v\n%s", code, err, body)
	}
	if vars.Telemetry["check_states_visited"] != 42 || vars.Telemetry["check_restore_replay_len_count"] != 1 ||
		vars.Telemetry["check_restore_replay_len_sum"] != 3 {
		t.Fatalf("expvar rme_telemetry = %v", vars.Telemetry)
	}

	// pprof index and a cheap profile endpoint.
	if code, body := get(t, base+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: %d\n%s", code, body)
	}
	if code, _ := get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof cmdline: %d", code)
	}
}

// TestServeDebugRebind: a second server (fresh registry) must serve the new
// registry's values through the shared expvar publication.
func TestServeDebugRebind(t *testing.T) {
	first, err := ServeDebug("127.0.0.1:0", New())
	if err != nil {
		t.Fatal(err)
	}
	first.Close()

	reg := New()
	reg.Counter("adversary_rounds").Add(9)
	second, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	_, body := get(t, "http://"+second.Addr()+"/debug/vars")
	if !strings.Contains(body, "adversary_rounds") {
		t.Fatalf("expvar not rebound to the live registry:\n%s", body)
	}
}

func TestServeDebugBadAddr(t *testing.T) {
	if _, err := ServeDebug("256.0.0.1:-1", New()); err == nil {
		t.Fatal("bad address accepted")
	}
}
