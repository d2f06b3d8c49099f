// Command rmenative benchmarks the algorithm family on real silicon: the
// same entry/exit/recover protocol sources that the simulator counts RMRs
// for run here on sync/atomic cells via mutex.NativeLock, under true
// goroutine concurrency, swept across GOMAXPROCS values.
//
// For every (algorithm, n) point the tool measures wall-clock throughput
// (passages/sec) and per-passage latency — raw samples for exact
// percentiles, and fixed-bucket histograms in the telemetry registry
// (visible live via -heartbeat/-metrics/-debugaddr). Each point is
// paired with the simulator's CC-RMR cost for the same (algorithm, n), so
// the report correlates measured hardware behaviour against the paper's
// cost model — experiment E14 in EXPERIMENTS.md, the Θ(log_w n) tradeoff
// curve as silicon sees it. What the native side cannot observe is RMRs
// themselves (cache-line traffic belongs to the hardware); the correlation
// is precisely the point of measuring both sides.
//
// Usage:
//
//	rmenative [-algs watree,mcs,clh,ticket,qword] [-procs 1,2,4,8]
//	          [-passes N] [-warmup N] [-width W] [-crashevery K] [-nosim]
//	          [-cpuprofile FILE] [-memprofile FILE]
//	          [-heartbeat DUR] [-metrics FILE] [-debugaddr ADDR]
//	          [-ledger runs/ledger.jsonl] [-runlabel LABEL] [-version]
//
// The human table goes to stdout and timings to stderr. The machine-readable
// record is one perf-ledger manifest per point (-ledger): the simulator
// correlation as counters, and throughput, the latency summary and the
// injected crash count as advisory wall samples. Unlike rmrbench's tables,
// numbers here are measurements of real time and are not expected to be
// reproducible byte-for-byte.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rme"

	"rme/internal/cliutil"
	"rme/internal/mutex"
	"rme/internal/perflog"
	"rme/internal/perfstat"
	"rme/internal/sim"
	"rme/internal/telemetry"
	"rme/internal/word"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rmenative:", err)
		os.Exit(1)
	}
}

// latencyBounds are the histogram bucket upper bounds in nanoseconds,
// roughly quarter-decade spaced from 250ns to 64ms: wide enough for an
// uncontended fast path and for a passage that absorbed a crash-recover
// cycle or a scheduler descheduling.
var latencyBounds = []int64{
	250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 4_000_000, 16_000_000, 64_000_000,
}

// latencySummary holds exact percentiles from the raw samples.
type latencySummary struct {
	MinNS  int64
	P50NS  int64
	P90NS  int64
	P99NS  int64
	MaxNS  int64
	MeanNS float64
}

// pointRecord is one (algorithm, n) sweep point, run with GOMAXPROCS=n.
type pointRecord struct {
	Alg   string
	Procs int
	// CrashEvery is the injection interval the point ran with: -crashevery,
	// or 0 for an algorithm that is not recoverable.
	CrashEvery       int
	Crashes          int64
	WallMS           float64
	ThroughputPerSec float64
	Latency          latencySummary
	// The simulated CC-RMR cost of the same configuration: the model-side
	// variable of the E14 correlation.
	SimCCRMRPerPassageAvg float64
	SimCCRMRPerPassageMax int
}

// Counters returns the point's deterministic counters, the simulator-side
// correlation columns; what the hardware produced is advisory wall data.
func (pt pointRecord) Counters() map[string]int64 {
	return map[string]int64{
		"sim_cc_rmr_max":      int64(pt.SimCCRMRPerPassageMax),
		"sim_cc_rmr_avg_x100": int64(pt.SimCCRMRPerPassageAvg*100 + 0.5),
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rmenative", flag.ContinueOnError)
	algsFlag := fs.String("algs", "watree,mcs,clh,ticket,qword",
		"comma-separated algorithm names (see rme.Algorithms)")
	procsFlag := fs.String("procs", "1,2,4,8",
		"comma-separated GOMAXPROCS sweep: each value is both the process count and GOMAXPROCS")
	passes := fs.Int("passes", 2000, "timed super-passages per process per point")
	warmup := fs.Int("warmup", 200, "untimed warmup super-passages per process per point")
	widthFlag := fs.Uint("width", 64, "word width in bits")
	crashEvery := fs.Int("crashevery", 0,
		"inject a crash every K-th passage (0 = off; recoverable algorithms only)")
	noSim := fs.Bool("nosim", false, "skip the simulated CC-RMR correlation columns")
	diag := cliutil.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return diag.Do("native", telemetry.View{Progress: "native_passages"}, func() ([]*perflog.Manifest, error) {
		algs, err := parseAlgs(*algsFlag)
		if err != nil {
			return nil, err
		}
		sweep, err := parseInts(*procsFlag)
		if err != nil {
			return nil, fmt.Errorf("-procs: %w", err)
		}
		w := word.Width(*widthFlag)
		if !w.Valid() {
			return nil, fmt.Errorf("invalid width %d", *widthFlag)
		}
		prevMaxProcs := runtime.GOMAXPROCS(0)
		defer runtime.GOMAXPROCS(prevMaxProcs)

		var points []pointRecord
		start := time.Now()
		for _, alg := range algs {
			fmt.Printf("=== %s (w=%d)\n", alg.Name(), w)
			fmt.Printf("%6s %11s %14s %10s %10s %10s %10s %12s\n",
				"n", "gomaxprocs", "passages/sec", "p50", "p90", "p99", "max", "sim CC-RMR")
			for _, n := range sweep {
				pt, err := runPoint(alg, n, w, *passes, *warmup, *crashEvery, diag.Registry())
				if err != nil {
					return nil, fmt.Errorf("%s n=%d: %w", alg.Name(), n, err)
				}
				if !*noSim {
					if err := simCorrelate(alg, n, w, &pt); err != nil {
						fmt.Fprintf(os.Stderr, "    (sim correlation unavailable for %s n=%d: %v)\n",
							alg.Name(), n, err)
					}
				}
				simCol := "-"
				if pt.SimCCRMRPerPassageMax > 0 {
					simCol = fmt.Sprintf("%.1f/%d", pt.SimCCRMRPerPassageAvg, pt.SimCCRMRPerPassageMax)
				}
				fmt.Printf("%6d %11d %14.0f %10s %10s %10s %10s %12s\n",
					pt.Procs, pt.Procs, pt.ThroughputPerSec,
					ns(pt.Latency.P50NS), ns(pt.Latency.P90NS), ns(pt.Latency.P99NS),
					ns(pt.Latency.MaxNS), simCol)
				points = append(points, pt)
			}
			fmt.Println()
		}
		fmt.Fprintf(os.Stderr, "swept %d algorithms x %d points in %.0f ms\n",
			len(algs), len(sweep), float64(time.Since(start).Microseconds())/1000)

		// One perf-ledger entry per point, with counters only when the
		// simulator correlation ran.
		ms := make([]*perflog.Manifest, len(points))
		for i, pt := range points {
			m := perflog.New("rmenative")
			m.SetConfig("alg", pt.Alg)
			m.SetConfig("procs", pt.Procs)
			m.SetConfig("width", int(w))
			m.SetConfig("passes", *passes)
			m.SetConfig("warmup", *warmup)
			m.SetConfig("crashevery", pt.CrashEvery)
			m.SetConfig("nosim", *noSim)
			if !*noSim {
				m.AddCounters("", pt.Counters())
			}
			m.Sample("wall_ms", pt.WallMS)
			m.Sample("throughput_per_sec", pt.ThroughputPerSec)
			m.Sample("min_ns", float64(pt.Latency.MinNS))
			m.Sample("p50_ns", float64(pt.Latency.P50NS))
			m.Sample("p90_ns", float64(pt.Latency.P90NS))
			m.Sample("p99_ns", float64(pt.Latency.P99NS))
			m.Sample("max_ns", float64(pt.Latency.MaxNS))
			m.Sample("mean_ns", pt.Latency.MeanNS)
			m.Sample("crashes", float64(pt.Crashes))
			ms[i] = m
		}
		return ms, nil
	})
}

// runPoint measures one (algorithm, n) configuration with GOMAXPROCS=n,
// observing every passage into reg's latency histogram (reg may be nil).
func runPoint(alg mutex.Algorithm, n int, w word.Width, passes, warmup, crashEvery int, reg *telemetry.Registry) (pointRecord, error) {
	if crashEvery > 0 && !alg.Recoverable() {
		crashEvery = 0
	}
	lock, err := mutex.NewNativeLock(alg, n, w)
	if err != nil {
		return pointRecord{}, err
	}
	gmp := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(gmp)

	hist := reg.Histogram(telemetry.SanitizeName(fmt.Sprintf("native_latency_ns_%s_n%d", alg.Name(), n)), latencyBounds)
	passCtr := reg.Counter("native_passages")

	samples := make([][]int64, n)
	var crashes atomic.Int64
	var wg sync.WaitGroup
	var gate sync.WaitGroup // all goroutines bound and warmed before the clock starts
	gate.Add(n)
	release := make(chan struct{})
	for id := 0; id < n; id++ {
		id := id
		samples[id] = make([]int64, 0, passes)
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := lock.Bind(id)
			cs := func() {}
			for p := 0; p < warmup; p++ {
				h.Super(cs)
			}
			gate.Done()
			<-release
			for p := 0; p < passes; p++ {
				if crashEvery > 0 && p%crashEvery == crashEvery-1 {
					h.CrashAfter(int64((id*31 + p*7) % 40))
				}
				t0 := time.Now()
				h.Super(cs)
				d := time.Since(t0).Nanoseconds()
				samples[id] = append(samples[id], d)
				hist.Observe(d)
				passCtr.Inc()
				if crashEvery > 0 {
					h.CrashAfter(-1)
				}
			}
			crashes.Add(h.Crashes())
		}()
	}
	gate.Wait()
	t0 := time.Now()
	close(release)
	wg.Wait()
	wall := time.Since(t0)

	all := make([]int64, 0, n*passes)
	for _, s := range samples {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var sum int64
	for _, v := range all {
		sum += v
	}
	pt := pointRecord{
		Alg:              alg.Name(),
		Procs:            n,
		CrashEvery:       crashEvery,
		Crashes:          crashes.Load(),
		WallMS:           float64(wall.Microseconds()) / 1000,
		ThroughputPerSec: float64(len(all)) / wall.Seconds(),
	}
	if len(all) > 0 {
		pt.Latency = latencySummary{
			MinNS:  all[0],
			P50NS:  perfstat.Percentile(all, 50),
			P90NS:  perfstat.Percentile(all, 90),
			P99NS:  perfstat.Percentile(all, 99),
			MaxNS:  all[len(all)-1],
			MeanNS: float64(sum) / float64(len(all)),
		}
	}
	return pt, nil
}

// simCorrelate attaches the simulator's CC-RMR per-passage cost for the
// same (algorithm, n, width) — a deterministic round-robin run, the
// model-side variable of the E14 correlation.
func simCorrelate(alg mutex.Algorithm, n int, w word.Width, pt *pointRecord) error {
	s, err := mutex.NewSession(mutex.Config{
		Procs: n, Width: w, Model: sim.CC, Algorithm: alg, Passes: 2, NoTrace: true,
	})
	if err != nil {
		return err
	}
	defer s.Close()
	if err := s.RunRoundRobin(); err != nil {
		return err
	}
	stats := s.Stats()
	if len(stats) == 0 {
		return fmt.Errorf("no passages recorded")
	}
	total := 0
	for _, st := range stats {
		total += st.RMRs(sim.CC)
	}
	pt.SimCCRMRPerPassageAvg = float64(total) / float64(len(stats))
	pt.SimCCRMRPerPassageMax = s.MaxPassageRMRs(sim.CC)
	return nil
}

func parseAlgs(list string) ([]mutex.Algorithm, error) {
	var out []mutex.Algorithm
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		alg, err := rme.NewAlgorithm(name)
		if err != nil {
			return nil, err
		}
		out = append(out, alg)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no algorithms selected")
	}
	return out, nil
}

func parseInts(list string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad value %q", s)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// ns renders a nanosecond latency compactly.
func ns(v int64) string {
	switch {
	case v >= 10_000_000:
		return fmt.Sprintf("%.0fms", float64(v)/1e6)
	case v >= 10_000:
		return fmt.Sprintf("%.0fus", float64(v)/1e3)
	default:
		return fmt.Sprintf("%dns", v)
	}
}
