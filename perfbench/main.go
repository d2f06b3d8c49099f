// Command perfbench is the repository's end-to-end and per-layer benchmark.
//
// It runs one named workload for a fixed time, checks every pass's outputs
// against pinned values, and prints its metrics; the last line of standard
// output is one JSON object. With -trace 0 it reports the end-to-end
// metrics of the chosen workload. With -trace 1 it runs the layer ladder
// and one untraced and one traced pass of every workload, and reports the
// per-layer metrics; spans go to a JSONL file. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"rme/internal/perfstat"
	"rme/internal/telemetry"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced run's metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"work_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"max_rss_mb", "MB"},
}

// perLayer lists the traced run's metrics with their units, ladder first.
var perLayer = []struct{ name, unit string }{
	{"memory.apply_ns", "ns"},
	{"sim.step_ns", "ns"},
	{"sim.step_allocs", "allocs/op"},
	{"sim.cached_cells_ns", "ns"},
	{"sim.fingerprint_ns", "ns"},
	{"mutex.canonical_key_ns.rspin4", "ns"},
	{"mutex.build_ns.n256", "ns"},
	{"mutex.build_allocs.n256", "allocs/op"},
	{"mutex.reset_ns.n256", "ns"},
	{"mutex.reset_allocs.n256", "allocs/op"},
	{"mutex.reset_ns.n8", "ns"},
	{"mutex.reset_allocs.n8", "allocs/op"},
	{"mutex.passage_ns.n8", "ns"},
	{"mutex.fresh_run_ms.n64", "ms"},
	{"engine.reset_run_ms.n64", "ms"},
	{"engine.pool_spec_ns", "ns"},
	{"service.stream_ns_per_arrival", "ns"},

	{"adversary.new_s", "s"},
	{"adversary.run_s", "s"},
	{"adversary.run_s.yatree256", "s"},
	{"adversary.replays", "count"},
	{"adversary.rollbacks", "count"},
	{"adversary.rollback_ratio", "ratio"},
	{"adversary.hiding_attempts", "count"},
	{"adversary.hiding_wins", "count"},
	{"adversary.hiding_win_ratio", "ratio"},
	{"adversary.rounds", "count"},
	{"adversary.ms_per_replay", "ms"},
	{"engine.session_reuse.adversary-e1", "count"},
	{"engine.session_build.adversary-e1", "count"},
	{"engine.reuse_ratio.adversary-e1", "ratio"},

	{"check.states_visited", "count"},
	{"check.states_pruned", "count"},
	{"check.sleep_pruned", "count"},
	{"check.shared_pruned", "count"},
	{"check.machine_steps", "count"},
	{"check.replay_steps", "count"},
	{"check.replay_ratio", "ratio"},
	{"check.prune_ratio", "ratio"},
	{"check.us_per_state", "us"},
	{"check.ns_per_machine_step", "ns"},
	{"check.restore_len_mean", "steps"},

	{"service.passages", "count"},
	{"service.rounds", "count"},
	{"service.arrivals", "count"},
	{"service.steps", "count"},
	{"service.us_per_passage", "us"},
	{"service.ns_per_step", "ns"},
	{"engine.busy_frac", "frac"},
	{"engine.session_reuse", "count"},
	{"engine.session_build", "count"},
	{"engine.reuse_ratio", "ratio"},

	{"trace.overhead_frac.adversary-e1", "frac"},
	{"trace.overhead_frac.checker-certify", "frac"},
	{"trace.overhead_frac.service-zipf", "frac"},
}

// enginePar is the engine worker count of service-zipf and of the ladder's
// pool rung: one per CPU of the two-CPU box the baseline was recorded on.
const enginePar = 2

// Set-up is repeated until it has taken setupBudget, at least minSetupReps
// and at most maxSetupReps times; setup_s is the median repetition.
const (
	setupBudget  = 300 * time.Millisecond
	minSetupReps = 5
	maxSetupReps = 500
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: adversary-e1, checker-certify or service-zipf")
	seed := fs.Int64("seed", 0, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 10, "how long the untraced run keeps starting passes")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or -trace %d\n", *name, *trace)
		return 2
	}
	var res result
	var err error
	if *trace == 1 {
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
		res, err = runTraced(*seed, path, stderr)
	} else {
		res, err = runEndToEnd(w, *seed, time.Duration(*seconds*float64(time.Second)), stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	alloc   uint64
	maxRSSb int64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		maxRSSb: ru.Maxrss * 1024, // Linux reports kilobytes
	}
}

func median(vals []float64) float64 { return perfstat.Summarize(vals).Median }

// runEndToEnd times set-up, then runs untraced passes of w until the run
// has lasted d, and reports medians over the passes.
func runEndToEnd(w workload, seed int64, d time.Duration, stderr io.Writer) (result, error) {
	var setups []float64
	var pass passFunc
	var spent time.Duration
	for len(setups) < minSetupReps || (spent < setupBudget && len(setups) < maxSetupReps) {
		runtime.GC()
		t0 := time.Now()
		p, err := w.prepare(seed, w.parallel)
		dt := time.Since(t0)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		pass = p
		spent += dt
		setups = append(setups, dt.Seconds())
	}

	var walls, cpus, allocs, rates []float64
	res := result{Correct: true}
	deadline := time.Now().Add(d)
	for res.Attempted == 0 || time.Now().Before(deadline) {
		runtime.GC()
		u0 := readUsage()
		out, err := pass(nil, nil)
		u1 := readUsage()
		res.Attempted++
		wall := u1.wall.Sub(u0.wall).Seconds()
		if err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(stderr, "%s pass %d FAILED: %v\n", w.name, res.Attempted, err)
		} else {
			fmt.Fprintf(stderr, "%s pass %d: %.3fs, %d %s, digest %.16s\n",
				w.name, res.Attempted, wall, out.work, w.unit, out.digest)
		}
		walls = append(walls, wall)
		cpus = append(cpus, (u1.cpu - u0.cpu).Seconds())
		allocs = append(allocs, float64(u1.alloc-u0.alloc)/1e6)
		rates = append(rates, ratio(float64(out.work), wall))
	}
	vals := map[string]float64{
		"setup_s":    median(setups),
		"wall_s":     median(walls),
		"cpu_s":      median(cpus),
		"work_per_s": median(rates),
		"alloc_mb":   median(allocs),
		"max_rss_mb": float64(readUsage().maxRSSb) / 1e6,
	}
	res.Metrics = make(map[string]metric, len(endToEnd))
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return res, nil
}

// runTraced runs the layer ladder, then for every workload one untraced and
// one traced pass, and reports the per-layer metrics. The chosen workload
// only names the span file: the per-layer list covers every layer, so
// every traced run measures all of them.
func runTraced(seed int64, spansPath string, stderr io.Writer) (result, error) {
	tr := newTracer()
	vals := map[string]float64{}
	res := result{Correct: true}
	if err := runLadder(tr, vals); err != nil {
		res.Correct = false
		res.Failed++
		fmt.Fprintf(stderr, "FAILED: %v\n", err)
	}
	for _, w := range workloads {
		pass, err := w.prepare(seed, w.parallel)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		runtime.GC()
		t0 := time.Now()
		_, errPlain := pass(nil, nil)
		plain := time.Since(t0)
		runtime.GC()
		reg := telemetry.New()
		tr.begin("pass", w.name)
		out, errTraced := pass(tr, reg)
		traced := tr.end()
		for _, e := range []error{errPlain, errTraced} {
			res.Attempted++
			if e != nil {
				res.Failed++
				res.Correct = false
				fmt.Fprintf(stderr, "%s FAILED: %v\n", w.name, e)
			}
		}
		for k, v := range out.layers {
			vals[k] = v
		}
		vals["trace.overhead_frac."+w.name] = traced.Seconds()/plain.Seconds() - 1
		fmt.Fprintf(stderr, "%s: untraced %.3fs, traced %.3fs\n", w.name, plain.Seconds(), traced.Seconds())
	}
	res.Attempted++ // the ladder
	if err := tr.write(spansPath); err != nil {
		return result{}, err
	}
	res.Metrics = make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok {
			res.Correct = false
			fmt.Fprintf(stderr, "metric %s was not measured\n", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}
