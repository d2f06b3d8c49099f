// Command rmrbench regenerates the repository's experiment tables (E1–E8
// plus the extension experiments E9–E12),
// one per quantitative claim of "Word-Size RMR Tradeoffs for Recoverable
// Mutual Exclusion" (PODC 2023). See DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded output.
//
// Grids run on the engine's deterministic worker pool: the rendered tables
// are byte-identical at any -parallel value (including 1), only wall time
// changes. A machine-readable summary — wall time, run counts, and RMR
// statistics per experiment — is written to the -json path.
//
// Step-level observability: -trace FILE captures every engine run's event
// stream (JSONL, or Chrome trace_event JSON with -traceformat chrome, for
// Perfetto); -top N prints the hottest cells and costliest processes so a
// surprising table entry can be attributed to a specific access pattern.
// -cpuprofile/-memprofile write pprof profiles of the bench itself.
//
// Usage:
//
//	rmrbench [-full] [-only E2,E5] [-seed S] [-parallel N] [-json BENCH_results.json]
//	         [-trace FILE] [-traceformat jsonl|chrome] [-top N]
//	         [-cpuprofile FILE] [-memprofile FILE]
//	         [-heartbeat DUR] [-metrics FILE] [-debugaddr ADDR]
//	         [-ledger runs/ledger.jsonl] [-runlabel LABEL] [-version]
//
// The -json report merges into an existing file keyed by experiment id, so a
// partial rerun (-only E2) updates only the experiments it ran. -ledger
// appends one perf-ledger manifest per experiment (see internal/perflog and
// cmd/rmereport) for cross-run regression gating.
//
// -heartbeat prints live engine statistics (runs/sec, worker utilization)
// to stderr while the grids execute; -metrics appends JSONL metric
// snapshots; -debugaddr serves /metrics, /debug/vars and /debug/pprof. All
// three are strictly observational: the tables stay byte-identical.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rme/internal/cliutil"
	"rme/internal/engine"
	"rme/internal/harness"
	"rme/internal/perflog"
	"rme/internal/sim"
	"rme/internal/telemetry"
	"rme/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rmrbench:", err)
		os.Exit(1)
	}
}

// experimentRecord is one experiment's entry in the JSON report.
type experimentRecord struct {
	ID     string  `json:"id"`
	Title  string  `json:"title"`
	WallMS float64 `json:"wall_ms"`
	Tables int     `json:"tables"`
	engine.MetricsSnapshot
}

// benchReport is the top-level JSON report.
type benchReport struct {
	Full        bool               `json:"full"`
	Parallel    int                `json:"parallel"`
	Seed        int64              `json:"seed"`
	TotalWallMS float64            `json:"total_wall_ms"`
	Provenance  perflog.Provenance `json:"provenance"`
	Experiments []experimentRecord `json:"experiments"`
}

// mergeResults folds the new report into an existing results file instead of
// overwriting it: experiments union keyed by id (existing order kept, same-id
// entries replaced, new ids appended), run scalars and provenance taken from
// the new run, and unknown top-level keys (e.g. the native backend's section)
// preserved untouched. A partial rerun (-only E2) therefore updates exactly
// the experiments it ran. Mirrors rmenative -merge.
func mergeResults(existing []byte, report benchReport) ([]byte, error) {
	doc := map[string]json.RawMessage{}
	if len(existing) > 0 {
		if err := json.Unmarshal(existing, &doc); err != nil {
			return nil, fmt.Errorf("existing results: %w", err)
		}
	}
	var old []experimentRecord
	if raw, ok := doc["experiments"]; ok {
		if err := json.Unmarshal(raw, &old); err != nil {
			return nil, fmt.Errorf("existing experiments: %w", err)
		}
	}
	newByID := make(map[string]int, len(report.Experiments))
	for i, e := range report.Experiments {
		newByID[e.ID] = i
	}
	merged := make([]experimentRecord, 0, len(old)+len(report.Experiments))
	used := make(map[string]bool, len(newByID))
	for _, e := range old {
		if i, ok := newByID[e.ID]; ok {
			merged = append(merged, report.Experiments[i])
			used[e.ID] = true
		} else {
			merged = append(merged, e)
		}
	}
	for _, e := range report.Experiments {
		if !used[e.ID] {
			merged = append(merged, e)
		}
	}
	report.Experiments = merged

	// Re-encode the merged report over the old document so unknown keys
	// survive the round trip.
	blob, err := json.Marshal(report)
	if err != nil {
		return nil, err
	}
	fresh := map[string]json.RawMessage{}
	if err := json.Unmarshal(blob, &fresh); err != nil {
		return nil, err
	}
	for k, v := range fresh {
		doc[k] = v
	}
	return json.MarshalIndent(doc, "", "  ")
}

// Counters returns the engine metrics' counters plus the table count.
func (r experimentRecord) Counters() map[string]int64 {
	c := r.MetricsSnapshot.Counters()
	c["tables"] = int64(r.Tables)
	return c
}

func run(args []string) error {
	fs := flag.NewFlagSet("rmrbench", flag.ContinueOnError)
	full := fs.Bool("full", false, "run the enlarged parameter sweeps")
	only := fs.String("only", "", "comma-separated experiment ids (e.g. E1,E5); default all")
	parallel := fs.Int("parallel", 0, "engine workers per experiment grid (0 = GOMAXPROCS); tables are identical at any value")
	jsonPath := fs.String("json", "BENCH_results.json", "machine-readable report path (empty to skip)")
	seed := fs.Int64("seed", 0, "offset for the experiments' base seeds (0 = the published tables)")
	diag := cliutil.Flags(fs)
	tr := diag.TraceFlags(fs, "write a step-level trace of every engine run to this file",
		"print the N hottest cells/procs from the captured trace (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	view := telemetry.View{
		Progress:    "engine_runs",
		UtilBusy:    "engine_busy_ns",
		UtilWorkers: "engine_workers",
	}
	return diag.Do("bench", view, func() ([]*perflog.Manifest, error) {
		var capture *trace.Capture
		if tr.Enabled() {
			capture = &trace.Capture{}
		}

		want := map[string]bool{}
		if *only != "" {
			for _, id := range strings.Split(*only, ",") {
				want[strings.ToUpper(strings.TrimSpace(id))] = true
			}
		}

		report := benchReport{Full: *full, Parallel: engine.Parallelism(*parallel), Seed: *seed, Provenance: perflog.Build()}
		benchStart := time.Now()
		for _, exp := range harness.All() {
			if len(want) > 0 && !want[exp.ID] {
				continue
			}
			fmt.Printf("=== %s: %s\n", exp.ID, exp.Title)
			fmt.Printf("    claim: %s\n\n", exp.Claim)
			metrics := &engine.Metrics{}
			opts := harness.Options{Full: *full, Parallel: *parallel, Metrics: metrics, Seed: *seed, Trace: capture, Telemetry: diag.Registry()}
			start := time.Now()
			tables, err := exp.Run(opts)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", exp.ID, err)
			}
			wall := time.Since(start)
			for i := range tables {
				tables[i].Render(os.Stdout)
			}
			// Timings go to stderr: stdout is byte-identical at any -parallel
			// value, so runs can be diffed directly.
			fmt.Fprintf(os.Stderr, "    (%s in %v)\n\n", exp.ID, wall.Round(time.Millisecond))
			report.Experiments = append(report.Experiments, experimentRecord{
				ID:              exp.ID,
				Title:           exp.Title,
				WallMS:          float64(wall.Microseconds()) / 1000,
				Tables:          len(tables),
				MetricsSnapshot: metrics.Snapshot(),
			})
		}
		report.TotalWallMS = float64(time.Since(benchStart).Microseconds()) / 1000

		if capture != nil {
			// The summary is as deterministic as the tables, so it shares stdout.
			if err := tr.Write(os.Stdout, capture.Runs(), sim.CC); err != nil {
				return nil, err
			}
		}

		if *jsonPath != "" {
			existing, err := os.ReadFile(*jsonPath)
			if err != nil && !os.IsNotExist(err) {
				return nil, err
			}
			blob, err := mergeResults(existing, report)
			if err != nil {
				return nil, err
			}
			if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "wrote %s (%d experiments this run, %.0f ms total)\n",
				*jsonPath, len(report.Experiments), report.TotalWallMS)
		}

		// One perf-ledger entry per experiment. The semantic config is the
		// experiment's identity (id, sweep size, seed offset) — not the -only
		// list or -parallel — so a full baseline run gates a subset rerun.
		ms := make([]*perflog.Manifest, len(report.Experiments))
		for i, rec := range report.Experiments {
			m := perflog.New("rmrbench")
			m.SetConfig("experiment", rec.ID)
			m.SetConfig("full", *full)
			m.SetConfig("seed", *seed)
			m.AddCounters("", rec.Counters())
			m.Sample("wall_ms", rec.WallMS)
			ms[i] = m
		}
		return ms, nil
	})
}
