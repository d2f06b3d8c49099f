// Command rmrbench regenerates the repository's experiment tables (E1–E8
// plus the extension experiments E9–E12),
// one per quantitative claim of "Word-Size RMR Tradeoffs for Recoverable
// Mutual Exclusion" (PODC 2023). See DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded output.
//
// Grids run on the engine's deterministic worker pool: the rendered tables
// are byte-identical at any -parallel value (including 1), only wall time
// changes. Each experiment's machine-readable record — run counts, RMR
// statistics, table count, a digest of the rendered tables (table_sha) and
// wall time — is one perf-ledger manifest, appended to the -ledger file (see
// internal/perflog and cmd/rmereport) for cross-run regression gating.
//
// Step-level observability: -trace FILE captures every engine run's event
// stream (JSONL, or Chrome trace_event JSON with -traceformat chrome, for
// Perfetto); -top N prints the hottest cells and costliest processes so a
// surprising table entry can be attributed to a specific access pattern.
// -cpuprofile/-memprofile write pprof profiles of the bench itself.
//
// Usage:
//
//	rmrbench [-full] [-only E2,E5] [-seed S] [-parallel N]
//	         [-trace FILE] [-traceformat jsonl|chrome] [-top N]
//	         [-cpuprofile FILE] [-memprofile FILE]
//	         [-heartbeat DUR] [-metrics FILE] [-debugaddr ADDR]
//	         [-ledger runs/ledger.jsonl] [-runlabel LABEL] [-version]
//
// -heartbeat prints live engine statistics (runs/sec, worker utilization)
// to stderr while the grids execute; -metrics appends JSONL metric
// snapshots; -debugaddr serves /metrics, /debug/vars and /debug/pprof. All
// three are strictly observational: the tables stay byte-identical.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
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

func run(args []string) error {
	fs := flag.NewFlagSet("rmrbench", flag.ContinueOnError)
	full := fs.Bool("full", false, "run the enlarged parameter sweeps")
	only := fs.String("only", "", "comma-separated experiment ids (e.g. E1,E5); default all")
	parallel := fs.Int("parallel", 0, "engine workers per experiment grid (0 = GOMAXPROCS); tables are identical at any value")
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

		exps := harness.All()
		want := map[string]bool{}
		if *only != "" {
			known := map[string]bool{}
			for _, exp := range exps {
				known[exp.ID] = true
			}
			for _, id := range strings.Split(*only, ",") {
				id = strings.ToUpper(strings.TrimSpace(id))
				if !known[id] {
					return nil, fmt.Errorf("-only: no experiment %q", id)
				}
				want[id] = true
			}
		}

		var ms []*perflog.Manifest
		for _, exp := range exps {
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
			var rendered bytes.Buffer
			for i := range tables {
				tables[i].Render(&rendered)
			}
			if _, err := os.Stdout.Write(rendered.Bytes()); err != nil {
				return nil, err
			}
			// Timings go to stderr: stdout is byte-identical at any -parallel
			// value, so runs can be diffed directly.
			fmt.Fprintf(os.Stderr, "    (%s in %v)\n\n", exp.ID, wall.Round(time.Millisecond))
			// One perf-ledger manifest per experiment. The semantic config is
			// the experiment's identity (id, sweep size, seed offset) — not the
			// -only list or -parallel — so a full baseline run gates a subset
			// rerun.
			m := perflog.New("rmrbench")
			m.SetConfig("experiment", exp.ID)
			m.SetConfig("full", *full)
			m.SetConfig("seed", *seed)
			m.AddCounters("", metrics.Snapshot().Counters())
			m.Counters["tables"] = int64(len(tables))
			// table_sha gates the rendered bytes: any change to any table
			// drifts it, also where the other counters cannot see.
			sum := sha256.Sum256(rendered.Bytes())
			m.Counters["table_sha"] = int64(binary.BigEndian.Uint64(sum[:8]))
			m.Sample("wall_ms", float64(wall.Microseconds())/1000)
			ms = append(ms, m)
		}

		if capture != nil {
			// The summary is as deterministic as the tables, so it shares stdout.
			if err := tr.Write(os.Stdout, capture.Runs(), sim.CC); err != nil {
				return nil, err
			}
		}

		return ms, nil
	})
}
