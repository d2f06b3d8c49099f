// Command rmefault runs a deterministic fault-injection campaign against a
// mutual exclusion algorithm: systematic and seeded-random crash placement,
// invariant oracles (mutual exclusion, deadlock-freedom, CS re-entry, RMR
// budgets) on every run, and delta-debugged minimal reproducers for every
// failure. The whole campaign is a pure function of its flags and -seed, so
// output is byte-identical at any -parallel.
//
// Usage:
//
//	rmefault [-alg watree] [-n 3] [-w 8] [-model cc] [-passes 1] [-seed 1]
//	         [-sources single,rmr,parked,system,double,random] [-runs 48]
//	         [-budget 0] [-bound 0] [-parallel N] [-noshrink] [-json]
//	         [-trace FILE] [-traceformat jsonl|chrome] [-top N]
//	         [-cpuprofile FILE] [-memprofile FILE]
//	         [-heartbeat DUR] [-metrics FILE] [-debugaddr ADDR]
//	         [-ledger runs/ledger.jsonl] [-runlabel LABEL] [-version]
//
// -heartbeat prints live progress lines (runs/sec, failure count, worker
// utilization, ETA against the plan grid) to stderr; -metrics appends JSONL
// metric snapshots; -debugaddr serves /metrics, /debug/vars and /debug/pprof
// while the campaign runs. All three are strictly observational: the stdout
// report stays byte-identical with them on or off.
//
// -trace replays each failure's shrunken reproducer (or, on a clean
// campaign, the crash-free probe run) on a machine with event retention and
// exports the step-level story; campaigns themselves run trace-free for
// throughput. -top prints the replays' hottest cells/procs to stderr.
//
// The special algorithm "broken" is an intentionally crash-unsafe lock for
// demonstrating the campaign pipeline end to end.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rme"
	"rme/internal/cliutil"
	"rme/internal/faults"
	"rme/internal/mutex"
	"rme/internal/perflog"
	"rme/internal/sim"
	"rme/internal/telemetry"
	"rme/internal/trace"
	"rme/internal/word"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rmefault:", err)
		os.Exit(1)
	}
}

// telemetryView is the campaign's heartbeat layout: progress against the
// generated plan grid, live failure count, worker utilization.
func telemetryView() telemetry.View {
	return telemetry.View{
		Progress:    "faults_runs",
		Target:      "faults_plans",
		Show:        []string{"faults_failures"},
		UtilBusy:    "engine_busy_ns",
		UtilWorkers: "engine_workers",
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rmefault", flag.ContinueOnError)
	algName := fs.String("alg", "watree", "algorithm: "+strings.Join(rme.AlgorithmNames(), ", ")+", or the crash-unsafe fixture broken")
	n := fs.Int("n", 3, "number of processes")
	w := fs.Int("w", 8, "word size in bits")
	modelName := fs.String("model", "cc", "cost model: cc or dsm")
	passes := fs.Int("passes", 1, "super-passages per process")
	seed := fs.Int64("seed", 1, "campaign base seed (threaded into every random source)")
	sourcesFlag := fs.String("sources", "", "comma-separated campaign axes: single, double, rmr, parked, system, random (default: all valid for the algorithm)")
	runs := fs.Int("runs", 48, "runs on the seeded-random axis")
	budget := fs.Int("budget", 0, "per-passage RMR ceiling for both models (0 = algorithm default, -1 = disable)")
	bound := fs.Int("bound", 0, "scheduler decision bound per run (0 = derive from the probe)")
	parallel := fs.Int("parallel", 0, "campaign workers (0 = GOMAXPROCS); reports are identical at any value")
	noShrink := fs.Bool("noshrink", false, "report full failing schedules instead of minimized reproducers")
	jsonOut := fs.Bool("json", false, "emit the campaign report as JSON on stdout")
	diag := cliutil.Flags(fs)
	tr := diag.TraceFlags(fs, "export step-level traces of the failure reproducers (or the probe run) to this file",
		"print the N hottest cells/procs of the traced replays to stderr (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return diag.Do("fault", telemetryView(), func() ([]*perflog.Manifest, error) {
		var alg mutex.Algorithm
		var err error
		if strings.EqualFold(*algName, "broken") {
			alg = faults.NewBroken()
		} else if alg, err = rme.NewAlgorithm(*algName); err != nil {
			return nil, err
		}
		model, err := sim.ParseModel(*modelName)
		if err != nil {
			return nil, err
		}

		sources, err := buildSources(*sourcesFlag, alg.Recoverable(), *seed, *runs)
		if err != nil {
			return nil, err
		}
		var oracles []faults.Oracle
		if *budget != 0 {
			oracles = []faults.Oracle{faults.MutualExclusion{}, faults.DeadlockFree{}, faults.Reentry{}}
			if *budget > 0 {
				oracles = append(oracles, faults.RMRBudget{CC: *budget, DSM: *budget})
			}
		}

		c := faults.Campaign{
			Session: mutex.Config{
				Procs: *n, Width: word.Width(*w), Model: model, Algorithm: alg, Passes: *passes,
			},
			Sources:   sources,
			Oracles:   oracles,
			Seed:      *seed,
			Parallel:  *parallel,
			Bound:     *bound,
			NoShrink:  *noShrink,
			Telemetry: diag.Registry(),
		}
		start := time.Now()
		rep, err := c.Run()
		if err != nil {
			return nil, err
		}
		wallMS := float64(time.Since(start).Microseconds()) / 1000
		fmt.Fprintf(os.Stderr, "campaign: %d runs in %v\n", rep.Runs, time.Since(start).Round(time.Millisecond))

		if tr.Enabled() {
			runs, err := tracedReplays(rep)
			if err != nil {
				return nil, err
			}
			// Attribution goes to stderr: -json stdout stays machine-clean.
			if err := tr.Write(os.Stderr, runs, model); err != nil {
				return nil, err
			}
		}
		if *jsonOut {
			if err := emitJSON(rep, model); err != nil {
				return nil, err
			}
		} else {
			fmt.Printf("campaign: %s n=%d w=%d model=%s passes=%d seed=%d\n",
				rep.Algorithm, *n, *w, model, *passes, rep.Seed)
			fmt.Printf("probe: %d decisions, %d RMR-incurring; bound %d\n",
				rep.Probe.Steps, len(rep.Probe.RMRAt), rep.Bound)
			for _, st := range rep.Sources {
				fmt.Printf("  %-18s %5d runs  %d failures\n", st.Name, st.Runs, st.Failures)
			}
			for _, f := range rep.Failures {
				fmt.Printf("FAIL %s\n", f)
			}
			if !rep.Ok() {
				return nil, fmt.Errorf("%d of %d runs failed", len(rep.Failures), rep.Runs)
			}
			fmt.Println("OK")
		}

		// Perf-ledger manifest: the campaign is a pure function of these
		// flags, so every counter is exactly gateable; -parallel and the
		// observability flags stay out of the config.
		m := perflog.New("rmefault")
		m.SetConfig("alg", alg.Name())
		m.SetConfig("n", *n)
		m.SetConfig("w", *w)
		m.SetConfig("model", model)
		m.SetConfig("passes", *passes)
		m.SetConfig("seed", *seed)
		m.SetConfig("sources", *sourcesFlag)
		m.SetConfig("runs", *runs)
		m.SetConfig("budget", *budget)
		m.SetConfig("bound", *bound)
		m.SetConfig("noshrink", *noShrink)
		m.AddCounters("", rep.Counters())
		m.Sample("wall_ms", wallMS)
		return []*perflog.Manifest{m}, nil
	})
}

// tracedReplays re-executes the campaign's interesting schedules — each
// failure's shrunken reproducer, or the crash-free probe run when the
// campaign was clean — on machines with event retention, and returns one
// traced run per schedule in failure order.
func tracedReplays(rep *faults.Report) ([]trace.Run, error) {
	procs, model := rep.Cfg.Procs, rep.Cfg.Model
	if len(rep.Failures) == 0 {
		events, _, err := faults.ReplayTraced(rep.Cfg, rep.Probe.Schedule)
		if err != nil {
			return nil, fmt.Errorf("trace probe run: %w", err)
		}
		return []trace.Run{{Label: "probe", Procs: procs, Model: model, Events: events}}, nil
	}
	var runs []trace.Run
	for i, f := range rep.Failures {
		sched := f.Shrunk
		if len(sched) == 0 {
			sched = f.Schedule
		}
		events, _, err := faults.ReplayTraced(rep.Cfg, sched)
		if err != nil {
			return nil, fmt.Errorf("trace reproducer %d: %w", i, err)
		}
		runs = append(runs, trace.Run{
			Index: i, Label: fmt.Sprintf("reproducer-%d %s/%s", i, f.Source, f.Oracle),
			Procs: procs, Model: model, Events: events,
		})
	}
	return runs, nil
}

// buildSources resolves the -sources flag. An empty spec selects every axis
// that is valid for the algorithm's recoverability.
func buildSources(spec string, recoverable bool, seed int64, runs int) ([]faults.Source, error) {
	maxCrashes := 3
	if !recoverable {
		maxCrashes = 0
	}
	byName := map[string]faults.Source{
		"single": faults.ExhaustiveCrashes{Crashes: 1},
		"double": faults.ExhaustiveCrashes{Crashes: 2},
		"rmr":    faults.RMRTargeted{},
		"parked": faults.ParkedCrashes{},
		"system": faults.SystemWideCrashes{},
		"random": faults.RandomCrashes{Runs: runs, MaxCrashes: maxCrashes, Seed: seed},
	}
	if spec == "" {
		if !recoverable {
			return []faults.Source{byName["random"]}, nil
		}
		return []faults.Source{
			byName["single"], byName["rmr"], byName["parked"],
			byName["system"], byName["double"], byName["random"],
		}, nil
	}
	var out []faults.Source
	for _, name := range strings.Split(spec, ",") {
		src, ok := byName[strings.TrimSpace(strings.ToLower(name))]
		if !ok {
			return nil, fmt.Errorf("unknown source %q (want single, double, rmr, parked, system, random)", name)
		}
		out = append(out, src)
	}
	return out, nil
}

// jsonFailure is the stable machine-readable failure view: schedules render
// as strings that round-trip through sim.ParseSchedule.
type jsonFailure struct {
	Source        string      `json:"source"`
	Oracle        string      `json:"oracle"`
	Detail        string      `json:"detail"`
	Plan          faults.Plan `json:"plan"`
	Schedule      string      `json:"schedule"`
	Shrunk        string      `json:"shrunk"`
	ShrinkReplays int         `json:"shrink_replays,omitempty"`
}

type jsonReport struct {
	Algorithm  string              `json:"algorithm"`
	Procs      int                 `json:"n"`
	Width      int                 `json:"w"`
	Model      string              `json:"model"`
	Passes     int                 `json:"passes"`
	Seed       int64               `json:"seed"`
	Bound      int                 `json:"bound"`
	ProbeLen   int                 `json:"probe_steps"`
	ProbeRMRs  int                 `json:"probe_rmr_steps"`
	Runs       int                 `json:"runs"`
	Ok         bool                `json:"ok"`
	Sources    []faults.SourceStat `json:"sources"`
	Failures   []jsonFailure       `json:"failures,omitempty"`
	Provenance perflog.Provenance  `json:"provenance"`
}

func emitJSON(rep *faults.Report, model sim.Model) error {
	out := jsonReport{
		Algorithm:  rep.Algorithm,
		Procs:      rep.Cfg.Procs,
		Width:      int(rep.Cfg.Width),
		Model:      model.String(),
		Passes:     rep.Cfg.Passes,
		Seed:       rep.Seed,
		Bound:      rep.Bound,
		ProbeLen:   rep.Probe.Steps,
		ProbeRMRs:  len(rep.Probe.RMRAt),
		Runs:       rep.Runs,
		Ok:         rep.Ok(),
		Sources:    rep.Sources,
		Provenance: perflog.Build(),
	}
	for _, f := range rep.Failures {
		out.Failures = append(out.Failures, jsonFailure{
			Source:        f.Source,
			Oracle:        f.Oracle,
			Detail:        f.Detail,
			Plan:          f.Plan,
			Schedule:      f.Schedule.String(),
			Shrunk:        f.Shrunk.String(),
			ShrinkReplays: f.ShrinkReplays,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	if !out.Ok {
		return fmt.Errorf("%d of %d runs failed", len(rep.Failures), rep.Runs)
	}
	return nil
}
