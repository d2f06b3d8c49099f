// Command rmeadversary runs the Theorem 1 lower-bound adversary against a
// chosen algorithm and prints the round-by-round log: how many processes
// stayed active, how many RMRs were forced, where hiding succeeded, and the
// outcome of every invariant audit.
//
// With -sweep, the adversary instead runs one construction per listed
// process count, distributed over -parallel engine workers, and prints a
// summary row per n (the CLI form of the E1 grid).
//
// Usage:
//
//	rmeadversary [-alg watree] [-n 64] [-w 8] [-model cc] [-k 0]
//	             [-trace FILE] [-traceformat jsonl|chrome] [-top N]
//	             [-cpuprofile FILE] [-memprofile FILE]
//	             [-heartbeat DUR] [-metrics FILE] [-debugaddr ADDR]
//	             [-ledger runs/ledger.jsonl] [-runlabel LABEL] [-version]
//	rmeadversary [-alg watree] [-w 8] -sweep 16,64,256 [-parallel N]
//	             [the same diagnostic flags, except -trace/-traceformat/-top]
//
// -heartbeat prints live round progression (rounds completed, active set
// size, erased-process counts, ETA against the round cap) to stderr; -metrics
// appends JSONL metric snapshots; -debugaddr serves /metrics, /debug/vars
// and /debug/pprof while the construction runs. All three are strictly
// observational and leave stdout untouched.
//
// The construction itself runs trace-free (erasure audits replay the whole
// execution constantly); -trace replays the final adversarial schedule on a
// machine with event retention and exports its step-level story, so the
// forced RMRs can be attributed to concrete cells. -top prints the replay's
// hottest cells/procs to stderr. Single-construction mode only: -sweep
// rejects both flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"rme"
	"rme/internal/adversary"
	"rme/internal/cliutil"
	"rme/internal/engine"
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
		fmt.Fprintln(os.Stderr, "rmeadversary:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rmeadversary", flag.ContinueOnError)
	algName := fs.String("alg", "watree", "algorithm: "+strings.Join(rme.AlgorithmNames(), ", "))
	n := fs.Int("n", 64, "number of processes")
	w := fs.Int("w", 8, "word size in bits")
	modelName := fs.String("model", "cc", "cost model: cc or dsm")
	k := fs.Int("k", 0, "high-contention threshold (0 = max(4, w^2) capped at n)")
	sweep := fs.String("sweep", "", "comma-separated n values; runs one construction per n and prints a summary table")
	parallel := fs.Int("parallel", 0, "sweep workers (0 = GOMAXPROCS); summary rows are identical at any value")
	diag := cliutil.Flags(fs)
	tr := diag.TraceFlags(fs, "replay the final adversarial schedule traced and export it to this file",
		"print the N hottest cells/procs of the traced replay to stderr (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sweep != "" && tr.Enabled() {
		name := "-trace"
		if tr.Path == "" {
			name = "-top"
		}
		return fmt.Errorf("%s applies to a single construction and cannot be combined with -sweep", name)
	}
	view := telemetry.View{
		Progress: "adversary_rounds",
		Target:   "adversary_max_rounds",
		Show:     []string{"adversary_active", "adversary_removed"},
		Ratios: []telemetry.Ratio{{
			Label: "hiding",
			Num:   "adversary_hiding_wins",
			Den:   []string{"adversary_hiding_attempts"},
		}},
	}
	return diag.Do("adversary", view, func() ([]*perflog.Manifest, error) {
		alg, err := rme.NewAlgorithm(*algName)
		if err != nil {
			return nil, err
		}
		model, err := sim.ParseModel(*modelName)
		if err != nil {
			return nil, err
		}
		if *sweep != "" {
			return runSweep(alg, *sweep, *w, model, *k, *parallel, diag.Registry())
		}
		return runSingle(alg, *n, *w, model, *k, tr, diag.Registry())
	})
}

// runSingle runs one construction, prints its round-by-round log, and
// returns its perf-ledger entry.
func runSingle(alg mutex.Algorithm, n, w int, model sim.Model, k int, tr *cliutil.Trace, reg *telemetry.Registry) ([]*perflog.Manifest, error) {
	start := time.Now()
	session := mutex.Config{Procs: n, Width: word.Width(w), Model: model, Algorithm: alg}
	rep, err := construct(session, k, reg)
	if err != nil {
		return nil, err
	}

	if tr.Enabled() {
		events, _, err := faults.ReplayTraced(session, rep.Schedule)
		if err != nil {
			return nil, fmt.Errorf("trace final schedule: %w", err)
		}
		runs := []trace.Run{{
			Label: "adversary " + alg.Name(), Procs: n, Model: model, Events: events,
		}}
		if err := tr.Write(os.Stderr, runs, model); err != nil {
			return nil, err
		}
	}

	fmt.Printf("adversary vs %s: n=%d w=%d model=%s k=%d\n\n",
		alg.Name(), rep.Procs, rep.Width, rep.Model, rep.K)
	fmt.Printf("%-6s %-5s %-8s %-7s %-8s %-7s %-8s %-8s %-8s\n",
		"round", "kind", "active→", "stepped", "hidden", "finish", "removed", "blocked", "")
	for _, r := range rep.Rounds {
		fmt.Printf("%-6d %-5s %3d→%-4d %-7d %-8d %-7d %-8d %-8d\n",
			r.Index, r.Kind, r.ActiveBefore, r.ActiveAfter, r.Stepped,
			r.HiddenKept, r.Finished, r.Removed, r.Blocked)
	}
	fmt.Println()
	fmt.Printf("viable rounds:      %d\n", rep.ViableRounds)
	fmt.Printf("forced RMRs:        %d (survivors never crashed, never entered the CS)\n", rep.ForcedRMRs())
	fmt.Printf("survivors:          %d %v (RMRs %v)\n", len(rep.Survivors), rep.Survivors, rep.SurvivorRMRs)
	fmt.Printf("hiding:             %d/%d searches succeeded\n", rep.HidingWins, rep.HidingAttempts)
	fmt.Printf("verified replays:   %d (rollbacks %d)\n", rep.Replays, rep.RemovalRollbacks)
	if rep.RoundCapped {
		fmt.Printf("round cap:          %s\n", roundCap(rep))
	}
	fmt.Printf("theory bound:       ceil(log_w n) = %d, min(log_w n, ln n/ln ln n) = %.2f\n",
		word.CeilLog(w, n), word.TheoreticalLowerBound(word.Width(w), n))
	if len(rep.InvariantViolations) > 0 {
		fmt.Printf("INVARIANT VIOLATIONS:\n")
		for _, v := range rep.InvariantViolations {
			fmt.Printf("  %s\n", v)
		}
		return nil, fmt.Errorf("%d invariant violations", len(rep.InvariantViolations))
	}
	fmt.Printf("invariant audit:    clean\n")
	m := advManifest(alg.Name(), rep)
	m.Sample("wall_ms", float64(time.Since(start).Microseconds())/1000)
	return []*perflog.Manifest{m}, nil
}

// construct runs one adversary construction and returns its report.
func construct(session mutex.Config, k int, reg *telemetry.Registry) (*adversary.Report, error) {
	adv, err := adversary.New(adversary.Config{Session: session, K: k, Telemetry: reg})
	if err != nil {
		return nil, err
	}
	defer adv.Close()
	return adv.Run()
}

// advManifest builds one construction's perf-ledger entry. Single-
// construction runs and sweep rows share the same config shape (alg, n, w,
// model, k): a sweep baseline gates later single runs. k is the threshold
// the construction ran with, so -k 0 and its default value share a digest.
func advManifest(alg string, rep *adversary.Report) *perflog.Manifest {
	m := perflog.New("rmeadversary")
	m.SetConfig("alg", alg)
	m.SetConfig("n", rep.Procs)
	m.SetConfig("w", rep.Width)
	m.SetConfig("model", rep.Model)
	m.SetConfig("k", rep.K)
	m.AddCounters("", rep.Counters())
	return m
}

// sweepK renders the thresholds the sweep's constructions ran with
// (Report.K) for its header: one value when every row agrees, and otherwise
// each row's in row order.
func sweepK(reps []*adversary.Report) string {
	ks := make([]string, len(reps))
	agree := true
	for i, rep := range reps {
		ks[i] = strconv.Itoa(rep.K)
		agree = agree && rep.K == reps[0].K
	}
	if agree {
		return ks[0]
	}
	return strings.Join(ks, ",")
}

// runSweep runs one adversary construction per listed n in parallel and
// prints summary rows in list order. The shared registry accumulates round
// statistics across all constructions (atomics make that safe); the printed
// table is unaffected.
func runSweep(alg mutex.Algorithm, sweep string, w int, model sim.Model, k, parallel int, reg *telemetry.Registry) ([]*perflog.Manifest, error) {
	var ns []int
	for _, tok := range strings.Split(sweep, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("bad -sweep entry %q: %w", tok, err)
		}
		ns = append(ns, n)
	}
	reps := make([]*adversary.Report, len(ns))
	err := engine.ForEach(len(ns), parallel, func(i int) error {
		rep, err := construct(mutex.Config{
			Procs: ns[i], Width: word.Width(w), Model: model, Algorithm: alg,
		}, k, reg)
		if err != nil {
			return fmt.Errorf("n=%d: %w", ns[i], err)
		}
		reps[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}

	fmt.Printf("adversary sweep vs %s: w=%d model=%s k=%s\n\n", alg.Name(), w, model, sweepK(reps))
	fmt.Printf("%-8s %-8s %-12s %-10s %-10s %-10s %-14s %s\n",
		"n", "rounds", "forced RMRs", "survivors", "replays", "rollbacks", "ceil(log_w n)", "violations")
	violations := 0
	for i, n := range ns {
		rep := reps[i]
		fmt.Printf("%-8d %-8d %-12d %-10d %-10d %-10d %-14d %d\n",
			n, rep.ViableRounds, rep.ForcedRMRs(), len(rep.Survivors),
			rep.Replays, rep.RemovalRollbacks, word.CeilLog(w, n), len(rep.InvariantViolations))
		violations += len(rep.InvariantViolations)
	}
	for i, n := range ns {
		if reps[i].RoundCapped {
			fmt.Printf("\nround cap at n=%d: %s\n", n, roundCap(reps[i]))
		}
	}
	if violations > 0 {
		return nil, fmt.Errorf("%d invariant violations across sweep", violations)
	}
	fmt.Printf("\ninvariant audit:    clean\n")
	ms := make([]*perflog.Manifest, len(ns))
	for i, rep := range reps {
		ms[i] = advManifest(alg.Name(), rep)
	}
	return ms, nil
}

// roundCap describes a construction that stopped at its round cap.
func roundCap(rep *adversary.Report) string {
	return fmt.Sprintf("reached after %d rounds with %d actives left; the forced RMRs are the cap's, not the algorithm's",
		len(rep.Rounds), rep.Rounds[len(rep.Rounds)-1].ActiveAfter)
}
