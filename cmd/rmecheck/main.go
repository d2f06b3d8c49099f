// Command rmecheck model-checks a mutual exclusion algorithm: bounded
// exhaustive interleaving search (optionally branching over crash steps) and
// randomized stress, reporting mutual exclusion or progress failures with
// the schedules that produced them.
//
// Usage:
//
//	rmecheck [-alg watree] [-n 2] [-w 8] [-model cc] [-crashes 1] [-max 50000] [-stress 200] [-seed S] [-parallel N]
//	         [-memo] [-por] [-symmetry] [-maxstates N] [-json]
//	         [-sharedset] [-wave K] [-maxwaves K] [-spilldir DIR] [-resume]
//	         [-trace FILE] [-traceformat jsonl|chrome] [-top N]
//	         [-cpuprofile FILE] [-memprofile FILE]
//	         [-heartbeat DUR] [-metrics FILE] [-debugaddr ADDR]
//	         [-ledger runs/ledger.jsonl] [-runlabel LABEL] [-version]
//
// -ledger appends a perf-ledger manifest (semantic config digest plus the
// run's deterministic counters) after a clean check, for cross-run
// regression gating via cmd/rmereport.
//
// -heartbeat prints live search progress (states or schedules per second,
// memo-hit and replay ratios, ETA against the state budget) to stderr;
// -metrics appends JSONL metric snapshots; -debugaddr serves /metrics,
// /debug/vars and /debug/pprof while the search runs. All three are strictly
// observational: stdout stays byte-identical with them on or off.
//
// The exhaustive search runs stateful by default: visited-state memoization
// (-memo) and sleep-set partial-order reduction (-por) prune redundant
// interleavings, and a trailing checkpoint at a 32-level boundary bounds
// backtracking replay. Disable both (-memo=false -por=false) to enumerate
// raw schedules like the reference explorer. -json emits one JSON report on
// stdout instead of text; both are byte-identical at any -parallel value.
//
// Three scale-out reductions stack on top for large configurations:
// -symmetry canonicalizes state keys over the algorithm's declared process
// symmetry group (algorithms with no declaration are unaffected); -sharedset
// shares visited sets across root branches in waves of -wave branches
// (deterministic at any -parallel); -spilldir checkpoints every sealed wave
// as a sorted run file plus a manifest, so an interrupted run can continue
// with -resume (the resumed Result is byte-identical to an uninterrupted
// run). The visited sets themselves stay in memory; the files exist only to
// be resumed from. -maxwaves stops a run after K waves to stage long
// certifications.
//
// The checker itself runs trace-free (it replays millions of branches);
// -trace exports the step-level story of the crash-free round-robin
// reference run of the checked configuration, and -top prints its hottest
// cells/procs to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rme"
	"rme/internal/check"
	"rme/internal/cliutil"
	"rme/internal/mutex"
	"rme/internal/perflog"
	"rme/internal/sim"
	"rme/internal/telemetry"
	"rme/internal/trace"
	"rme/internal/word"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rmecheck:", err)
		os.Exit(1)
	}
}

// searchReport is the JSON shape of one search phase's Result.
type searchReport struct {
	Complete       int      `json:"complete"`
	Truncated      bool     `json:"truncated"`
	DepthTruncated int      `json:"depth_truncated"`
	StatesVisited  int      `json:"states_visited"`
	StatesPruned   int      `json:"states_pruned"`
	SharedPruned   int      `json:"shared_pruned"`
	SleepPruned    int      `json:"sleep_pruned"`
	Waves          int      `json:"waves"`
	MachineSteps   int64    `json:"machine_steps"`
	ReplaySteps    int64    `json:"replay_steps"`
	Violations     []string `json:"violations,omitempty"`
	Deadlocks      []string `json:"deadlocks,omitempty"`
}

func toReport(res *check.Result) searchReport {
	return searchReport{
		Complete:       res.Complete,
		Truncated:      res.Truncated,
		DepthTruncated: res.DepthTruncated,
		StatesVisited:  res.StatesVisited,
		StatesPruned:   res.StatesPruned,
		SharedPruned:   res.SharedPruned,
		SleepPruned:    res.SleepPruned,
		Waves:          res.Waves,
		MachineSteps:   res.MachineSteps,
		ReplaySteps:    res.ReplaySteps,
		Violations:     res.Violations,
		Deadlocks:      res.Deadlocks,
	}
}

// jsonReport is the complete -json document.
type jsonReport struct {
	Algorithm  string             `json:"algorithm"`
	Procs      int                `json:"procs"`
	Width      int                `json:"width"`
	Model      string             `json:"model"`
	Crashes    int                `json:"crashes"`
	Memo       bool               `json:"memo"`
	POR        bool               `json:"por"`
	Symmetry   bool               `json:"symmetry"`
	SharedSet  bool               `json:"sharedset"`
	WaveSize   int                `json:"wave,omitempty"`
	Exhaustive searchReport       `json:"exhaustive"`
	Stress     *searchReport      `json:"stress,omitempty"`
	OK         bool               `json:"ok"`
	Provenance perflog.Provenance `json:"provenance"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("rmecheck", flag.ContinueOnError)
	algName := fs.String("alg", "watree", "algorithm: "+strings.Join(rme.AlgorithmNames(), ", "))
	n := fs.Int("n", 2, "number of processes")
	w := fs.Int("w", 8, "word size in bits")
	modelName := fs.String("model", "cc", "cost model: cc or dsm")
	crashes := fs.Int("crashes", 1, "crash steps per process to branch over (recoverable algorithms)")
	maxSched := fs.Int("max", 50_000, "exhaustive schedule cap")
	stressN := fs.Int("stress", 200, "randomized stress seeds (0 to skip)")
	parallel := fs.Int("parallel", 0, "search/stress workers (0 = GOMAXPROCS); results are identical at any value")
	seed := fs.Int64("seed", 0, "offset for the stress schedule seeds (0 = the default sample)")
	memo := fs.Bool("memo", true, "memoize visited canonical states (fingerprint pruning)")
	por := fs.Bool("por", true, "sleep-set partial-order reduction over step footprints")
	symmetry := fs.Bool("symmetry", false, "canonicalize state keys over the algorithm's declared process symmetry group")
	maxStates := fs.Int("maxstates", check.DefaultMaxStates, "visited-state cap for -memo")
	sharedSet := fs.Bool("sharedset", false, "share visited sets across root branches in sealed waves (implies -memo)")
	wave := fs.Int("wave", check.DefaultWaveSize, "root branches per wave for -sharedset")
	maxWaves := fs.Int("maxwaves", 0, "stop the -sharedset search after this many waves (0 = run all; pairs with -spilldir/-resume)")
	spillDir := fs.String("spilldir", "", "checkpoint every sealed wave to this directory (for -resume)")
	resume := fs.Bool("resume", false, "continue a checkpointed -sharedset run from -spilldir")
	jsonOut := fs.Bool("json", false, "emit one JSON report on stdout instead of text")
	diag := cliutil.Flags(fs)
	tr := diag.TraceFlags(fs, "export a step-level trace of the crash-free reference run to this file",
		"print the N hottest cells/procs of the reference run to stderr (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return diag.Do("check", telemetryView(*memo || *sharedSet, *sharedSet), func() ([]*perflog.Manifest, error) {
		// The ledger records these flags as typed, and check.Config reads
		// 0 as its default, so a 0 would give one search two digests.
		for _, f := range []struct {
			name string
			v    int
		}{{"-max", *maxSched}, {"-maxstates", *maxStates}, {"-wave", *wave}} {
			if f.v <= 0 {
				return nil, fmt.Errorf("%s must be positive, got %d", f.name, f.v)
			}
		}
		alg, err := rme.NewAlgorithm(*algName)
		if err != nil {
			return nil, err
		}
		model, err := sim.ParseModel(*modelName)
		if err != nil {
			return nil, err
		}
		cfg := check.Config{
			Session: mutex.Config{
				Procs: *n, Width: word.Width(*w), Model: model, Algorithm: alg,
			},
			MaxSchedules:   *maxSched,
			CrashesPerProc: *crashes,
			Parallel:       *parallel,
			Seed:           *seed,
			Memo:           *memo,
			POR:            *por,
			Symmetry:       *symmetry,
			MaxStates:      *maxStates,
			SharedVisited:  *sharedSet,
			WaveSize:       *wave,
			MaxWaves:       *maxWaves,
			SpillDir:       *spillDir,
			Resume:         *resume,
			Telemetry:      diag.Registry(),
		}
		if tr.Enabled() {
			if err := traceReference(cfg.Session, tr); err != nil {
				return nil, err
			}
		}

		start := time.Now()
		exh, stress, err := search(cfg, *stressN, *jsonOut)
		if err != nil {
			return nil, err
		}

		// The semantic configuration for the perf ledger: every flag that
		// shapes the Result, never the execution layout (-parallel),
		// checkpoint plumbing (-spilldir, -resume — results are
		// byte-identical with or without a checkpoint), or observability
		// flags.
		m := perflog.New("rmecheck")
		m.SetConfig("alg", alg.Name())
		m.SetConfig("n", *n)
		m.SetConfig("w", *w)
		m.SetConfig("model", model)
		m.SetConfig("crashes", *crashes)
		m.SetConfig("max", *maxSched)
		m.SetConfig("stress", *stressN)
		m.SetConfig("seed", *seed)
		m.SetConfig("memo", *memo)
		m.SetConfig("por", *por)
		m.SetConfig("symmetry", *symmetry)
		m.SetConfig("maxstates", *maxStates)
		m.SetConfig("sharedset", *sharedSet)
		if *sharedSet {
			// A private search runs one wave, where -wave and -maxwaves
			// change nothing; recording them would give one search a
			// digest per value.
			m.SetConfig("wave", *wave)
			m.SetConfig("maxwaves", *maxWaves)
		}
		m.AddCounters("", exh.Counters())
		if stress != nil {
			m.AddCounters("stress_", stress.Counters())
		}
		m.Sample("wall_ms", float64(time.Since(start).Microseconds())/1000)
		return []*perflog.Manifest{m}, nil
	})
}

// telemetryView is the checker's heartbeat layout: with memoization the
// search progresses in visited states against the state budget; without it,
// in complete schedules against the schedule cap. Either way the ratios
// expose the prune and replay economics of the stateful explorer. Shared-set
// runs additionally surface wave progress and the cross-branch share of the
// prune traffic, so a long checkpointed certification is watchable live.
func telemetryView(memo, sharedSet bool) telemetry.View {
	v := telemetry.View{
		Progress: "check_schedules_complete",
		Target:   "check_max_schedules",
		Show:     []string{"check_frontier_depth"},
		Ratios: []telemetry.Ratio{
			{Label: "replay", Num: "check_replay_steps", Den: []string{"check_machine_steps"}},
		},
		UtilBusy:    "engine_busy_ns",
		UtilWorkers: "engine_workers",
	}
	if memo {
		v.Progress = "check_states_visited"
		v.Target = "check_max_states"
		v.Ratios = append([]telemetry.Ratio{{
			Label: "memo_hit",
			Num:   "check_states_pruned",
			Den:   []string{"check_states_visited", "check_states_pruned"},
		}}, v.Ratios...)
	}
	if sharedSet {
		v.Show = append(v.Show, "check_waves_done", "check_spill_bytes")
		v.Ratios = append(v.Ratios, telemetry.Ratio{
			Label: "shared_hit",
			Num:   "check_shared_pruned",
			Den:   []string{"check_states_pruned"},
		})
	}
	return v
}

// search runs the exhaustive phase and, when it is clean and stress > 0,
// the stress phase, then renders both phases as text or as one JSON
// document. It returns both results for the perf ledger (a nil stress
// result when that phase did not run), and the first violation or deadlock
// as the error.
func search(cfg check.Config, stress int, jsonOut bool) (*check.Result, *check.Result, error) {
	start := time.Now()
	exh, err := check.Exhaustive(cfg)
	if err != nil {
		return nil, nil, err
	}
	// Timing goes to stderr: stdout is byte-identical at any -parallel value.
	fmt.Fprintf(os.Stderr, "  (exhaustive in %v)\n", time.Since(start).Round(time.Millisecond))
	var st *check.Result
	if exh.Ok() && stress > 0 {
		if st, err = check.Stress(cfg, stress, 0.05); err != nil {
			return nil, nil, err
		}
	}
	if jsonOut {
		err = writeJSON(cfg, exh, st)
	} else {
		writeText(cfg, exh, st, stress)
	}
	if err == nil {
		err = exh.Err()
	}
	if err == nil && st != nil {
		err = st.Err()
	}
	return exh, st, err
}

// writeText prints the text report of one search.
func writeText(cfg check.Config, exh, st *check.Result, stress int) {
	fmt.Printf("exhaustive: %s n=%d w=%d model=%s crashes<=%d memo=%v por=%v symmetry=%v\n",
		cfg.Session.Algorithm.Name(), cfg.Session.Procs, cfg.Session.Width, cfg.Session.Model,
		cfg.CrashesPerProc, cfg.Memo, cfg.POR, cfg.Symmetry)
	fmt.Printf("  %d complete schedules (truncated: %v, depth-truncated prefixes: %d)\n",
		exh.Complete, exh.Truncated, exh.DepthTruncated)
	if cfg.Memo || cfg.SharedVisited {
		fmt.Printf("  states: %d visited, %d revisits pruned, %d sleep-set skips\n",
			exh.StatesVisited, exh.StatesPruned, exh.SleepPruned)
	}
	if cfg.SharedVisited {
		fmt.Printf("  shared: %d waves, %d cross-branch prunes\n", exh.Waves, exh.SharedPruned)
	}
	fmt.Printf("  steps: %d machine, %d replay\n", exh.MachineSteps, exh.ReplaySteps)
	printFailures(exh)
	if st != nil {
		fmt.Printf("stress: %d random schedules with crash injection\n", stress)
		fmt.Printf("  %d complete\n", st.Complete)
		printFailures(st)
	}
	if exh.Ok() && (st == nil || st.Ok()) {
		fmt.Println("OK")
	}
}

// writeJSON encodes the -json document of one search to stdout.
func writeJSON(cfg check.Config, exh, st *check.Result) error {
	doc := jsonReport{
		Algorithm: cfg.Session.Algorithm.Name(), Procs: cfg.Session.Procs, Width: int(cfg.Session.Width),
		Model: cfg.Session.Model.String(), Crashes: cfg.CrashesPerProc, Memo: cfg.Memo || cfg.SharedVisited,
		POR: cfg.POR, Symmetry: cfg.Symmetry, SharedSet: cfg.SharedVisited,
		Exhaustive: toReport(exh), OK: exh.Ok(), Provenance: perflog.Build(),
	}
	if cfg.SharedVisited {
		doc.WaveSize = cfg.WaveSize
	}
	if st != nil {
		sr := toReport(st)
		doc.Stress = &sr
		doc.OK = doc.OK && st.Ok()
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// traceReference runs the checked configuration crash-free round-robin on a
// traced machine and exports/summarizes its event stream.
func traceReference(cfg mutex.Config, tr *cliutil.Trace) error {
	cfg.NoTrace = false
	s, err := mutex.NewSession(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	if err := s.RunRoundRobin(); err != nil {
		return err
	}
	runs := []trace.Run{{
		Label: "reference " + cfg.Algorithm.Name(), Procs: cfg.Procs, Model: cfg.Model,
		Events: append([]sim.Event(nil), s.Machine().Trace()...),
	}}
	return tr.Write(os.Stderr, runs, cfg.Model)
}

// printFailures prints a phase's violations and deadlocks.
func printFailures(res *check.Result) {
	for _, v := range res.Violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
	for _, d := range res.Deadlocks {
		fmt.Printf("  DEADLOCK:  %s\n", d)
	}
}
