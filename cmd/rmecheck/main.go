// Command rmecheck model-checks a mutual exclusion algorithm: bounded
// exhaustive interleaving search (optionally branching over crash steps) and
// randomized stress, reporting mutual exclusion or progress failures with
// the schedules that produced them.
//
// Usage:
//
//	rmecheck [-alg watree] [-n 2] [-w 8] [-model cc] [-crashes 1] [-max 50000] [-stress 200] [-seed S] [-parallel N]
//	         [-memo] [-por] [-symmetry] [-snapshot K] [-maxstates N] [-json]
//	         [-sharedset] [-wave K] [-maxwaves K] [-membudget BYTES] [-spilldir DIR] [-resume]
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
// interleavings, and a checkpoint stack (-snapshot) bounds backtracking
// replay. Disable both (-memo=false -por=false) to enumerate raw schedules
// like the reference explorer. -json emits one JSON report on stdout instead
// of text; both are byte-identical at any -parallel value.
//
// Three scale-out reductions stack on top for large configurations:
// -symmetry canonicalizes state keys over the algorithm's declared process
// symmetry group (algorithms with no declaration are unaffected); -sharedset
// shares visited sets across root branches in waves of -wave branches
// (deterministic at any -parallel); -membudget/-spilldir bound resident
// visited-set memory by spilling sealed waves to sorted run files, and with
// -spilldir every wave is checkpointed so an interrupted run can continue
// with -resume (the resumed Result is byte-identical to an uninterrupted
// run). -maxwaves stops a run after K waves to stage long certifications.
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
	snapshot := fs.Int("snapshot", check.DefaultSnapshotInterval, "checkpoint spacing for backtrack restores (negative = replay from the root)")
	maxStates := fs.Int("maxstates", check.DefaultMaxStates, "visited-state cap for -memo")
	sharedSet := fs.Bool("sharedset", false, "share visited sets across root branches in sealed waves (implies -memo)")
	wave := fs.Int("wave", check.DefaultWaveSize, "root branches per wave for -sharedset")
	maxWaves := fs.Int("maxwaves", 0, "stop the -sharedset search after this many waves (0 = run all; pairs with -spilldir/-resume)")
	memBudget := fs.Int64("membudget", 0, "resident bytes allowed for sealed shared sets before spilling to disk (0 = unbounded)")
	spillDir := fs.String("spilldir", "", "directory for spilled waves and the resume checkpoint")
	resume := fs.Bool("resume", false, "continue a checkpointed -sharedset run from -spilldir")
	jsonOut := fs.Bool("json", false, "emit one JSON report on stdout instead of text")
	tracePath := fs.String("trace", "", "export a step-level trace of the crash-free reference run to this file")
	traceFormat := fs.String("traceformat", "jsonl", "trace encoding: jsonl or chrome (Perfetto)")
	top := fs.Int("top", 0, "print the N hottest cells/procs of the reference run to stderr (0 = off)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	tele := cliutil.TelemetryFlags(fs)
	ledger := cliutil.LedgerFlags(fs)
	version := cliutil.VersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println(cliutil.VersionString("rmecheck"))
		return nil
	}
	if _, err := trace.ParseFormat(*traceFormat); err != nil {
		return err
	}
	stopCPU, err := cliutil.StartCPUProfile(*cpuProfile)
	if err != nil {
		return err
	}
	defer stopCPU()
	stopTele, err := tele.Start("check", telemetryView(*memo || *sharedSet, *sharedSet))
	if err != nil {
		return err
	}
	defer stopTele()

	alg, err := rme.NewAlgorithm(*algName)
	if err != nil {
		return err
	}
	model, err := sim.ParseModel(*modelName)
	if err != nil {
		return err
	}
	cfg := check.Config{
		Session: mutex.Config{
			Procs: *n, Width: word.Width(*w), Model: model, Algorithm: alg,
		},
		MaxSchedules:     *maxSched,
		CrashesPerProc:   *crashes,
		Parallel:         *parallel,
		Seed:             *seed,
		Memo:             *memo,
		POR:              *por,
		Symmetry:         *symmetry,
		SnapshotInterval: *snapshot,
		MaxStates:        *maxStates,
		SharedVisited:    *sharedSet,
		WaveSize:         *wave,
		MaxWaves:         *maxWaves,
		MemBudget:        *memBudget,
		SpillDir:         *spillDir,
		Resume:           *resume,
		Telemetry:        tele.Registry(),
	}

	if *tracePath != "" || *top > 0 {
		if err := traceReference(cfg.Session, *tracePath, *traceFormat, *top); err != nil {
			return err
		}
	}

	// The semantic configuration for the perf ledger: every flag that shapes
	// the Result (including -snapshot, which moves work between machine and
	// replay steps), never the execution layout (-parallel), spill plumbing
	// (-membudget, -spilldir, -resume — results are byte-identical with or
	// without spilling), or observability flags.
	newManifest := func(exh, stress *check.Result, wallMS float64) *perflog.Manifest {
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
		m.SetConfig("snapshot", *snapshot)
		m.SetConfig("maxstates", *maxStates)
		m.SetConfig("sharedset", *sharedSet)
		m.SetConfig("wave", *wave)
		m.SetConfig("maxwaves", *maxWaves)
		resultCounters(m, "", exh)
		if stress != nil {
			resultCounters(m, "stress_", stress)
		}
		m.Sample("wall_ms", wallMS)
		return m
	}

	checkStart := time.Now()
	if *jsonOut {
		exh, stress, err := runJSON(cfg, alg.Name(), model, *crashes, *stressN, *sharedSet, *wave)
		// The heap profile is written even when the check failed: profiling a
		// run that found a violation is still profiling.
		if herr := cliutil.WriteHeapProfile(*memProfile); err == nil {
			err = herr
		}
		if err != nil {
			return err
		}
		wall := float64(time.Since(checkStart).Microseconds()) / 1000
		return ledger.Emit(tele.Registry(), newManifest(exh, stress, wall))
	}

	fmt.Printf("exhaustive: %s n=%d w=%d model=%s crashes<=%d memo=%v por=%v symmetry=%v\n",
		alg.Name(), *n, *w, model, *crashes, *memo, *por, *symmetry)
	start := time.Now()
	res, err := check.Exhaustive(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("  %d complete schedules (truncated: %v, depth-truncated prefixes: %d)\n",
		res.Complete, res.Truncated, res.DepthTruncated)
	if *memo || *sharedSet {
		fmt.Printf("  states: %d visited, %d revisits pruned, %d sleep-set skips\n",
			res.StatesVisited, res.StatesPruned, res.SleepPruned)
	}
	if *sharedSet {
		fmt.Printf("  shared: %d waves, %d cross-branch prunes\n", res.Waves, res.SharedPruned)
	}
	fmt.Printf("  steps: %d machine, %d replay\n", res.MachineSteps, res.ReplaySteps)
	// Timing goes to stderr: stdout is byte-identical at any -parallel value.
	fmt.Fprintf(os.Stderr, "  (exhaustive in %v)\n", time.Since(start).Round(time.Millisecond))
	if err := report(res); err != nil {
		return err
	}

	var stressRes *check.Result
	if *stressN > 0 {
		fmt.Printf("stress: %d random schedules with crash injection\n", *stressN)
		sres, err := check.Stress(cfg, *stressN, 0.05)
		if err != nil {
			return err
		}
		stressRes = sres
		fmt.Printf("  %d complete\n", sres.Complete)
		if err := report(sres); err != nil {
			return err
		}
	}
	fmt.Println("OK")
	if err := cliutil.WriteHeapProfile(*memProfile); err != nil {
		return err
	}
	wall := float64(time.Since(checkStart).Microseconds()) / 1000
	return ledger.Emit(tele.Registry(), newManifest(res, stressRes, wall))
}

// resultCounters records one search phase's deterministic counters, prefixed
// so exhaustive and stress phases share a manifest without colliding.
func resultCounters(m *perflog.Manifest, prefix string, res *check.Result) {
	m.Counter(prefix+"complete", int64(res.Complete))
	m.Counter(prefix+"depth_truncated", int64(res.DepthTruncated))
	m.Counter(prefix+"states_visited", int64(res.StatesVisited))
	m.Counter(prefix+"states_pruned", int64(res.StatesPruned))
	m.Counter(prefix+"shared_pruned", int64(res.SharedPruned))
	m.Counter(prefix+"sleep_pruned", int64(res.SleepPruned))
	m.Counter(prefix+"waves", int64(res.Waves))
	m.Counter(prefix+"machine_steps", res.MachineSteps)
	m.Counter(prefix+"replay_steps", res.ReplaySteps)
	truncated := int64(0)
	if res.Truncated {
		truncated = 1
	}
	m.Counter(prefix+"truncated", truncated)
}

// telemetryView is the checker's heartbeat layout: with memoization the
// search progresses in visited states against the state budget; without it,
// in complete schedules against the schedule cap. Either way the ratios
// expose the prune and replay economics of the stateful explorer. Shared-set
// runs additionally surface wave progress and the cross-branch share of the
// prune traffic, so a long spill-backed certification is watchable live.
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

// runJSON runs the same phases as the text path but emits one JSON document,
// returning both phases' results for the perf ledger.
func runJSON(cfg check.Config, algName string, model sim.Model, crashes, stress int, sharedSet bool, wave int) (*check.Result, *check.Result, error) {
	res, err := check.Exhaustive(cfg)
	if err != nil {
		return nil, nil, err
	}
	doc := jsonReport{
		Algorithm: algName, Procs: cfg.Session.Procs, Width: int(cfg.Session.Width),
		Model: model.String(), Crashes: crashes, Memo: cfg.Memo || sharedSet, POR: cfg.POR,
		Symmetry: cfg.Symmetry, SharedSet: sharedSet,
		Exhaustive: toReport(res), OK: res.Ok(), Provenance: perflog.Build(),
	}
	if sharedSet {
		doc.WaveSize = wave
	}
	firstErr := res.Err()
	var stressRes *check.Result
	if stress > 0 {
		sres, err := check.Stress(cfg, stress, 0.05)
		if err != nil {
			return nil, nil, err
		}
		stressRes = sres
		sr := toReport(sres)
		doc.Stress = &sr
		doc.OK = doc.OK && sres.Ok()
		if firstErr == nil {
			firstErr = sres.Err()
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, nil, err
	}
	return res, stressRes, firstErr
}

// traceReference runs the checked configuration crash-free round-robin on a
// traced machine and exports/summarizes its event stream.
func traceReference(cfg mutex.Config, path, format string, top int) error {
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
	cliutil.SummarizeTrace(os.Stderr, runs, cfg.Model, top)
	return cliutil.ExportTrace(path, format, runs)
}

func report(res *check.Result) error {
	for _, v := range res.Violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
	for _, d := range res.Deadlocks {
		fmt.Printf("  DEADLOCK:  %s\n", d)
	}
	return res.Err()
}
