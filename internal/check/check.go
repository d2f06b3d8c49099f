// Package check verifies mutual exclusion algorithms by stateful
// bounded-exhaustive interleaving exploration and randomized stress, on top
// of the per-step safety monitors of package mutex.
//
// The exhaustive explorer enumerates scheduler decisions (which poised
// process steps next; optionally, whether it crashes instead) by depth-first
// search. Unlike a stateless schedule-prefix search, the explorer is
// incremental: it steps a live machine forward along the current branch and
// restores on backtrack from a trailing checkpoint session, replaying
// prefixes only across snapshot gaps. With Memo it fingerprints every
// canonical state (sim.Machine.Fingerprint mixed with the monitor's CS
// ownership) and prunes interleavings that converge on a visited state; with
// POR it additionally skips sleep-set branches whose effect is covered by a
// commuting sibling explored earlier. The search is exact up to its caps: if
// it finishes without truncation, every reachable canonical state of the
// configuration was explored.
package check

import (
	"errors"
	"fmt"

	"rme/internal/engine"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/telemetry"
)

// Config parameterizes a check run.
type Config struct {
	// Session is the algorithm/machine configuration (Passes defaults to 1).
	Session mutex.Config
	// MaxSchedules caps the number of complete schedules explored
	// (default 50000). Each wave of root branches starts from an even slice
	// of the budget earlier waves left unspent, and redistribution rounds
	// then hand unspent budget to capped branches (see Exhaustive). Budgets
	// are pure functions of merged sub-results, so results are byte-identical
	// at any Parallel value.
	MaxSchedules int
	// MaxDepth caps the schedule length (default 400).
	MaxDepth int
	// CrashesPerProc > 0 additionally branches on crash steps (recoverable
	// algorithms only), up to the given number of crashes per process.
	CrashesPerProc int
	// Parallel is the worker count for Stress and for the exhaustive
	// explorer's root-branch fan-out (<= 0 means GOMAXPROCS). Both merge
	// results in submission order, so output is identical at any value.
	Parallel int
	// Seed offsets the seeds Stress derives its random schedules from, so
	// repeated runs can cover disjoint deterministic samples. The exhaustive
	// explorer folds it into its fingerprint seed but enumerates the same
	// schedule tree regardless.
	Seed int64

	// Memo enables visited-state memoization: canonical states are
	// fingerprinted and a state reached twice is explored once. Complete then
	// counts distinct terminal states rather than complete schedules.
	Memo bool
	// POR enables sleep-set partial-order reduction: a step branch is skipped
	// when a commuting sibling (disjoint cell footprints, or both reads of
	// one cell) was already explored and no process is in a multi-cell wait.
	// Crash branches are never reduced.
	POR bool
	// MaxStates caps the visited-state set under Memo (default 4,000,000,
	// split over root branches like MaxSchedules). 0 means the default.
	MaxStates int

	// Symmetry enables process-symmetry reduction under Memo: state keys are
	// canonicalized over the algorithm's declared symmetry group
	// (mutex.SymmetricInstance), so states equal up to a declared renaming
	// are explored once. Algorithms with no declaration run exactly as with
	// the flag off. Verdicts are unchanged; only reachability is pruned.
	Symmetry bool
	// SharedVisited shares visited sets across root branches: branches run
	// in fixed waves of WaveSize, each wave reading the sets sealed by fully
	// explored branches of strictly earlier waves. Wave membership,
	// visibility, and seal contents are pure functions of the configuration,
	// so the Result stays byte-identical at any Parallel. Implies Memo.
	SharedVisited bool
	// WaveSize is the root-branch wave width for SharedVisited (default
	// DefaultWaveSize). It is a semantic knob: smaller waves seal earlier and
	// prune more. Results are byte-identical at any Parallel for a fixed
	// WaveSize, not across different WaveSize values.
	WaveSize int
	// MaxWaves > 0 stops the shared-set search after that many waves (the
	// Result is Truncated); with SpillDir the checkpoint then covers the
	// completed waves, so a later Resume run picks up where this one stopped.
	// Ignored without SharedVisited.
	MaxWaves int
	// MemBudget > 0 bounds the resident bytes of sealed shared sets: the
	// oldest waves past the budget are served from their spill files
	// (SpillDir, or a private temporary directory when unset). Pruning, and
	// therefore the Result, is unaffected.
	MemBudget int64
	// SpillDir, when set, persists every sealed wave and a manifest
	// checkpoint to this directory, enabling Resume and MemBudget eviction.
	SpillDir string
	// Resume continues a checkpointed shared-set run from SpillDir. The
	// configuration must match the checkpoint (a config digest is verified);
	// the final Result is byte-identical to an uninterrupted run.
	Resume bool

	// Telemetry, when non-nil, receives live search statistics (check_*
	// counters of the work the Result fields count, every pass included —
	// see Result; frontier-depth gauge, restore replay-length histogram) and
	// budget gauges. Strictly write-only: the search never reads it back, so
	// results are identical with it on or off.
	Telemetry *telemetry.Registry
}

// Default caps for the stateful explorer.
const (
	DefaultMaxStates = 4_000_000
	DefaultWaveSize  = 4
)

func (c Config) withDefaults() Config {
	if c.MaxSchedules == 0 {
		c.MaxSchedules = 50_000
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 400
	}
	if c.MaxStates == 0 {
		c.MaxStates = DefaultMaxStates
	}
	if c.SharedVisited {
		c.Memo = true
		if c.WaveSize <= 0 {
			c.WaveSize = DefaultWaveSize
		}
	}
	if c.Session.Passes == 0 {
		c.Session.Passes = 1
	}
	c.Session.NoTrace = true
	return c
}

// Result reports a check run. Its counts cover the final pass of each root
// branch: a budget redistribution round reruns capped branches, and a rerun's
// sub-result replaces the branch's earlier one. The check_* telemetry
// counters are monotonic and count the work of every pass, so after a
// redistribution round they exceed the fields they mirror; without one they
// equal them (a resumed run's counters miss the waves it restored).
type Result struct {
	// Complete counts fully-explored terminal points: complete schedules
	// (all processes finished) without Memo, distinct all-done canonical
	// states with it.
	Complete int
	// Truncated reports whether a cap (MaxSchedules, MaxStates, or MaxDepth)
	// stopped the search before covering the whole schedule space.
	Truncated bool
	// DepthTruncated counts schedule prefixes cut at MaxDepth. The seed
	// explorer silently dropped these; any nonzero count voids exhaustive
	// claims, so it is reported separately and surfaced by cmd/rmecheck.
	DepthTruncated int
	// Violations lists safety failures with their schedules;
	// ViolationSchedules carries the same counterexamples structurally, so
	// they can be replayed without re-parsing the message text.
	Violations         []string
	ViolationSchedules []sim.Schedule
	// Deadlocks lists schedules that wedged the system, with
	// DeadlockSchedules the structural counterparts.
	Deadlocks         []string
	DeadlockSchedules []sim.Schedule

	// StatesVisited counts canonical states expanded by the explorer
	// (terminal states included) under Memo; 0 without Memo.
	StatesVisited int
	// StatesPruned counts search nodes skipped because their canonical state
	// was already explored.
	StatesPruned int
	// SharedPruned is the subset of StatesPruned whose hit came from the
	// shared visited set (a wave sealed earlier) rather than the branch's
	// private set; 0 unless SharedVisited.
	SharedPruned int
	// Waves counts the shared-set waves the search sealed, waves restored by
	// Resume included; 0 unless SharedVisited.
	Waves int
	// SleepPruned counts step branches skipped by the sleep-set reduction.
	SleepPruned int
	// MachineSteps counts every simulator action of the final passes,
	// exploration and restoration alike — the cost measure the incremental
	// explorer is benchmarked on against the seed's stateless replay.
	MachineSteps int64
	// ReplaySteps is the subset of MachineSteps spent restoring states on
	// backtrack (checkpoint advance and prefix replay).
	ReplaySteps int64
}

// Ok reports whether no violation or deadlock was found.
func (r *Result) Ok() bool { return len(r.Violations) == 0 && len(r.Deadlocks) == 0 }

// Err summarizes failures as an error, or nil.
func (r *Result) Err() error {
	if r.Ok() {
		return nil
	}
	msg := ""
	if len(r.Violations) > 0 {
		msg = r.Violations[0]
	} else {
		msg = "deadlock: " + r.Deadlocks[0]
	}
	return fmt.Errorf("check: %d violations, %d deadlocks; first: %s",
		len(r.Violations), len(r.Deadlocks), msg)
}

// Counters returns the Result's perf-ledger counters, Truncated as 0/1.
func (r *Result) Counters() map[string]int64 {
	truncated := int64(0)
	if r.Truncated {
		truncated = 1
	}
	return map[string]int64{
		"complete":        int64(r.Complete),
		"truncated":       truncated,
		"depth_truncated": int64(r.DepthTruncated),
		"states_visited":  int64(r.StatesVisited),
		"states_pruned":   int64(r.StatesPruned),
		"shared_pruned":   int64(r.SharedPruned),
		"sleep_pruned":    int64(r.SleepPruned),
		"waves":           int64(r.Waves),
		"machine_steps":   r.MachineSteps,
		"replay_steps":    r.ReplaySteps,
	}
}

// merge folds a root-branch sub-result into r in submission order.
func (r *Result) merge(b *Result) {
	r.Complete += b.Complete
	r.Truncated = r.Truncated || b.Truncated
	r.DepthTruncated += b.DepthTruncated
	r.Violations = append(r.Violations, b.Violations...)
	r.ViolationSchedules = append(r.ViolationSchedules, b.ViolationSchedules...)
	r.Deadlocks = append(r.Deadlocks, b.Deadlocks...)
	r.DeadlockSchedules = append(r.DeadlockSchedules, b.DeadlockSchedules...)
	r.StatesVisited += b.StatesVisited
	r.StatesPruned += b.StatesPruned
	r.SharedPruned += b.SharedPruned
	r.SleepPruned += b.SleepPruned
	r.MachineSteps += b.MachineSteps
	r.ReplaySteps += b.ReplaySteps
}

// Exhaustive runs the bounded-exhaustive search with the configured
// reductions. The root branch set runs over engine workers (Config.Parallel)
// in waves: by default one wave holding every branch, each on a private
// visited set; with SharedVisited, waves of WaveSize branches that read the
// sets earlier waves sealed. Each wave starts from an even slice of the
// unspent budget, and redistribution rounds rerun capped branches with the
// budget the others left unspent (see searchWaves). Budgets, reruns and seals
// are pure functions of merged sub-results, and sub-results merge in branch
// order, so the Result is byte-identical at any parallelism level. Branch
// enumeration order matches ExhaustiveReference exactly, so with Memo and
// POR off the two agree on every field.
func Exhaustive(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Session.Validate(); err != nil {
		return nil, err
	}
	if cfg.Resume {
		if !cfg.SharedVisited {
			return nil, errors.New("check: Resume requires SharedVisited")
		}
		if cfg.SpillDir == "" {
			return nil, errors.New("check: Resume requires SpillDir")
		}
	}

	branches, sleeps, res, err := expandRoot(cfg)
	if err != nil || res != nil {
		return res, err
	}
	return searchWaves(cfg, branches, sleeps)
}

// expandRoot examines the root state once: its branch set, the sleep mask
// each branch's subtree starts with, and the degenerate verdicts (a machine
// that wedges or finishes before its first action), which come back as a
// final Result instead of branches.
func expandRoot(cfg Config) ([]sim.Action, []uint64, *Result, error) {
	root, err := mutex.NewSession(cfg.Session)
	if err != nil {
		return nil, nil, nil, err
	}
	defer root.Close()
	if v := root.Violations(); len(v) > 0 {
		return nil, nil, &Result{
			Violations:         []string{fmt.Sprintf("%s [schedule ]", v[0])},
			ViolationSchedules: []sim.Schedule{{}},
		}, nil
	}
	m := root.Machine()
	if m.AllDone() {
		return nil, nil, &Result{Complete: 1}, nil
	}
	poised := m.PoisedProcs()
	branches, _ := appendBranches(nil, m, poised, 0, crashLimit(cfg))
	if len(branches) == 0 {
		return nil, nil, &Result{
			Deadlocks:         []string{sim.Schedule{}.String()},
			DeadlockSchedules: []sim.Schedule{{}},
		}, nil
	}
	// The in-node propagation, applied at the root: the i-th step branch
	// sleeps every earlier step branch's process whose pending step commutes
	// with its own. Crash branches always start awake.
	sleeps := make([]uint64, len(branches))
	if porEnabled(cfg, root) {
		var foots [maskProcs]mutex.StepFootprint
		footOK := footprints(root, poised, &foots)
		var taken uint64
		for i, act := range branches {
			if !act.Crash {
				sleeps[i] = childSleepMask(act.Proc, taken, &foots, footOK, cfg.Session.Procs)
				taken |= 1 << uint(act.Proc)
			}
		}
	}
	return branches, sleeps, nil, nil
}

// searchWaves is the checker's budget loop. Root branches run in waves:
// without SharedVisited one wave holds every branch, each on a private
// visited set, and nothing is sealed. With it, waves hold WaveSize branches;
// a branch reads the visited sets sealed by strictly earlier waves and
// writes only its private delta, so nothing a branch observes depends on
// scheduling within its own wave. After a wave completes, each branch's
// clean delta is sealed: a budget-truncated branch contributes only the
// states whose subtrees it finished exploring before the cut (see
// noteBudgetCut) — the claims a cut left unwitnessed would be unsound to
// share.
//
// A wave's first visit slices the budget its predecessors left unspent
// evenly across its branches; with one wave that is the even slice of the
// global caps. Even slices starve hot branches on skewed trees, so
// redistribution rounds then hand the globally unspent budget to
// budget-capped branches. A branch reruns iff its budget grew or, under
// sharing, its wave is resealed or it reads a resealed wave: a shared-mode
// rerun changes what later branches observe, so a round rolls the run back
// to the earliest grown wave and replays every wave from there, keeping the
// final pass fully sealed. Depth-truncated branches never grow: MaxDepth
// cuts are not a budget shortage. Everything is a pure function of the
// configuration — byte-identical at any Parallel and across a
// checkpoint/Resume split (the round counter is checkpointed too).
func searchWaves(cfg Config, branches []sim.Action, sleeps []uint64) (*Result, error) {
	nb := len(branches)
	width := nb
	var store *sharedStore
	if cfg.SharedVisited {
		width = cfg.WaveSize
		var err error
		if store, err = newSharedStore(cfg); err != nil {
			return nil, err
		}
		defer store.close()
	}
	nWaves := ceilDiv(nb, width)

	subs := make([]*Result, nb)
	// Budgets start at the -1 sentinel ("never assigned"): a wave slices
	// budget on its first visit only, so budgets raised by a redistribution
	// round survive the rerun passes.
	schedBudget := make([]int, nb)
	stateBudget := make([]int, nb)
	for i := range schedBudget {
		schedBudget[i], stateBudget[i] = -1, -1
	}
	// grown marks the branches whose budget grew since they last ran.
	grown := make([]bool, nb)

	// Budget gauges let a heartbeat render progress against the caps; the
	// done counters track fan-out completion. All nil-safe no-ops without a
	// registry.
	cfg.Telemetry.Gauge("check_branches").Set(int64(nb))
	cfg.Telemetry.Gauge("check_max_schedules").Set(int64(cfg.MaxSchedules))
	if cfg.Memo {
		cfg.Telemetry.Gauge("check_max_states").Set(int64(cfg.MaxStates))
	}
	schedGauge := cfg.Telemetry.Gauge("check_branch_schedule_budget")
	stateGauge := cfg.Telemetry.Gauge("check_branch_state_budget")
	showBudget := func(i int) {
		schedGauge.Set(int64(schedBudget[i]))
		if cfg.Memo {
			stateGauge.Set(int64(stateBudget[i]))
		}
	}
	branchesDone := cfg.Telemetry.Counter("check_branches_done")
	budgetRounds := cfg.Telemetry.Counter("check_budget_rounds")
	var wavesSealed *telemetry.Counter
	if store != nil {
		cfg.Telemetry.Gauge("check_waves").Set(int64(nWaves))
		wavesSealed = cfg.Telemetry.Counter("check_waves_done")
	}

	// wavesDone counts sealed waves, so it stays 0 without sharing.
	from, wavesDone, rounds := 0, 0, 0
	if cfg.Resume {
		man, err := loadManifest(cfg, nb)
		if err != nil {
			return nil, err
		}
		copy(subs, man.Subs)
		copy(schedBudget, man.SchedBudget)
		copy(stateBudget, man.StateBudget)
		from, wavesDone, rounds = man.WavesDone, man.WavesDone, man.Rounds
		if err := store.loadRuns(man); err != nil {
			return nil, err
		}
		cfg.Telemetry.Gauge("check_resume_waves").Set(int64(from))
		if man.Done {
			// The checkpoint covers a finished run (all waves plus budget
			// redistribution): the stored sub-results merge to the final
			// Result with no re-exploration.
			return mergeSubs(subs, wavesDone, false), nil
		}
	}
	checkpoint := func(done bool) error {
		if store == nil || cfg.SpillDir == "" {
			return nil
		}
		return writeManifest(cfg, nb, wavesDone, rounds, done, subs, schedBudget, stateBudget, store)
	}

	// runWave runs wave w: on its first visit the whole remaining budget
	// rolls forward to it and is sliced across its branches only; then every
	// branch the rerun rule selects runs, and a shared wave is sealed and
	// checkpointed.
	runWave := func(w int) error {
		lo, hi := w*width, min((w+1)*width, nb)
		first := schedBudget[lo] < 0
		if first {
			// Shared-mode branch sizes depend on what earlier waves sealed,
			// so reserving budget for later waves would starve hot early
			// waves on work that later waves will never need to repeat. With
			// WaveSize 1 this is exactly the reference's sequential global
			// budget.
			spentSched, spentStates := 0, 0
			for _, sub := range subs[:lo] {
				spentSched += sub.Complete
				spentStates += sub.StatesVisited
			}
			sliceSched := ceilDiv(max(0, cfg.MaxSchedules-spentSched), hi-lo)
			sliceState := ceilDiv(max(0, cfg.MaxStates-spentStates), hi-lo)
			for i := lo; i < hi; i++ {
				schedBudget[i], stateBudget[i] = sliceSched, sliceState
				grown[i] = true
			}
			showBudget(lo)
		}
		var run []int
		for i := lo; i < hi; i++ {
			if grown[i] || store != nil {
				run = append(run, i)
			}
		}
		deltas := make([]map[sim.Fingerprint]uint64, len(run))
		err := engine.ForEach(len(run), cfg.Parallel, func(k int) error {
			i := run[k]
			e := newExplorer(cfg, schedBudget[i], stateBudget[i])
			defer e.close()
			if store != nil {
				e.shared = &sharedView{store: store, maxGen: w}
			}
			sub, err := e.run(branches[i], sleeps[i])
			subs[i] = sub
			if store != nil {
				deltas[k] = e.visited
			}
			if first {
				branchesDone.Inc()
			}
			return err
		})
		if err != nil || store == nil {
			return err
		}
		if err := store.seal(w, deltas); err != nil {
			return err
		}
		wavesDone = w + 1
		wavesSealed.Inc()
		return checkpoint(false)
	}

	// Each pass runs waves [from, nWaves) in order: the initial pass, then
	// one per redistribution round.
	for {
		for w := from; w < nWaves; w++ {
			if cfg.MaxWaves > 0 && w >= cfg.MaxWaves {
				// MaxWaves cut the run before every branch was explored; the
				// merged result covers the completed waves only and is marked
				// truncated. The per-wave checkpoints (if any) let Resume
				// finish the job.
				return mergeSubs(subs, wavesDone, true), nil
			}
			if err := runWave(w); err != nil {
				return nil, err
			}
		}
		if rounds >= maxBudgetRounds {
			break
		}
		totalComplete, totalStates := 0, 0
		for _, sub := range subs {
			totalComplete += sub.Complete
			totalStates += sub.StatesVisited
		}
		var capped []int
		for i, sub := range subs {
			if sub.Truncated && (sub.Complete >= schedBudget[i] || cfg.Memo && sub.StatesVisited >= stateBudget[i]) {
				capped = append(capped, i)
			}
		}
		if len(capped) == 0 {
			break
		}
		extraSched := max(0, (cfg.MaxSchedules-totalComplete)/len(capped))
		extraStates := 0
		if cfg.Memo {
			extraStates = max(0, (cfg.MaxStates-totalStates)/len(capped))
		}
		// Re-run only branches whose binding cap actually grows.
		var redo []int
		for _, i := range capped {
			if subs[i].Complete >= schedBudget[i] && extraSched > 0 ||
				subs[i].StatesVisited >= stateBudget[i] && extraStates > 0 {
				redo = append(redo, i)
			}
		}
		if len(redo) == 0 {
			break
		}
		rounds++
		budgetRounds.Inc()
		clear(grown)
		for _, i := range redo {
			schedBudget[i] += extraSched
			stateBudget[i] += extraStates
			grown[i] = true
		}
		showBudget(redo[0])
		from = redo[0] / width
		if store != nil {
			store.truncate(from)
			wavesDone = from
		}
	}

	res := mergeSubs(subs, wavesDone, false)
	if err := checkpoint(true); err != nil {
		return nil, err
	}
	return res, nil
}

// mergeSubs folds root-branch sub-results into one Result in branch order,
// skipping branches a MaxWaves stop left unexplored.
func mergeSubs(subs []*Result, waves int, truncated bool) *Result {
	res := &Result{Waves: waves, Truncated: truncated}
	for _, sub := range subs {
		if sub != nil {
			res.merge(sub)
		}
	}
	return res
}

// maxBudgetRounds bounds the redistribution rounds. Unspent budget shrinks
// every round (a still-capped branch consumes exactly what it is given), so
// a private search usually settles within a few rounds; a shared search,
// whose reruns reshape what later waves prune, can use every round. The
// bound is a backstop, not a tuning knob.
const maxBudgetRounds = 8

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Stress runs many randomized schedules (with optional crash injection) and
// aggregates failures. Seeds are distributed over cfg.Parallel engine
// workers; each seed's run is a pure function of its seed, so the aggregate
// is identical at any parallelism level. Failures carry the full executed
// schedule, so every stress counterexample is replayable.
func Stress(cfg Config, seeds int, crashProb float64) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Session.Validate(); err != nil {
		return nil, err
	}
	// Failure schedules are read inside Drive (before the session is
	// recycled) and reported by seed index afterwards.
	scheds := make([]sim.Schedule, seeds)
	specs := make([]engine.RunSpec, seeds)
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		specs[seed] = engine.RunSpec{
			Session: cfg.Session,
			Drive: func(s *mutex.Session) error {
				err := s.RunRandom(cfg.Seed+int64(seed), mutex.RandomRunOptions{
					CrashProb:         crashProb,
					MaxCrashesPerProc: cfg.CrashesPerProc,
				})
				if err != nil {
					scheds[seed] = s.Machine().Schedule()
				}
				return err
			},
		}
	}
	cfg.Telemetry.Gauge("check_seeds").Set(int64(seeds))
	res := &Result{}
	for seed, r := range engine.Run(specs, engine.Options{Parallel: cfg.Parallel, Telemetry: cfg.Telemetry}) {
		switch {
		case r.Err == nil:
			res.Complete++
		case errors.Is(r.Err, mutex.ErrStuck):
			res.Deadlocks = append(res.Deadlocks, fmt.Sprintf("seed %d: %s", seed, scheds[seed]))
			res.DeadlockSchedules = append(res.DeadlockSchedules, scheds[seed])
		default:
			res.Violations = append(res.Violations,
				fmt.Sprintf("seed %d: %v [schedule %s]", seed, r.Err, scheds[seed]))
			res.ViolationSchedules = append(res.ViolationSchedules, scheds[seed])
		}
	}
	return res, nil
}
