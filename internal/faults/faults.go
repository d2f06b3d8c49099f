// Package faults is the deterministic fault-injection campaign engine: it
// explores crash placements against a mutual exclusion algorithm
// systematically, judges every run with pluggable invariant oracles, and
// minimizes failures to replayable reproducers.
//
// A campaign probes the crash-free base execution once, asks its Sources to
// generate fault Plans (exhaustive single/double placement over decision
// indices, seeded-random multi-crash runs, targeted placement at
// RMR-incurring steps, parked-process and system-wide crashes), executes
// the plans on the engine's deterministic worker pool, and checks each
// Outcome against the Oracles (mutual exclusion, deadlock-freedom within a
// decision bound, critical-section re-entry completion, and per-algorithm
// RMR budget ceilings). Every failing run is delta-debugged down to a
// minimal concrete schedule that reproduces the same oracle violation —
// see Shrink — and the whole campaign is a pure function of its
// configuration and Seed, so reports are byte-identical at any parallelism.
package faults

import (
	"errors"
	"fmt"

	"rme/internal/engine"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/telemetry"
)

// Campaign configures one fault-injection run against one algorithm.
type Campaign struct {
	// Session is the machine/algorithm configuration (Passes defaults to 1,
	// NoTrace is forced — campaigns replay from schedules, not traces).
	Session mutex.Config
	// Sources generate the fault plans; nil means DefaultSources.
	Sources []Source
	// Oracles judge every run; nil means DefaultOracles for the algorithm.
	Oracles []Oracle
	// Seed is the campaign base seed, threaded into every random source.
	Seed int64
	// Parallel is the engine worker count (<= 0 means GOMAXPROCS). Reports
	// are identical at any value.
	Parallel int
	// Bound caps scheduler decisions per run; 0 derives a generous bound
	// from the probe (the deadlock-freedom oracle's horizon).
	Bound int
	// NoShrink reports failures with their full original schedules instead
	// of delta-debugged minimal reproducers.
	NoShrink bool

	// Telemetry, when non-nil, receives live campaign statistics: a
	// faults_plans gauge once the grid is generated, faults_runs /
	// faults_failures counters as Drives complete, and faults_shrinks /
	// faults_shrink_replays counters from the minimizer. Write-only — the
	// campaign never reads it, so reports are identical with it on or off.
	Telemetry *telemetry.Registry
}

// A campaign reports (and shrinks) at most maxFailures failures and spends at
// most shrinkReplays replays minimizing each one.
const (
	maxFailures   = 8
	shrinkReplays = 400
)

// SourceStat is one source's row in the campaign report.
type SourceStat struct {
	Name     string `json:"name"`
	Runs     int    `json:"runs"`
	Failures int    `json:"failures"`
}

// Failure is one failing run: which source and oracle, the generating plan,
// and the concrete schedules (original and minimized). Schedule strings
// round-trip through sim.ParseSchedule, so a printed failure replays
// byte-identically from the (seed, schedule) pair alone.
type Failure struct {
	Source string
	Oracle string
	Detail string
	Plan   Plan
	// Schedule is the full failing execution.
	Schedule sim.Schedule
	// Shrunk is the minimal reproducer (equal to Schedule when shrinking is
	// disabled or could not reduce it).
	Shrunk sim.Schedule
	// ShrinkReplays counts the replays the minimizer spent.
	ShrinkReplays int
}

// String renders the failure as its replayable reproducer.
func (f *Failure) String() string {
	return fmt.Sprintf("%s/%s: %s\n  plan: %s\n  reproducer: (seed %d, schedule %q)",
		f.Source, f.Oracle, f.Detail, f.Plan, f.Plan.Seed, f.Shrunk.String())
}

// Report is a completed campaign.
type Report struct {
	Algorithm string
	Cfg       mutex.Config
	Seed      int64
	Bound     int
	Probe     Probe
	Runs      int
	Sources   []SourceStat
	Failures  []*Failure
}

// Ok reports whether every run satisfied every oracle.
func (r *Report) Ok() bool { return len(r.Failures) == 0 }

// Err summarizes failures as an error, or nil.
func (r *Report) Err() error {
	if r.Ok() {
		return nil
	}
	return fmt.Errorf("faults: %d failing runs; first: %s", len(r.Failures), r.Failures[0])
}

// Counters returns the campaign's perf-ledger counters, with one
// runs/failures pair per source axis.
func (r *Report) Counters() map[string]int64 {
	c := map[string]int64{
		"runs":            int64(r.Runs),
		"failures":        int64(len(r.Failures)),
		"probe_steps":     int64(r.Probe.Steps),
		"probe_rmr_steps": int64(len(r.Probe.RMRAt)),
		"bound":           int64(r.Bound),
	}
	for _, st := range r.Sources {
		c["src_"+st.Name+"_runs"] = int64(st.Runs)
		c["src_"+st.Name+"_failures"] = int64(st.Failures)
	}
	return c
}

// errPartial marks a shrinker replay that ended mid-execution (neither done
// nor stuck); it keeps end-state oracles from misfiring on prefixes.
var errPartial = errors.New("faults: partial replay")

// DefaultSources returns the standard campaign axes for an algorithm. For
// recoverable algorithms: exhaustive single-crash placement, RMR-targeted
// placement, parked and system-wide crashes, exhaustive double placement,
// and a seeded-random multi-crash axis. Non-recoverable algorithms get only
// the crash-free random-schedule axis (the oracles still apply). short
// trims the grid for use inside -short test runs.
func DefaultSources(recoverable bool, seed int64, short bool) []Source {
	randomRuns := 48
	if short {
		randomRuns = 12
	}
	if !recoverable {
		return []Source{RandomCrashes{Runs: randomRuns, MaxCrashes: 0, Seed: seed}}
	}
	stride := 1
	if short {
		stride = 3
	}
	return []Source{
		ExhaustiveCrashes{Crashes: 1, Stride: stride},
		RMRTargeted{},
		ParkedCrashes{Stride: stride},
		SystemWideCrashes{},
		ExhaustiveCrashes{Crashes: 2},
		RandomCrashes{Runs: randomRuns, MaxCrashes: 3, Seed: seed},
	}
}

// Run executes the campaign: probe, plan generation, parallel execution,
// oracle evaluation, and failure minimization.
func (c Campaign) Run() (*Report, error) {
	cfg := c.Session
	cfg.NoTrace = true
	if cfg.Passes == 0 {
		cfg.Passes = 1
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	oracles := c.Oracles
	if oracles == nil {
		oracles = DefaultOracles(cfg.Algorithm, cfg.Procs, cfg.Width)
	}
	sources := c.Sources
	if sources == nil {
		sources = DefaultSources(cfg.Algorithm.Recoverable(), c.Seed, false)
	}
	if err := validSources(cfg.Algorithm.Recoverable(), sources); err != nil {
		return nil, err
	}
	rep := &Report{Algorithm: cfg.Algorithm.Name(), Cfg: cfg, Seed: c.Seed}

	// Probe the crash-free base execution under the same round-robin policy
	// the placement sources target.
	probe, probeOutcome, err := c.probe(cfg)
	if err != nil {
		return nil, err
	}
	rep.Probe = probe
	rep.Bound = c.Bound
	if rep.Bound <= 0 {
		rep.Bound = 64*probe.Steps + 4096
	}
	if fail, orc := c.judge(probeOutcome, oracles); fail != nil {
		// The algorithm fails without any fault injection; report the base
		// run as the campaign's single failure rather than generating plans
		// whose placement indices are meaningless.
		fail.Source = "probe"
		fail.Plan = Plan{Seed: -1}
		if orc != nil {
			c.minimize(cfg, fail, orc)
		}
		rep.Runs = 1
		rep.Sources = []SourceStat{{Name: "probe", Runs: 1, Failures: 1}}
		rep.Failures = []*Failure{fail}
		return rep, nil
	}

	// Generate the plan grid.
	type job struct {
		source string
		plan   Plan
	}
	var jobs []job
	for _, src := range sources {
		for _, pl := range src.Plans(probe) {
			jobs = append(jobs, job{source: src.Name(), plan: pl})
		}
		rep.Sources = append(rep.Sources, SourceStat{Name: src.Name()})
	}

	// Execute on the engine pool, judging each outcome inside Drive (the
	// session is recycled immediately after). The live counters tick inside
	// Drive so a heartbeat shows run/failure progress; report evaluation
	// below stays purely schedule-order deterministic.
	c.Telemetry.Gauge("faults_plans").Set(int64(len(jobs)))
	runsLive := c.Telemetry.Counter("faults_runs")
	failuresLive := c.Telemetry.Counter("faults_failures")
	fails := make([]*Failure, len(jobs)) // nil = clean
	oracleOf := make([]Oracle, len(jobs))
	specs := make([]engine.RunSpec, len(jobs))
	for i := range jobs {
		specs[i] = engine.RunSpec{
			Session: cfg,
			Drive: func(s *mutex.Session) error {
				o := snapshot(s, jobs[i].plan.drive(s, rep.Bound, nil))
				fails[i], oracleOf[i] = c.judge(o, oracles)
				runsLive.Inc()
				if fails[i] != nil {
					failuresLive.Inc()
				}
				return nil
			},
		}
	}
	results := engine.Run(specs, engine.Options{Parallel: c.Parallel, Telemetry: c.Telemetry})

	// Evaluate in submission order: reports are deterministic at any
	// parallelism.
	srcIndex := make(map[string]int, len(rep.Sources))
	for i := range rep.Sources {
		srcIndex[rep.Sources[i].Name] = i
	}
	rep.Runs = len(results)
	for i, r := range results {
		st := &rep.Sources[srcIndex[jobs[i].source]]
		st.Runs++
		if r.Err != nil {
			return nil, fmt.Errorf("faults: run %d (%s, plan %s): %w", i, jobs[i].source, jobs[i].plan, r.Err)
		}
		fail := fails[i]
		if fail == nil {
			continue
		}
		st.Failures++
		if len(rep.Failures) >= maxFailures {
			continue
		}
		fail.Source = jobs[i].source
		fail.Plan = jobs[i].plan
		if oracleOf[i] != nil {
			c.minimize(cfg, fail, oracleOf[i])
		}
		rep.Failures = append(rep.Failures, fail)
	}
	return rep, nil
}

// judge runs the oracles over one outcome and builds a Failure for the first
// violated oracle, or for a drive error no oracle claims (an internal
// failure, surfaced as oracle "error"); nil when clean. The returned oracle
// is the one to shrink the failure against: nil for a drive error, and for a
// run whose error does not reproduce under replay (errIsReplayable).
func (c Campaign) judge(o *Outcome, oracles []Oracle) (*Failure, Oracle) {
	for _, orc := range oracles {
		if detail := orc.Check(o); detail != "" {
			fail := &Failure{
				Oracle:   orc.Name(),
				Detail:   detail,
				Schedule: o.Schedule,
				Shrunk:   o.Schedule,
			}
			if !errIsReplayable(o.Err) {
				orc = nil
			}
			return fail, orc
		}
	}
	if o.Err != nil {
		return &Failure{Oracle: "error", Detail: o.Err.Error(), Schedule: o.Schedule, Shrunk: o.Schedule}, nil
	}
	return nil, nil
}

// minimize shrinks a failure's schedule in place unless disabled.
func (c Campaign) minimize(cfg mutex.Config, fail *Failure, oracle Oracle) {
	if c.NoShrink {
		return
	}
	shrunk, replays := Shrink(cfg, fail.Schedule, oracle, shrinkReplays)
	fail.Shrunk = shrunk
	fail.ShrinkReplays = replays
	c.Telemetry.Counter("faults_shrinks").Inc()
	c.Telemetry.Counter("faults_shrink_replays").Add(int64(replays))
}

// probe measures the crash-free round-robin execution: its decision count
// and the decisions that incurred an RMR under the configured model.
func (c Campaign) probe(cfg mutex.Config) (Probe, *Outcome, error) {
	s, err := mutex.NewSession(cfg)
	if err != nil {
		return Probe{}, nil, err
	}
	defer s.Close()
	var rmrAt []int
	bound := c.Bound
	if bound <= 0 {
		bound = cfg.MaxSteps
		if bound <= 0 {
			bound = sim.DefaultMaxSteps
		}
	}
	driveErr := Plan{Seed: -1}.drive(s, bound, func(decision int, ev sim.Event) {
		if ev.RMR(cfg.Model) {
			rmrAt = append(rmrAt, decision)
		}
	})
	o := snapshot(s, driveErr)
	return Probe{Steps: len(o.Schedule), RMRAt: rmrAt, Schedule: o.Schedule}, o, nil
}
