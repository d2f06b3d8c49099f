// Package engine is the execution layer between the simulator/driver stack
// and everything that launches simulation runs: experiment grids, the model
// checker, the lower-bound adversary's replay machinery, and the CLIs.
//
// It contributes two things the callers used to hand-roll:
//
//   - Reuse. A Worker checks sessions out and back in and keeps every
//     released one; a request Resets the most recent compatible session
//     (cells rolled back in place, sim.Machine.Reset) instead of building a
//     new one, which removes the dominant construction cost from
//     replay-heavy workloads (the checker for every DFS branch and
//     checkpoint, the adversary for every erasure audit, the service for
//     every shard batch). A reset keeps each process's body goroutine and
//     algorithm handle, and allocates nothing (mutex.Session.Reset).
//
//   - Parallelism with determinism. Run executes a batch of RunSpecs on a
//     pool of workers and returns results in submission order regardless of
//     completion order, so a table rendered from the results is
//     byte-identical at any parallelism level, including 1. A result is
//     identified by its position alone; anything a caller needs beyond the
//     Result's counters it captures in the spec's Drive, into a slot of its
//     own index-aligned slice.
package engine

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/telemetry"
	"rme/internal/trace"
)

// RunSpec describes one simulation run: a session construction plus how to
// drive it.
type RunSpec struct {
	// Session is the machine/algorithm configuration.
	Session mutex.Config
	// Drive executes the run; nil means Session.RunRoundRobin. It must be
	// deterministic (seed any randomness from the spec itself) or the
	// engine's byte-identical-at-any-parallelism guarantee is void. Drive is
	// also the one per-run hook: it runs on the worker before the session is
	// recycled, so a caller that needs more than the Result reads it from
	// the session here, into a slot of its own (it must not retain the
	// session).
	Drive func(*mutex.Session) error
}

// Result is the outcome of one RunSpec; Run returns them in submission
// order, so results[i] belongs to specs[i].
type Result struct {
	// MaxRMRCC/MaxRMRDSM are the worst per-passage RMR counts under each
	// model; TotalRMRCC/TotalRMRDSM sum over all processes.
	MaxRMRCC, MaxRMRDSM     int
	TotalRMRCC, TotalRMRDSM int
	// Steps is the executed schedule length.
	Steps int
	// Violations are the safety-monitor failures (empty on a correct run).
	Violations []string
	// Err is the first error from construction or Drive.
	Err error
}

// MaxRMR returns the worst per-passage RMR count under the given model.
func (r Result) MaxRMR(m sim.Model) int {
	if m == sim.DSM {
		return r.MaxRMRDSM
	}
	return r.MaxRMRCC
}

// Options tunes a Run.
type Options struct {
	// Parallel is the worker count; <= 0 means GOMAXPROCS.
	Parallel int
	// Metrics, when non-nil, accumulates run counts and RMR statistics
	// across Run calls (cmd/rmrbench records them in its ledger manifests).
	Metrics *Metrics
	// Trace, when non-nil, captures every run's full event stream: each run
	// fills its own position in the batch, and the whole batch is appended
	// once every run has finished, so captured runs come back in spec order
	// at any parallelism level. Capturing overrides Session.NoTrace for the
	// duration of the run (the machine must retain events to have a trace to
	// hand over).
	Trace *trace.Capture
	// Telemetry, when non-nil, receives live run statistics: engine_runs /
	// engine_run_errors counters, engine_busy_ns worker busy time,
	// engine_jobs_pending / engine_workers gauges, and the worker pool's
	// engine_session_reuse / engine_session_build counters. Purely
	// observational — results are unaffected.
	Telemetry *telemetry.Registry
}

// Parallelism resolves a parallelism request: values <= 0 mean GOMAXPROCS.
func Parallelism(p int) int {
	if p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes every spec and returns one Result per spec, index-aligned
// with the input. Specs are distributed over min(Parallel, len(specs))
// workers; results land in their submission slots, so the output order
// never depends on scheduling. Individual failures are reported
// per-Result, not as a joint error.
//
// Run builds a transient Pool per call; batch-per-round callers (the
// service layer submits one batch per simulated round) should hold a Pool
// so worker sessions survive between batches.
func Run(specs []RunSpec, opts Options) []Result {
	pl := NewPool(opts.Parallel)
	defer pl.Close()
	return pl.Run(specs, opts)
}

// Pool is a persistent worker set. Where Run discards its workers — and
// with them every released session — when the batch ends, a Pool keeps
// them across Run calls, so a caller submitting many batches (the
// lock-service layer runs one engine batch per arrival round) pays session
// construction once per worker and shape instead of once per batch. A
// Pool's Run has the same determinism contract as the package-level Run.
// Pools are not safe for concurrent Run calls.
type Pool struct {
	workers []*Worker
}

// NewPool builds a pool of Parallelism(parallel) workers. Close must be
// called to close the released sessions.
func NewPool(parallel int) *Pool {
	ws := make([]*Worker, Parallelism(parallel))
	for i := range ws {
		ws[i] = NewWorker()
	}
	return &Pool{workers: ws}
}

// Close closes every worker's released sessions. The pool must not be used
// afterwards.
func (pl *Pool) Close() {
	for _, w := range pl.workers {
		w.Close()
	}
}

// Run executes the batch on the pool's workers with the same semantics as
// the package-level Run: min(len(pl.workers), Parallelism(opts.Parallel),
// len(specs)) workers, submission-order results, per-Result failures.
// Workers are (re-)instrumented from opts.Telemetry on every call.
func (pl *Pool) Run(specs []RunSpec, opts Options) []Result {
	res := make([]Result, len(specs))
	par := min(Parallelism(opts.Parallel), len(pl.workers), len(specs))
	var runs []trace.Run
	if opts.Trace != nil {
		runs = make([]trace.Run, len(specs))
	}
	tm := newRunTelemetry(opts.Telemetry)
	if tm != nil {
		tm.pending.Add(int64(len(specs)))
		tm.workers.Add(int64(par))
		defer tm.workers.Add(-int64(par))
	}
	for _, w := range pl.workers[:max(par, 1)] {
		w.Instrument(opts.Telemetry)
	}
	fanOut(len(specs), par, func(k, i int) {
		var tr *trace.Run
		if runs != nil {
			tr = &runs[i]
		}
		res[i] = runOne(pl.workers[k], &specs[i], opts.Metrics, tr, tm)
	})
	if opts.Trace != nil {
		opts.Trace.Append(runs)
	}
	return res
}

// fanOut calls body(k, i) once for every i in [0, n), in index order on the
// calling goroutine when par <= 1 and otherwise on par goroutines; k in
// [0, max(par, 1)) names the goroutine, so each can own per-goroutine state
// (Pool.Run gives goroutine k worker k).
func fanOut(n, par int, body func(k, i int)) {
	if par <= 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < par; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				body(k, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// runTelemetry bundles the live-run handles Run resolves once per batch;
// nil when telemetry is disabled.
type runTelemetry struct {
	runs, errs, busy *telemetry.Counter
	pending, workers *telemetry.Gauge
}

func newRunTelemetry(reg *telemetry.Registry) *runTelemetry {
	if reg == nil {
		return nil
	}
	return &runTelemetry{
		runs:    reg.Counter("engine_runs"),
		errs:    reg.Counter("engine_run_errors"),
		busy:    reg.Counter("engine_busy_ns"),
		pending: reg.Gauge("engine_jobs_pending"),
		workers: reg.Gauge("engine_workers"),
	}
}

// runOne wraps execOne with busy-time and run accounting when telemetry is
// enabled; the timing never feeds back into the result.
func runOne(w *Worker, spec *RunSpec, m *Metrics, tr *trace.Run, tm *runTelemetry) Result {
	if tm == nil {
		return execOne(w, spec, m, tr)
	}
	tm.pending.Add(-1)
	start := time.Now()
	r := execOne(w, spec, m, tr)
	tm.busy.Add(time.Since(start).Nanoseconds())
	tm.runs.Inc()
	if r.Err != nil {
		tm.errs.Inc()
	}
	return r
}

// execOne runs one spec on w; a non-nil tr receives the run's trace.
func execOne(w *Worker, spec *RunSpec, m *Metrics, tr *trace.Run) Result {
	var r Result
	cfg := spec.Session
	if tr != nil {
		// The machine must retain events for the capture to hand over; the
		// override applies to every spec in the batch, so worker reuse
		// (Compatible includes NoTrace) is unaffected.
		cfg.NoTrace = false
	}
	s, err := w.Session(cfg)
	if err != nil {
		r.Err = err
		return r
	}
	drive := spec.Drive
	if drive == nil {
		drive = (*mutex.Session).RunRoundRobin
	}
	r.Err = drive(s)
	r.MaxRMRCC = s.MaxPassageRMRs(sim.CC)
	r.MaxRMRDSM = s.MaxPassageRMRs(sim.DSM)
	r.TotalRMRCC = s.TotalRMRs(sim.CC)
	r.TotalRMRDSM = s.TotalRMRs(sim.DSM)
	r.Steps = s.Machine().Steps()
	r.Violations = s.Violations()
	if tr != nil {
		// Clone: Reset truncates the machine's retained trace in place.
		events := append([]sim.Event(nil), s.Machine().Trace()...)
		scfg := s.Config()
		*tr = trace.Run{Label: scfg.Algorithm.Name(), Procs: scfg.Procs, Model: scfg.Model, Events: events}
	}
	if m != nil {
		m.Add(1, r.Steps, r.MaxRMR(spec.Session.Model))
		m.passages.Add(int64(s.Passages()))
	}
	w.Release(s)
	return r
}

// ForEach runs fn(0), …, fn(n-1) across min(parallel, n) goroutines and
// returns the failure with the lowest index (deterministic regardless of
// completion order), or nil. It is the engine entry point for jobs that
// manage their own sessions (e.g. whole adversary constructions in an
// experiment grid).
func ForEach(n, parallel int, fn func(i int) error) error {
	errs := make([]error, n)
	fanOut(n, min(Parallelism(parallel), n), func(_, i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Worker recycles simulated machines across runs. Checkout (Session) and
// checkin (Release) are explicit so that a caller can hold several sessions
// at once (the adversary's current session and its replay candidate, the
// checker's live session and checkpoints). Released sessions stay on the
// worker until a request takes one back or Close closes them. Workers are
// not safe for concurrent use; Run gives each pool goroutine its own.
type Worker struct {
	// free holds released sessions, most recently released last.
	free []*mutex.Session

	// reuse/build count Session outcomes when the worker is instrumented;
	// both are nil-safe no-ops otherwise.
	reuse *telemetry.Counter
	build *telemetry.Counter
}

// NewWorker returns an empty worker.
func NewWorker() *Worker { return &Worker{} }

// Instrument attaches engine_session_reuse / engine_session_build counters
// from reg to this worker. A nil reg leaves the worker uninstrumented.
func (w *Worker) Instrument(reg *telemetry.Registry) {
	w.reuse = reg.Counter("engine_session_reuse")
	w.build = reg.Counter("engine_session_build")
}

// Session checks out a session for cfg. The most recently released session
// with a compatible configuration is Reset and handed back (no machine
// construction; see mutex.Session.Reset for what a reset still allocates);
// if there is none, or its Reset fails, a new session is built. The caller
// must Release or Close the returned session.
func (w *Worker) Session(cfg mutex.Config) (*mutex.Session, error) {
	for i := len(w.free) - 1; i >= 0; i-- {
		s := w.free[i]
		if !mutex.Compatible(s.Config(), cfg) {
			continue
		}
		w.free = slices.Delete(w.free, i, i+1)
		if err := s.Reset(); err != nil {
			s.Close()
			break
		}
		w.reuse.Inc()
		return s, nil
	}
	w.build.Inc()
	return mutex.NewSession(cfg)
}

// Release returns a session to the worker for reuse.
func (w *Worker) Release(s *mutex.Session) {
	if s != nil {
		w.free = append(w.free, s)
	}
}

// Close closes every released session.
func (w *Worker) Close() {
	for _, s := range w.free {
		s.Close()
	}
	w.free = nil
}

// Metrics accumulates run statistics across engine launches; all methods
// are safe for concurrent use. cmd/rmrbench threads one Metrics through
// each experiment and records its snapshot's counters in the experiment's
// perf-ledger manifest.
type Metrics struct {
	runs      atomic.Int64
	steps     atomic.Int64
	maxRMR    atomic.Int64
	sumMaxRMR atomic.Int64
	passages  atomic.Int64
}

// Add records runs simulation runs with the given total step count and
// worst per-passage RMR count. Consumers that bypass Run (adversary grids)
// call it directly.
func (m *Metrics) Add(runs, steps, maxRMR int) {
	m.runs.Add(int64(runs))
	m.steps.Add(int64(steps))
	m.sumMaxRMR.Add(int64(maxRMR))
	for {
		cur := m.maxRMR.Load()
		if int64(maxRMR) <= cur || m.maxRMR.CompareAndSwap(cur, int64(maxRMR)) {
			return
		}
	}
}

// MetricsSnapshot is a point-in-time reading.
type MetricsSnapshot struct {
	// Runs is the number of simulation runs executed.
	Runs int64
	// Steps is the total number of scheduled actions across runs.
	Steps int64
	// MaxRMR is the worst per-passage RMR count observed in any run (under
	// each run's own configured model).
	MaxRMR int64
	// AvgMaxRMR averages the per-run worst passage cost over all runs.
	AvgMaxRMR float64
	// Passages counts completed passages across runs.
	Passages int64
}

// Counters returns the snapshot's scalars as perf-ledger counters, AvgMaxRMR
// scaled by 100 and rounded to stay an integer.
func (s MetricsSnapshot) Counters() map[string]int64 {
	return map[string]int64{
		"runs":             s.Runs,
		"steps":            s.Steps,
		"max_rmr":          s.MaxRMR,
		"passages":         s.Passages,
		"avg_max_rmr_x100": int64(s.AvgMaxRMR*100 + 0.5),
	}
}

// Snapshot returns the current totals.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Runs:     m.runs.Load(),
		Steps:    m.steps.Load(),
		MaxRMR:   m.maxRMR.Load(),
		Passages: m.passages.Load(),
	}
	if s.Runs > 0 {
		s.AvgMaxRMR = math.Round(float64(m.sumMaxRMR.Load())/float64(s.Runs)*100) / 100
	}
	return s
}
