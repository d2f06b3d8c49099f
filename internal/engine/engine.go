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
//     every shard batch). A reset still allocates one algorithm handle and
//     one goroutine launch per process (mutex.Session.Reset).
//
//   - Parallelism with determinism. Run executes a batch of RunSpecs on a
//     pool of workers and merges results in submission order regardless of
//     completion order, so a table rendered from the results is
//     byte-identical at any parallelism level, including 1.
package engine

import (
	"math"
	"runtime"
	"slices"
	"sort"
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
	// engine's byte-identical-at-any-parallelism guarantee is void.
	Drive func(*mutex.Session) error
	// Collect extracts an experiment-specific payload from the completed
	// session into Result.Payload; optional. It runs on the worker before
	// the session is recycled, so it must not retain the session.
	Collect func(*mutex.Session) (interface{}, error)
}

// Result is the outcome of one RunSpec, in submission order
// (Result[i].Index == i always).
type Result struct {
	// Index is the spec's position in the submitted batch.
	Index int
	// MaxRMRCC/MaxRMRDSM are the worst per-passage RMR counts under each
	// model; TotalRMRCC/TotalRMRDSM sum over all processes.
	MaxRMRCC, MaxRMRDSM     int
	TotalRMRCC, TotalRMRDSM int
	// Steps is the executed schedule length.
	Steps int
	// Violations are the safety-monitor failures (empty on a correct run).
	Violations []string
	// Payload is Collect's return value, if a Collect was given.
	Payload interface{}
	// Err is the first error from construction, Drive, or Collect.
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
	// across Run calls (used by cmd/rmrbench's machine-readable output).
	Metrics *Metrics
	// Trace, when non-nil, captures every run's full event stream. The batch
	// reserves a contiguous block of submission-order slots up front, so
	// captured runs come back in spec order at any parallelism level.
	// Capturing overrides Session.NoTrace for the duration of the run (the
	// machine must retain events to have a trace to hand over).
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
	base := 0
	if opts.Trace != nil {
		base = opts.Trace.Reserve(len(specs))
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
		res[i] = runOne(pl.workers[k], i, &specs[i], opts.Metrics, opts.Trace, base+i, tm)
	})
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
func runOne(w *Worker, i int, spec *RunSpec, m *Metrics, tc *trace.Capture, slot int, tm *runTelemetry) Result {
	if tm == nil {
		return execOne(w, i, spec, m, tc, slot)
	}
	tm.pending.Add(-1)
	start := time.Now()
	r := execOne(w, i, spec, m, tc, slot)
	tm.busy.Add(time.Since(start).Nanoseconds())
	tm.runs.Inc()
	if r.Err != nil {
		tm.errs.Inc()
	}
	return r
}

func execOne(w *Worker, i int, spec *RunSpec, m *Metrics, tc *trace.Capture, slot int) Result {
	r := Result{Index: i}
	cfg := spec.Session
	if tc != nil {
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
	if r.Err == nil && spec.Collect != nil {
		r.Payload, r.Err = spec.Collect(s)
	}
	if tc != nil {
		// Clone: Reset truncates the machine's retained trace in place.
		events := append([]sim.Event(nil), s.Machine().Trace()...)
		scfg := s.Config()
		tc.Set(slot, trace.Run{
			Label: scfg.Algorithm.Name(), Procs: scfg.Procs, Model: scfg.Model, Events: events,
		})
	}
	if m != nil {
		m.Add(1, r.Steps, r.MaxRMR(spec.Session.Model))
		m.AddPassages(s.Stats(), s.Config().Model)
		m.AddCells(s.Machine().CellRMRStats())
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
// each experiment to report runs and max/avg RMRs in BENCH_results.json.
type Metrics struct {
	runs      atomic.Int64
	steps     atomic.Int64
	maxRMR    atomic.Int64
	sumMaxRMR atomic.Int64

	// The histogram maps are mutex-guarded (not atomics) because they are
	// touched once per run, not once per step; the hot path stays lock-free.
	mu       sync.Mutex
	passages map[int]int64       // per-passage RMR count (run's model) -> passages
	cells    map[string]*cellAgg // cell label -> RMR totals
}

type cellAgg struct {
	cc, dsm int64
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

// AddPassages folds one run's completed passages into the per-passage RMR
// histogram, each counted under the run's own configured model.
func (m *Metrics) AddPassages(stats []mutex.PassageStat, model sim.Model) {
	if len(stats) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.passages == nil {
		m.passages = make(map[int]int64)
	}
	for _, p := range stats {
		m.passages[p.RMRs(model)]++
	}
}

// AddCells folds one run's per-cell RMR totals into the cross-run cell
// table, keyed by label (allocation ids are per-machine).
func (m *Metrics) AddCells(cells []sim.CellRMRs) {
	if len(cells) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cells == nil {
		m.cells = make(map[string]*cellAgg)
	}
	for _, c := range cells {
		a, ok := m.cells[c.Label]
		if !ok {
			a = &cellAgg{}
			m.cells[c.Label] = a
		}
		a.cc += int64(c.RMRCC)
		a.dsm += int64(c.RMRDSM)
	}
}

// PassageBucket is one row of the per-passage RMR histogram.
type PassageBucket struct {
	// RMRs is the passage cost under the run's configured model.
	RMRs int `json:"rmrs"`
	// Passages is how many passages cost exactly that much.
	Passages int64 `json:"passages"`
}

// CellTotal is one row of the cross-run per-cell RMR table.
type CellTotal struct {
	Label  string `json:"label"`
	RMRCC  int64  `json:"rmr_cc"`
	RMRDSM int64  `json:"rmr_dsm"`
}

// maxSnapshotCells caps the cell table in snapshots so machine-readable
// reports stay bounded on huge sweeps; the omitted count is reported.
const maxSnapshotCells = 40

// MetricsSnapshot is a point-in-time reading.
type MetricsSnapshot struct {
	// Runs is the number of simulation runs executed.
	Runs int64 `json:"runs"`
	// Steps is the total number of scheduled actions across runs.
	Steps int64 `json:"steps"`
	// MaxRMR is the worst per-passage RMR count observed in any run (under
	// each run's own configured model).
	MaxRMR int64 `json:"max_rmr"`
	// AvgMaxRMR averages the per-run worst passage cost over all runs.
	AvgMaxRMR float64 `json:"avg_max_rmr"`
	// Passages counts completed passages across runs.
	Passages int64 `json:"passages,omitempty"`
	// PassageRMRHist is the passage-cost histogram, ascending by cost.
	PassageRMRHist []PassageBucket `json:"passage_rmr_hist,omitempty"`
	// Cells are per-cell RMR totals, hottest (CC+DSM) first, capped at
	// maxSnapshotCells rows; CellsOmitted counts the rows cut.
	Cells        []CellTotal `json:"cells,omitempty"`
	CellsOmitted int         `json:"cells_omitted,omitempty"`
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

// Snapshot returns the current totals. The histogram and cell slices are
// sorted copies, so encoding a snapshot is deterministic.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Runs:   m.runs.Load(),
		Steps:  m.steps.Load(),
		MaxRMR: m.maxRMR.Load(),
	}
	if s.Runs > 0 {
		s.AvgMaxRMR = math.Round(float64(m.sumMaxRMR.Load())/float64(s.Runs)*100) / 100
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for rmrs, n := range m.passages {
		s.PassageRMRHist = append(s.PassageRMRHist, PassageBucket{RMRs: rmrs, Passages: n})
		s.Passages += n
	}
	sort.Slice(s.PassageRMRHist, func(i, j int) bool {
		return s.PassageRMRHist[i].RMRs < s.PassageRMRHist[j].RMRs
	})
	for label, a := range m.cells {
		s.Cells = append(s.Cells, CellTotal{Label: label, RMRCC: a.cc, RMRDSM: a.dsm})
	}
	sort.Slice(s.Cells, func(i, j int) bool {
		ti, tj := s.Cells[i].RMRCC+s.Cells[i].RMRDSM, s.Cells[j].RMRCC+s.Cells[j].RMRDSM
		if ti != tj {
			return ti > tj
		}
		return s.Cells[i].Label < s.Cells[j].Label
	})
	if len(s.Cells) > maxSnapshotCells {
		s.CellsOmitted = len(s.Cells) - maxSnapshotCells
		s.Cells = s.Cells[:maxSnapshotCells]
	}
	return s
}
