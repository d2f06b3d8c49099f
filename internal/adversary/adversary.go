// Package adversary implements the paper's lower-bound construction
// (Theorem 1) operationally: an adversarial scheduler in the Anderson–Kim /
// Chan–Woelfel round framework that drives a real RME algorithm so that a
// set of *active* processes keeps incurring RMRs without entering the
// critical section, without crashing, and without discovering one another.
//
// The proof maintains a table of 2^n schedules (§3.1); its operational
// content is that the maximal schedule can be *restricted* to any subset of
// the active processes without affecting the rest. This package materializes
// exactly that: the maximal schedule is the live execution, a "column" is a
// deterministic replay of the schedule with a process's actions removed, and
// every removal is verified — the observables (step counts, RMR counts,
// pending operations, phases, cache sets) of all remaining processes must be
// unchanged by the removal, which is the operational reading of invariants
// I3/I4/I9. Observables are compared as plain values: a pending operation by
// its cell's allocation id and the operation's code, arguments and name,
// and the cache sets of all active processes at once by
// sim.Machine.CachesAgree, one word operation per cell per 64 processes.
// A removal that fails verification is rolled back and handled
// conservatively (the process is run to completion instead), so the
// construction never reports rounds it did not actually force.
//
// Each round has the paper's two phases:
//
//   - Setup: every active process advances through non-RMR steps until it
//     is poised to incur an RMR (processes that park on a spin wait cannot
//     be charged further RMRs and leave the active set, exactly like the
//     proof's processes that stop being chargeable).
//   - Contention: cells with at least K poised active processes are
//     high-contention. Low-contention rounds keep an independent set of
//     actives (distinct cells, no cell owned/previously accessed by another
//     active) and step each once. High-contention groups are handled by the
//     read case (readers are invisible) or by the hiding manoeuvre.
//
// The hiding manoeuvre is the m=1, A = X\{z}, B = X\{z} instance of the
// Process-Hiding Lemma: a candidate z is hidden if applying the whole
// group's operations with and without z leaves the register with the same
// value. (FAS and writes always hide everyone but the last; failed CAS
// steps are invisible; fetch-and-add on wide words hides nobody — which is
// precisely Katzan–Morrison's defence and the tradeoff the paper proves.)
// After the group steps, every member except z crashes (at most one crash
// per process, assumption A3), recovers with amnesia, and runs to
// completion; processes the completing alphas would discover are removed
// first, using the replay machinery. The general multi-group lemma with its
// full combinatorics lives in packages hypergraph and hiding.
package adversary

import (
	"fmt"
	"sort"

	"rme/internal/engine"
	"rme/internal/memory"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/telemetry"
	"rme/internal/word"
)

// Status classifies a process during the construction.
type Status int

// Process statuses.
const (
	// Active: undiscovered, charged one RMR per round, never crashed, never
	// in the CS — the processes the lower bound is about.
	Active Status = iota + 1
	// Blocked: parked on a wait the adversary will not service; keeps its
	// RMRs but earns no more. (The conservative fallback when removal
	// verification fails.)
	Blocked
	// Finished: ran to completion (super-passage over); visible to others.
	Finished
	// Removed: erased from the execution by verified replay.
	Removed
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Blocked:
		return "blocked"
	case Finished:
		return "finished"
	case Removed:
		return "removed"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Config parameterizes the adversary.
type Config struct {
	// Session is the mutex session configuration (algorithm, n, w, model).
	// Passes is forced to 1 (one-shot mutual exclusion, as in the proof).
	Session mutex.Config
	// K is the high-contention threshold (the paper's k = w^d); 0 means
	// max(4, w^2) capped at n.
	K int

	// Telemetry, when non-nil, receives round progression and erasure
	// statistics (adversary_* series), updated once per completed round.
	// Write-only: the construction never reads it back.
	Telemetry *telemetry.Registry
}

// maxRounds caps the construction at 8·w rounds, comfortably above any
// passage bound by assumption A1.
func (c Config) maxRounds() int { return 8 * int(c.Session.Width) }

func (c Config) withDefaults() Config {
	w := int(c.Session.Width)
	if c.K == 0 {
		c.K = w * w
		if c.K < 4 {
			c.K = 4
		}
		if c.K > c.Session.Procs {
			c.K = c.Session.Procs
		}
	}
	c.Session.Passes = 1
	c.Session.NoTrace = true
	return c
}

// RoundKind classifies rounds.
type RoundKind int

// Round kinds.
const (
	LowContention RoundKind = iota + 1
	HighContention
)

// String returns the kind name.
func (k RoundKind) String() string {
	if k == HighContention {
		return "high"
	}
	return "low"
}

// Round reports one completed round.
type Round struct {
	Index        int
	Kind         RoundKind
	ActiveBefore int
	ActiveAfter  int
	Stepped      int
	HiddenKept   int
	Finished     int
	Removed      int
	Blocked      int
}

// Report is the outcome of the construction.
type Report struct {
	Model     sim.Model
	Width     word.Width
	Procs     int
	K         int
	Rounds    []Round
	Survivors []int // ids of processes active at the end
	// SurvivorRMRs[i] is the RMR count of Survivors[i]; each survivor has
	// never crashed and never entered the CS.
	SurvivorRMRs []int
	// HidingAttempts/HidingWins count the value-collision searches.
	HidingAttempts int
	HidingWins     int
	// Replays counts verified schedule replays (removals).
	Replays int
	// RemovalRollbacks counts removals rejected by verification.
	RemovalRollbacks int
	// ViableRounds is the number of completed rounds at the moment the
	// reported survivors were snapshotted (the proof's largest compliant
	// row index): every survivor was charged at least one RMR in each of
	// these rounds.
	ViableRounds int
	// Steps is the length of the final execution's schedule.
	Steps int
	// Schedule is the final execution's full schedule. The construction runs
	// with NoTrace (erasure audits replay constantly), so a caller that
	// wants the step-level story replays this schedule on a traced machine.
	Schedule sim.Schedule
	// InvariantViolations lists operational invariant-audit failures
	// (empty in a sound construction).
	InvariantViolations []string
}

// ForcedRMRs returns the maximum RMR count over surviving active processes
// — the quantity Theorem 1 lower-bounds by Ω(min(log_w n, log n/log log n)).
func (r *Report) ForcedRMRs() int {
	maxRMR := 0
	for _, v := range r.SurvivorRMRs {
		if v > maxRMR {
			maxRMR = v
		}
	}
	return maxRMR
}

// MinSurvivorRMRs returns the minimum RMR count over survivors (every
// survivor is charged every round, so this equals the round count in a
// clean construction).
func (r *Report) MinSurvivorRMRs() int {
	if len(r.SurvivorRMRs) == 0 {
		return 0
	}
	minRMR := r.SurvivorRMRs[0]
	for _, v := range r.SurvivorRMRs[1:] {
		if v < minRMR {
			minRMR = v
		}
	}
	return minRMR
}

// Counters returns the construction's outcome statistics as perf-ledger
// counters; the construction is deterministic, so all are exactly gateable.
func (r *Report) Counters() map[string]int64 {
	return map[string]int64{
		"viable_rounds":   int64(r.ViableRounds),
		"forced_rmrs":     int64(r.ForcedRMRs()),
		"survivors":       int64(len(r.Survivors)),
		"hiding_wins":     int64(r.HidingWins),
		"hiding_attempts": int64(r.HidingAttempts),
		"replays":         int64(r.Replays),
		"rollbacks":       int64(r.RemovalRollbacks),
		"violations":      int64(len(r.InvariantViolations)),
	}
}

// Adversary drives one construction. It holds the live session checked out
// of an engine.Worker; replay candidates (buildWithout) cycle through the
// same worker, so the whole construction — every erasure audit included —
// runs on at most two machines.
type Adversary struct {
	cfg        Config
	worker     *engine.Worker
	session    *mutex.Session
	status     []Status
	report     Report
	lastViable viable
	tm         advTelemetry

	// replay and cacheMask are buildWithout's retained buffers: the
	// restricted schedule being replayed, and the active processes whose
	// cache sets the replay must preserve.
	replay    sim.Schedule
	cacheMask word.Bitset
}

// advTelemetry holds the construction's live metric handles; all nil-safe
// no-ops without Config.Telemetry. Per-round deltas come from the Round
// report, cumulative erasure stats are re-published from the report totals,
// so the final snapshot matches the Report exactly.
type advTelemetry struct {
	rounds, stepped, finished  *telemetry.Counter
	removed, blocked, hidden   *telemetry.Counter
	round, active              *telemetry.Gauge
	replays, rollbacks         *telemetry.Gauge
	hidingAttempts, hidingWins *telemetry.Gauge
}

func newAdvTelemetry(reg *telemetry.Registry) advTelemetry {
	return advTelemetry{
		rounds:         reg.Counter("adversary_rounds"),
		stepped:        reg.Counter("adversary_stepped"),
		finished:       reg.Counter("adversary_finished"),
		removed:        reg.Counter("adversary_removed"),
		blocked:        reg.Counter("adversary_blocked"),
		hidden:         reg.Counter("adversary_hidden_kept"),
		round:          reg.Gauge("adversary_round"),
		active:         reg.Gauge("adversary_active"),
		replays:        reg.Gauge("adversary_replays"),
		rollbacks:      reg.Gauge("adversary_removal_rollbacks"),
		hidingAttempts: reg.Gauge("adversary_hiding_attempts"),
		hidingWins:     reg.Gauge("adversary_hiding_wins"),
	}
}

// observeRound publishes one completed round.
func (a *Adversary) observeRound(rep *Round) {
	a.tm.rounds.Inc()
	a.tm.stepped.Add(int64(rep.Stepped))
	a.tm.finished.Add(int64(rep.Finished))
	a.tm.removed.Add(int64(rep.Removed))
	a.tm.blocked.Add(int64(rep.Blocked))
	a.tm.hidden.Add(int64(rep.HiddenKept))
	a.tm.round.Set(int64(rep.Index))
	a.tm.active.Set(int64(rep.ActiveAfter))
	a.tm.replays.Set(int64(a.report.Replays))
	a.tm.rollbacks.Set(int64(a.report.RemovalRollbacks))
	a.tm.hidingAttempts.Set(int64(a.report.HidingAttempts))
	a.tm.hidingWins.Set(int64(a.report.HidingWins))
}

// New prepares an adversary over a fresh session.
func New(cfg Config) (*Adversary, error) {
	cfg = cfg.withDefaults()
	w := engine.NewWorker()
	s, err := w.Session(cfg.Session)
	if err != nil {
		w.Close()
		return nil, err
	}
	w.Instrument(cfg.Telemetry)
	a := &Adversary{
		cfg:       cfg,
		worker:    w,
		session:   s,
		status:    make([]Status, cfg.Session.Procs),
		tm:        newAdvTelemetry(cfg.Telemetry),
		cacheMask: word.NewBitset(cfg.Session.Procs),
	}
	cfg.Telemetry.Gauge("adversary_max_rounds").Set(int64(cfg.maxRounds()))
	cfg.Telemetry.Gauge("adversary_procs").Set(int64(cfg.Session.Procs))
	for i := range a.status {
		a.status[i] = Active
	}
	a.report.Model = cfg.Session.Model
	a.report.Width = cfg.Session.Width
	a.report.Procs = cfg.Session.Procs
	a.report.K = cfg.K
	return a, nil
}

// Close releases the underlying machines.
func (a *Adversary) Close() {
	if a.session != nil {
		a.session.Close()
		a.session = nil
	}
	if a.worker != nil {
		a.worker.Close()
		a.worker = nil
	}
}

// Run executes rounds until fewer than two processes remain active, the
// round cap is hit, or a round makes no progress, then returns the report.
//
// Survivors are reported from the last *viable row*: if the final round
// inactivates every process (as the hiding-immune wide-word algorithms
// force), the report falls back to the active set as it stood before that
// round — matching the proof, which takes the largest i for which row i is
// still i-compliant.
func (a *Adversary) Run() (*Report, error) {
	a.snapshotViable(0)
	for round := 1; round <= a.cfg.maxRounds(); round++ {
		if len(a.actives()) < 2 {
			break
		}
		progressed, err := a.round(round)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		if len(a.actives()) > 0 {
			a.snapshotViable(round)
		}
		if !progressed {
			break
		}
	}
	a.finishReport()
	return &a.report, nil
}

// viable is the last nonempty active set, with RMR counts, at a round
// boundary.
type viable struct {
	round   int
	procs   []int
	rmrs    []int
	crashes []int
}

func (a *Adversary) snapshotViable(round int) {
	m := a.session.Machine()
	v := viable{round: round}
	for _, p := range a.actives() {
		v.procs = append(v.procs, p)
		v.rmrs = append(v.rmrs, m.RMRs(p))
		v.crashes = append(v.crashes, m.Crashes(p))
	}
	if len(v.procs) > 0 {
		a.lastViable = v
	}
}

func (a *Adversary) finishReport() {
	a.report.Steps = a.session.Machine().Steps()
	a.report.Schedule = a.session.Machine().Schedule()
	v := a.lastViable
	a.report.Survivors = v.procs
	a.report.SurvivorRMRs = v.rmrs
	a.report.ViableRounds = v.round
	// Invariant audits on the reported row: survivors never crashed (I6)
	// and were charged at least one RMR per round (I10).
	for i, p := range v.procs {
		if v.crashes[i] > 0 {
			a.audit(fmt.Sprintf("survivor p%d crashed %d times", p, v.crashes[i]))
		}
		if v.rmrs[i] < v.round {
			a.audit(fmt.Sprintf("survivor p%d has %d RMRs over %d rounds (I10)", p, v.rmrs[i], v.round))
		}
	}
}

func (a *Adversary) audit(msg string) {
	a.report.InvariantViolations = append(a.report.InvariantViolations, msg)
}

func (a *Adversary) actives() []int {
	var out []int
	for p, st := range a.status {
		if st == Active {
			out = append(out, p)
		}
	}
	return out
}

// round runs one setup + contention round; it reports whether any active
// process was charged an RMR.
func (a *Adversary) round(index int) (bool, error) {
	if err := a.setupPhase(); err != nil {
		return false, err
	}
	poised := a.poisedActives()
	if len(poised) == 0 {
		return false, nil
	}

	groups := a.groupByCell(poised)
	high, low := a.classify(groups)

	rep := Round{Index: index, ActiveBefore: len(a.actives())}
	var err error
	if 2*countMembers(high) >= len(poised) {
		rep.Kind = HighContention
		err = a.highRound(&rep, high, low)
	} else {
		rep.Kind = LowContention
		err = a.lowRound(&rep, groups)
	}
	if err != nil {
		return false, err
	}
	// A contention-phase step may have completed some active's entry
	// protocol; the proof never leaves an active in the CS (I7) — such
	// processes run to completion and become visible.
	if err := a.finishEntrants(&rep); err != nil {
		return false, err
	}
	a.auditErasability(&rep)
	a.auditRound()
	rep.ActiveAfter = len(a.actives())
	a.report.Rounds = append(a.report.Rounds, rep)
	a.observeRound(&rep)
	return rep.Stepped > 0, nil
}

// finishEntrants runs to completion every active process that acquired the
// critical section during this round.
func (a *Adversary) finishEntrants(rep *Round) error {
	for _, p := range a.actives() {
		m := a.session.Machine()
		if tag := m.Tag(p); tag == mutex.TagCS || tag == mutex.TagExit {
			if err := a.finishProcess(p); err != nil {
				return err
			}
			rep.Finished++
		}
	}
	return nil
}

// auditRound checks the direct per-round invariants on the active set:
// actives never crashed (I6), never entered the critical section (I7), and
// in the DSM model their owned cells were touched by no one else (I8).
// Failures are recorded in the report; a sound construction reports none.
func (a *Adversary) auditRound() {
	m := a.session.Machine()
	for _, p := range a.actives() {
		if m.Crashes(p) > 0 {
			a.audit(fmt.Sprintf("I6: active p%d has crashed", p))
		}
		if tag := m.Tag(p); tag == mutex.TagCS || tag == mutex.TagExit {
			a.audit(fmt.Sprintf("I7: active p%d reached phase %s", p, mutex.TagName(tag)))
		}
	}
	if a.cfg.Session.Model != sim.DSM {
		return
	}
	activeSet := make(map[int]bool)
	for _, p := range a.actives() {
		activeSet[p] = true
	}
	for _, c := range m.Cells() {
		owner := c.Owner()
		if owner == memory.Shared || !activeSet[owner] {
			continue
		}
		for _, q := range m.Accessors(c) {
			if q != owner {
				a.audit(fmt.Sprintf("I8: cell %s owned by active p%d was accessed by p%d", c.Label(), owner, q))
			}
		}
	}
}

// auditErasability is the operational row-compliance check run at the end
// of every round: each active process must be individually erasable — the
// execution with its actions removed must be indistinguishable to everyone
// else. An active that fails was discovered (some completed process
// branched on its traces) and is blocked: it keeps its RMRs but is no
// longer part of the row. This realizes invariants I2/I3 per process; the
// proof's stronger joint-subset guarantee is approximated by the
// per-process check (see the package comment).
func (a *Adversary) auditErasability(rep *Round) {
	for _, q := range a.actives() {
		if a.verifyErasable(q) {
			continue
		}
		a.status[q] = Blocked
		rep.Blocked++
		a.report.RemovalRollbacks++
	}
}

// setupPhase advances every active process through non-RMR steps until it
// is poised to incur an RMR; processes that park leave the active set.
func (a *Adversary) setupPhase() error {
	m := a.session.Machine()
	for _, p := range a.actives() {
		for {
			if m.ProcDone(p) {
				// Completed without the adversary's consent (can only
				// happen with a trivial lock); count it finished.
				a.status[p] = Finished
				break
			}
			if m.Parked(p) || !m.Poised(p) {
				a.status[p] = Blocked
				break
			}
			if m.Tag(p) == mutex.TagCS {
				// The process slipped into the CS on non-RMR steps; the
				// proof would have finished it — do so (I7).
				if err := a.finishProcess(p); err != nil {
					return err
				}
				break
			}
			if m.WouldRMR(p) {
				break
			}
			if _, err := a.session.StepProc(p); err != nil {
				return err
			}
		}
	}
	return nil
}

func (a *Adversary) poisedActives() []int {
	m := a.session.Machine()
	var out []int
	for _, p := range a.actives() {
		if m.Poised(p) && m.WouldRMR(p) {
			out = append(out, p)
		}
	}
	return out
}

// group is the set of poised actives sharing a pending cell. The cell is
// recorded by allocation id, which is stable across the session
// replacements that verified removals cause (cell handles are not).
type group struct {
	cellID  int
	members []int
}

// cell resolves the group's cell on the current machine.
func (g group) cell(m *sim.Machine) memory.Cell { return m.CellByID(g.cellID) }

func (a *Adversary) groupByCell(poised []int) []group {
	m := a.session.Machine()
	byCell := make(map[int]*group)
	var order []int
	for _, p := range poised {
		po, ok := m.Pending(p)
		if !ok || po.Cell == nil {
			continue
		}
		id := po.Cell.CellID()
		g, ok := byCell[id]
		if !ok {
			g = &group{cellID: id}
			byCell[id] = g
			order = append(order, id)
		}
		g.members = append(g.members, p)
	}
	sort.Ints(order)
	out := make([]group, 0, len(byCell))
	for _, id := range order {
		out = append(out, *byCell[id])
	}
	return out
}

func (a *Adversary) classify(groups []group) (high, low []group) {
	for _, g := range groups {
		if len(g.members) >= a.cfg.K {
			high = append(high, g)
		} else {
			low = append(low, g)
		}
	}
	return high, low
}

func countMembers(gs []group) int {
	n := 0
	for _, g := range gs {
		n += len(g.members)
	}
	return n
}
