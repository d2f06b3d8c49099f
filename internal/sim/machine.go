package sim

import (
	"errors"
	"fmt"

	"rme/internal/memory"
	"rme/internal/word"
)

// Config describes a simulated machine.
type Config struct {
	// Procs is the number n of processes.
	Procs int
	// Width is the word size w in bits of every base object.
	Width word.Width
	// Model selects the RMR accounting rule used for scheduling decisions
	// (WouldRMR, RMRs). Both models' counters are always maintained.
	Model Model
	// NoTrace disables trace retention (counters and the response log remain).
	NoTrace bool
	// MaxSteps caps the number of actions; 0 means DefaultMaxSteps.
	MaxSteps int
}

// DefaultMaxSteps bounds runaway executions (e.g. livelocking algorithms
// under adversarial schedules) so tests fail instead of hanging.
const DefaultMaxSteps = 50_000_000

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Procs < 1 {
		return fmt.Errorf("sim: need at least 1 process, got %d", c.Procs)
	}
	if !c.Width.Valid() {
		return fmt.Errorf("sim: invalid word width %d", c.Width)
	}
	if !c.Model.Valid() {
		return fmt.Errorf("sim: invalid model %d", c.Model)
	}
	return nil
}

// Program is the code a simulated process executes. Run is invoked once at
// the start; after each crash step, Recover is invoked with all local
// variables (anything not stored in shared cells) reset — the implementation
// must not carry mutable state across invocations except through shared
// memory, mirroring the paper's crash model.
type Program interface {
	Run(p *Proc)
	Recover(p *Proc)
}

// ProgramFuncs adapts plain functions to Program.
type ProgramFuncs struct {
	RunFunc     func(p *Proc)
	RecoverFunc func(p *Proc)
}

var _ Program = ProgramFuncs{}

// Run invokes RunFunc.
func (f ProgramFuncs) Run(p *Proc) { f.RunFunc(p) }

// Recover invokes RecoverFunc; if nil, Run is invoked instead.
func (f ProgramFuncs) Recover(p *Proc) {
	if f.RecoverFunc != nil {
		f.RecoverFunc(p)
		return
	}
	f.RunFunc(p)
}

// Machine is a deterministic simulated shared-memory multiprocessor. It is a
// single-controller object: all methods must be called from one goroutine
// (the controller); process bodies run step-gated so that exactly one body
// executes at a time.
type Machine struct {
	cfg   Config
	cells []*simCell
	procs []*Proc
	trace []Event
	// log is the one per-action record: the executed schedule with each
	// step's cell, operation and response (see responseLog).
	log     responseLog
	seq     int
	started bool
	closed  bool
	// sealed marks that the machine has been through a full construction
	// (Start or Reset); allocation is closed from then on, so that a reset
	// machine always replays the exact construction of a fresh one.
	sealed bool
	// wakeScratch is a reused buffer for watcher snapshots in resolveWakes.
	wakeScratch []int
	// fpScratch is a reused buffer for Fingerprint's canonical encoding.
	fpScratch []byte
	// symFor/symCache memoize the compiled symmetry declaration (see
	// symPerms); the cell layout is sealed, so compilation never goes stale.
	symFor   *Symmetry
	symCache []symPerm
	// rewind is Rewind's scratch state, nil until the first Rewind.
	rewind *rewinder
}

var _ memory.Allocator = (*Machine)(nil)

// Errors returned by controller methods.
var (
	ErrDone       = errors.New("sim: process has finished")
	ErrNotStarted = errors.New("sim: machine not started")
	ErrStarted    = errors.New("sim: machine already started")
	ErrClosed     = errors.New("sim: machine closed")
	ErrMaxSteps   = errors.New("sim: step limit exceeded")
)

// New creates a machine. Cells must be allocated (NewCell) before Start.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	return &Machine{cfg: cfg}, nil
}

// Procs returns the number of processes.
func (m *Machine) Procs() int { return m.cfg.Procs }

// Width returns the word size in bits.
func (m *Machine) Width() word.Width { return m.cfg.Width }

// NewCell allocates a base object. owner is the DSM segment owner (a process
// id in [0,n) or memory.Shared); init must fit in w bits. NewCell panics on
// misuse because allocation happens during deterministic single-threaded
// setup where errors are programming mistakes, not runtime conditions.
func (m *Machine) NewCell(label string, owner int, init word.Word) memory.Cell {
	if m.started || m.sealed {
		panic("sim: NewCell after Start")
	}
	if owner != memory.Shared && (owner < 0 || owner >= m.cfg.Procs) {
		panic(fmt.Sprintf("sim: cell %q owner %d out of range", label, owner))
	}
	if !m.cfg.Width.Fits(init) {
		panic(fmt.Sprintf("sim: cell %q initial value %d exceeds %d bits", label, init, m.cfg.Width))
	}
	c := &simCell{
		cellState: cellState{
			val:          init,
			cached:       word.NewBitset(m.cfg.Procs),
			watchers:     word.NewBitset(m.cfg.Procs),
			lastAccessor: -1,
		},
		m:        m,
		id:       len(m.cells),
		owner:    owner,
		label:    label,
		init:     init,
		accessed: word.NewBitset(m.cfg.Procs),
	}
	m.cells = append(m.cells, c)
	return c
}

// Start launches one process per program. Processes are started one at a
// time and each is run until its first shared-memory step (or completion),
// so bodies never execute concurrently. After a Reset, Start reuses the
// existing process structures, gate channels and body goroutines: each body
// takes one kill verdict, unwinds the program Reset abandoned, and runs its
// new one.
func (m *Machine) Start(programs []Program) error {
	if m.started {
		return ErrStarted
	}
	if len(programs) != m.cfg.Procs {
		return fmt.Errorf("sim: got %d programs for %d processes", len(programs), m.cfg.Procs)
	}
	m.started = true
	m.sealed = true
	if m.procs == nil {
		m.procs = make([]*Proc, m.cfg.Procs)
		for i := range m.procs {
			m.procs[i] = newProc(m, i)
		}
	}
	for i, prog := range programs {
		if err := m.relaunch(m.procs[i], prog); err != nil {
			return err
		}
	}
	return nil
}

// relaunch installs prog as p's program, clears p's controller-side state
// and runs the program up to its first announcement (see Proc.launch). Start
// launches every process through it, and AdoptErasure the erased one alone.
func (m *Machine) relaunch(p *Proc, prog Program) error {
	p.reset(prog)
	p.launch()
	return m.waitQuiescent(p)
}

// Reset returns the machine to its post-construction, pre-Start state:
// every cell reverts to its initial value with empty cache/accessor/watcher
// sets, the trace and response log are truncated in place, all counters
// clear, and process structures are retained for the next Start. Reset is
// legal at any point, including mid-run and after Close.
//
// Reset leaves every body goroutine parked at the step gate, mid-program or
// idle after its program ended, and the next Start relaunches each with one
// kill verdict. So a machine that has been started must be Closed even
// after a Reset, or its parked bodies leak.
//
// Once the bodies exist, neither Reset nor the Start that follows allocates
// in the simulator: process structures, gate channels and body goroutines
// are all reused, and what a reset run still allocates is its programs'
// own (see DESIGN.md §6).
//
// Equivalence guarantee: a machine that is Reset and re-Started with an
// identical construction replays byte-identical traces, schedules, and
// CC/DSM RMR counters versus a fresh machine driven the same way (see
// TestResetEquivalence). Allocation stays sealed: NewCell after Reset
// panics, because new cells would break that guarantee.
func (m *Machine) Reset() {
	m.started = false
	m.closed = false
	for _, p := range m.procs {
		// Until Start relaunches it, a process counts as done, as after New.
		p.done, p.pending, p.parked = true, nil, false
	}
	for _, c := range m.cells {
		c.val = c.init
		c.cached.ClearAll()
		c.accessed.ClearAll()
		c.watchers.ClearAll()
		c.lastAccessor = -1
	}
	m.trace = m.trace[:0]
	m.log.reset()
	m.seq = 0
}

// resume hands p its verdict and blocks until p is quiescent again. Every
// verdict but a kill goes through here.
func (m *Machine) resume(p *Proc, v verdict) error {
	p.resumeCh <- v
	return m.waitQuiescent(p)
}

// waitQuiescent blocks until p has announced its next step or finished.
// Completion arrives as a fin message on the same channel as operation
// announcements, so the wait is a plain receive — one channel operation on
// the step gate instead of a two-way select (measured in EXPERIMENTS.md E15).
// Multi-cell waits (SpinUntilMulti) are handled here: if the predicate
// already holds the body is resumed with the values (and we wait for its
// next announcement), otherwise the process parks watching all cells.
func (m *Machine) waitQuiescent(p *Proc) error {
	p.slot = <-p.pendingCh
	if p.slot.fin {
		p.done = true
	} else {
		p.pending = &p.slot
	}
	if p.err != nil {
		if errors.Is(p.err, errSwallowed) {
			panic(swallowedKill(p))
		}
		return fmt.Errorf("sim: process %d failed: %w", p.id, p.err)
	}
	if p.done || !p.pending.isWait() {
		return nil
	}
	if vals, ok := m.registerWait(p); ok {
		return m.resume(p, verdict{vals: vals})
	}
	return nil // parked
}

// registerWait charges the registration reads of a multi-cell wait, then
// either returns the watched values with true (predicate holds, the wait is
// over) or parks the process watching every cell and returns false.
func (m *Machine) registerWait(p *Proc) ([]word.Word, bool) {
	req := p.pending
	m.log.waited = true
	vals := make([]word.Word, len(req.multi))
	for i, c := range req.multi {
		// A real spin loop starts by reading each location once: charge a
		// cache miss for copies the process does not hold, and a DSM RMR for
		// remote cells.
		missCC := !c.cached.Test(p.id)
		remote := c.owner != p.id
		if missCC {
			p.rmrCC++
			c.cached.Set(p.id)
		}
		if remote {
			p.rmrDSM++
		}
		if missCC || remote {
			m.seq++
			m.record(Event{Seq: m.seq, Kind: EvWake, Proc: p.id, Cell: c.id, CellLabel: c.label, RMRCC: missCC, RMRDSM: remote})
		}
		vals[i] = c.val
	}
	if req.multiPred(vals) {
		p.pending = nil
		return vals, true
	}
	p.parked = true
	for _, c := range req.multi {
		c.watchers.Set(p.id)
	}
	return nil, false
}

// checkProc validates that process p can take an action.
func (m *Machine) checkProc(p int) (*Proc, error) {
	if !m.started {
		return nil, ErrNotStarted
	}
	if m.closed {
		return nil, ErrClosed
	}
	if p < 0 || p >= len(m.procs) {
		return nil, fmt.Errorf("sim: process %d out of range", p)
	}
	pr := m.procs[p]
	if pr.done {
		return nil, fmt.Errorf("step process %d: %w", p, ErrDone)
	}
	if len(m.log.acts) >= m.cfg.MaxSteps {
		return nil, ErrMaxSteps
	}
	return pr, nil
}

// Step executes process p's pending operation. If p is parked on a spin whose
// predicate is still false after the probe read, p parks again (the probe is
// still a step and is accounted). Otherwise p runs until its next
// shared-memory operation or completion.
func (m *Machine) Step(p int) (Event, error) {
	pr, err := m.checkProc(p)
	if err != nil {
		return Event{}, err
	}
	req := pr.pending
	if req == nil {
		return Event{}, fmt.Errorf("sim: process %d has no pending operation", p)
	}
	if req.isWait() {
		return Event{}, fmt.Errorf("sim: process %d is waiting on a multi-cell spin and cannot be stepped", p)
	}

	ev := m.applyStep(pr, req)
	parked := req.spin != nil && !req.spin(ev.Ret)
	m.log.step(p, req, ev.Ret, parked)

	if parked {
		// Park: keep the pending request, wait for the cell to change.
		pr.parked = true
		req.cell.watchers.Set(p)
		ev.Parked = true
		m.record(ev)
		return ev, nil
	}

	pr.parked = false
	req.cell.watchers.Clear(p)
	pr.pending = nil
	m.record(ev)

	// A non-read operation may satisfy multi-cell waiters; resume them (in
	// process-id order, for determinism) before the stepping process's body.
	if !req.op.IsRead() {
		if err := m.resolveWakes(req.cell); err != nil {
			return ev, err
		}
	}

	// Resume the body with the operation's result.
	return ev, m.resume(pr, verdict{ret: ev.Ret})
}

// resolveWakes rechecks every multi-cell waiter watching c after a non-read
// operation touched it. Each recheck is charged like the cache-miss re-read
// it models; satisfied waiters resume and run to their next announcement.
// The watcher set is snapshotted into a reused buffer because satisfied
// waiters unregister themselves mid-iteration; bitset order is ascending by
// construction, so process-id-order determinism needs no sort.
func (m *Machine) resolveWakes(c *simCell) error {
	ids := c.watchers.AppendTo(m.wakeScratch[:0])
	m.wakeScratch = ids
	for _, q := range ids {
		qr := m.procs[q]
		if qr.pending == nil || !qr.pending.isWait() {
			continue
		}
		// Phantom recheck: the touch invalidated q's copy of c.
		qr.rmrCC++
		c.cached.Set(q)
		remote := c.owner != q
		if remote {
			qr.rmrDSM++
		}
		vals := make([]word.Word, len(qr.pending.multi))
		for i, wc := range qr.pending.multi {
			vals[i] = wc.val
		}
		ok := qr.pending.multiPred(vals)
		m.seq++
		m.record(Event{
			Seq: m.seq, Kind: EvWake, Proc: q,
			Cell: c.id, CellLabel: c.label,
			RMRCC: true, RMRDSM: remote, Parked: !ok,
		})
		if !ok {
			continue
		}
		for _, wc := range qr.pending.multi {
			wc.watchers.Clear(q)
		}
		qr.pending = nil
		qr.parked = false
		if err := m.resume(qr, verdict{vals: vals}); err != nil {
			return err
		}
	}
	return nil
}

// applyStep mutates memory, maintains cache/ownership metadata and both RMR
// counters, and builds the trace event (not yet recorded).
func (m *Machine) applyStep(pr *Proc, req *stepReq) Event {
	c := req.cell
	before := c.val
	// A non-read operation wakes the single-cell spinners parked on c;
	// multi-cell waiters are rechecked by resolveWakes.
	ret, rmrCC, rmrDSM := c.access(pr.id, c.owner, req.op, m.cfg.Width, &pr.cost, func(q int) {
		if wp := m.procs[q].pending; wp != nil && !wp.isWait() {
			m.procs[q].parked = false
		}
	})
	c.accessed.Set(pr.id)
	pr.steps++

	m.seq++
	return Event{
		Seq:       m.seq,
		Kind:      EvStep,
		Proc:      pr.id,
		Cell:      c.id,
		CellLabel: c.label,
		Op:        req.op,
		Before:    before,
		After:     c.val,
		Ret:       ret,
		RMRCC:     rmrCC,
		RMRDSM:    rmrDSM,
		Spin:      req.spin != nil,
	}
}

// access performs op by process p on the cell, whose DSM segment belongs to
// owner, charges the RMRs to cost, and returns the op's response and whether
// it was an RMR under CC and under DSM, and makes p the cell's last accessor.
// A read leaves p a valid cache copy; any other operation invalidates every
// copy (paper §2) and calls unpark for each process watching the cell.
// Watcher entries stay until the watcher is next stepped, resumed or
// crashed; the unparked flag is what marks it poised. This is the
// simulator's one copy of the cost model: Step applies it to live cells,
// Erasure to scratch copies of them.
func (s *cellState) access(p, owner int, op memory.Op, w word.Width, cost *cost, unpark func(q int)) (ret word.Word, rmrCC, rmrDSM bool) {
	isRead := op.IsRead()
	rmrDSM = owner != p
	rmrCC = !isRead || !s.cached.Test(p)
	s.val, ret = memory.Apply(op, s.val, w)
	s.lastAccessor = p
	if isRead {
		s.cached.Set(p)
	} else {
		s.cached.ClearAll()
		s.watchers.ForEach(unpark)
	}
	if rmrCC {
		cost.rmrCC++
	}
	if rmrDSM {
		cost.rmrDSM++
	}
	return ret, rmrCC, rmrDSM
}

// Crash delivers a crash step to process p: its pending operation is
// discarded (the paper's "about to perform a step, it may instead be forced
// to perform a crash step"), its local state is reset, and its recover
// protocol runs until its first shared-memory operation.
func (m *Machine) Crash(p int) (Event, error) {
	pr, err := m.checkProc(p)
	if err != nil {
		return Event{}, err
	}
	if pr.pending == nil {
		return Event{}, fmt.Errorf("sim: process %d has no pending operation to preempt", p)
	}
	if pr.pending.isWait() {
		for _, wc := range pr.pending.multi {
			wc.watchers.Clear(p)
		}
	} else if pr.parked {
		pr.pending.cell.watchers.Clear(p)
	}
	pr.parked = false
	pr.pending = nil
	pr.crashes++
	m.seq++
	ev := Event{Seq: m.seq, Kind: EvCrash, Proc: p}
	m.record(ev)
	m.log.crash(p)
	return ev, m.resume(pr, verdict{crash: true})
}

// record appends an event to the trace unless tracing is disabled.
func (m *Machine) record(ev Event) {
	if !m.cfg.NoTrace {
		m.trace = append(m.trace, ev)
	}
}

// Close shuts the machine down and ends every body goroutine. It is
// idempotent, and every machine that has been started must be Closed
// (typically deferred) — whether its processes finished, were abandoned
// mid-run, or were Reset — because bodies outlive both their programs and
// Reset.
//
// Every controller call ends in waitQuiescent, so each body is blocked on
// resumeCh: awaiting a verdict in its program or idle after its fin. One
// kill-and-stop verdict unwinds the program, if any, and the body
// acknowledges with fin and exits. Any other acknowledgement means
// algorithm code swallowed the kill sentinel and went on announcing steps,
// which no schedule can account for, so Close panics; Start does the same
// when a relaunch is answered that way (see waitQuiescent).
func (m *Machine) Close() {
	m.closed = true
	for _, p := range m.procs {
		if !p.body {
			continue
		}
		p.resumeCh <- verdict{kill: true, stop: true}
		if ack := <-p.pendingCh; !ack.fin {
			panic(swallowedKill(p))
		}
		p.body = false
		p.done = true
	}
}

// swallowedKill is the panic message for a body that answered a kill with
// another operation.
func swallowedKill(p *Proc) string {
	return fmt.Sprintf("sim: process %d answered a kill with another operation, not fin", p.id)
}

// --- controller queries -----------------------------------------------------

// ProcDone reports whether p's program has returned (super-passages over).
func (m *Machine) ProcDone(p int) bool { return m.procs[p].done }

// AllDone reports whether every process has finished.
func (m *Machine) AllDone() bool {
	for _, pr := range m.procs {
		if !pr.done {
			return false
		}
	}
	return true
}

// Parked reports whether p is blocked on a spin predicate that is false and
// whose cell has not changed since the last probe.
func (m *Machine) Parked(p int) bool { return m.procs[p].parked }

// Poised reports whether p has a pending operation and is not parked, i.e.
// stepping p performs useful work.
func (m *Machine) Poised(p int) bool {
	pr := m.procs[p]
	return !pr.done && pr.pending != nil && !pr.parked
}

// PoisedProcs returns the ids of all poised processes, ascending.
func (m *Machine) PoisedProcs() []int {
	return m.AppendPoised(nil)
}

// AppendPoised appends the ids of all poised processes, ascending, to
// buf[:0] and returns the extended slice. Drivers that sweep every scheduling
// round (mutex.Session.RunRoundRobin, the service layer's shard batches) pass
// a retained buffer so the per-sweep snapshot is allocation-free.
func (m *Machine) AppendPoised(buf []int) []int {
	buf = buf[:0]
	for i, pr := range m.procs {
		if !pr.done && pr.pending != nil && !pr.parked {
			buf = append(buf, i)
		}
	}
	return buf
}

// Stuck reports a deadlock/livelock condition: no process is poised yet not
// all processes are done (everyone alive is parked).
func (m *Machine) Stuck() bool {
	return !m.AllDone() && len(m.PoisedProcs()) == 0
}

// PendingOp describes the operation a process is poised (or parked) on.
type PendingOp struct {
	Proc int
	Cell memory.Cell
	Op   memory.Op
	Spin bool
	// Wait marks a multi-cell wait (SpinUntilMulti): Cell is nil and the
	// process cannot be stepped until a watched cell changes.
	Wait bool
}

// Pending returns p's pending operation, if any.
func (m *Machine) Pending(p int) (PendingOp, bool) {
	pr := m.procs[p]
	if pr.done || pr.pending == nil {
		return PendingOp{}, false
	}
	if pr.pending.isWait() {
		return PendingOp{Proc: p, Wait: true}, true
	}
	return PendingOp{Proc: p, Cell: pr.pending.cell, Op: pr.pending.op, Spin: pr.pending.spin != nil}, true
}

// WouldRMR reports whether p's pending operation would incur an RMR right now
// under the configured model.
func (m *Machine) WouldRMR(p int) bool {
	pr := m.procs[p]
	if pr.done || pr.pending == nil || pr.pending.isWait() {
		return false
	}
	c := pr.pending.cell
	if m.cfg.Model == DSM {
		return c.owner != p
	}
	return !pr.pending.op.IsRead() || !c.cached.Test(p)
}

// RMRs returns the number of RMRs p has incurred under the configured model.
func (m *Machine) RMRs(p int) int { return m.RMRsIn(m.cfg.Model, p) }

// RMRsIn returns p's RMR count under the given model.
func (m *Machine) RMRsIn(model Model, p int) int { return m.procs[p].cost.in(model) }

// Crashes returns the number of crash steps delivered to p.
func (m *Machine) Crashes(p int) int { return m.procs[p].crashes }

// ProcSteps returns the number of shared-memory steps p has executed.
func (m *Machine) ProcSteps(p int) int { return m.procs[p].steps }

// Tag returns the annotation tag last set by p's body (see Proc.SetTag).
func (m *Machine) Tag(p int) int { return m.procs[p].tag }

// Steps returns the number of actions executed so far.
func (m *Machine) Steps() int { return len(m.log.acts) }

// Schedule returns a copy of the executed schedule.
func (m *Machine) Schedule() Schedule {
	out := make(Schedule, len(m.log.acts))
	for i := range m.log.acts {
		out[i] = m.log.acts[i].action()
	}
	return out
}

// AppendSchedule appends the executed schedule's actions by processes for
// which keep returns true to buf[:0] and returns the extended slice — the
// copy-free form of Schedule().Restrict(keep) for callers that replay
// restricted schedules in a loop with a retained buffer.
func (m *Machine) AppendSchedule(buf Schedule, keep func(proc int) bool) Schedule {
	buf = buf[:0]
	for i := range m.log.acts {
		if a := m.log.acts[i].action(); keep(a.Proc) {
			buf = append(buf, a)
		}
	}
	return buf
}

// Trace returns the retained trace (empty when NoTrace is set). The returned
// slice is shared; callers must not modify it.
func (m *Machine) Trace() []Event { return m.trace }

// CellByID returns the cell with the given allocation index. Allocation
// order is deterministic, so ids are stable across replays of the same
// construction.
func (m *Machine) CellByID(id int) memory.Cell { return m.cells[id] }

// Cells returns all allocated cells in allocation order.
func (m *Machine) Cells() []memory.Cell {
	out := make([]memory.Cell, len(m.cells))
	for i, c := range m.cells {
		out[i] = c
	}
	return out
}

// Value returns the current value of a cell.
func (m *Machine) Value(c memory.Cell) word.Word { return m.own(c).val }

// LastAccessor returns the process that last performed an operation on the
// cell (the paper's last_R), or -1 if none has.
func (m *Machine) LastAccessor(c memory.Cell) int { return m.own(c).lastAccessor }

// Accessors returns the processes that have ever performed an operation on
// the cell, ascending.
func (m *Machine) Accessors(c memory.Cell) []int {
	return m.own(c).accessed.AppendTo(nil)
}

// CachedCells returns the ids of cells p holds valid cache copies of.
func (m *Machine) CachedCells(p int) []int {
	var out []int
	for _, c := range m.cells {
		if c.cached.Test(p) {
			out = append(out, c.id)
		}
	}
	return out
}

// CachesAgree reports whether every process in procs holds valid cache
// copies of exactly the same cells on m and o, i.e. whether CachedCells(p)
// is equal on both machines for each such p. The machines must share a
// construction (the same cells in the same order; machines whose cell
// counts differ never agree), and procs must have capacity for m's
// processes. Each cell costs one XOR and mask per 64 processes.
func (m *Machine) CachesAgree(o *Machine, procs word.Bitset) bool {
	if len(m.cells) != len(o.cells) {
		return false
	}
	for i, c := range m.cells {
		if !bitsAgree(c.cached, o.cells[i].cached, procs) {
			return false
		}
	}
	return true
}

// bitsAgree reports whether x and y hold the same members of procs.
func bitsAgree(x, y, procs word.Bitset) bool {
	for wi, w := range x {
		if (w^y[wi])&procs[wi] != 0 {
			return false
		}
	}
	return true
}

// own asserts that the cell belongs to this machine.
func (m *Machine) own(c memory.Cell) *simCell {
	sc, ok := c.(*simCell)
	if !ok || sc.m != m {
		panic(fmt.Sprintf("sim: cell %q does not belong to this machine", c.Label()))
	}
	return sc
}

// simCell is a base object plus the metadata both cost models need. The
// process sets are bitsets so that the invalidate-all of a non-read step and
// the reset between pooled runs are short memclrs rather than per-process
// loops, and watcher iteration is deterministic without sorting.
type simCell struct {
	cellState
	m        *Machine
	id       int
	owner    int
	label    string
	init     word.Word
	accessed word.Bitset
}

// cellState is the part of a cell that a step reads and writes besides its
// accessor set: the value, the processes holding a valid cache copy, the
// single-cell spinners watching it, and the process that last accessed it
// (-1 if none has).
type cellState struct {
	val          word.Word
	cached       word.Bitset
	watchers     word.Bitset
	lastAccessor int
}

var _ memory.Cell = (*simCell)(nil)

// CellID returns the allocation index.
func (c *simCell) CellID() int { return c.id }

// Owner returns the DSM segment owner.
func (c *simCell) Owner() int { return c.owner }

// Label returns the trace label.
func (c *simCell) Label() string { return c.label }
