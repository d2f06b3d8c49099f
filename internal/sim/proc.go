package sim

import (
	"errors"
	"fmt"

	"rme/internal/memory"
	"rme/internal/word"
)

// Proc is one simulated process. It implements memory.Env for the algorithm
// code running on its body goroutine; every Env call blocks at the step gate
// until the controller grants the step (or delivers a crash).
//
// Proc methods fall into two groups:
//
//   - Env methods and Mark/SetTag: callable only from the body goroutine;
//   - everything else is controller-side and lives on Machine.
type Proc struct {
	id      int
	m       *Machine
	program Program

	// Gate channels. The body sends its next operation on pendingCh and
	// blocks receiving a verdict on resumeCh.
	pendingCh chan stepReq
	resumeCh  chan verdict

	// Controller-side state; only touched while the body is blocked.
	// pending points at slot, where the controller receives each
	// announcement, so announcing allocates nothing.
	pending *stepReq
	slot    stepReq
	parked  bool
	done    bool
	err     error
	crashes int
	steps   int
	rmrCC   int
	rmrDSM  int
	tag     int
}

var _ memory.Env = (*Proc)(nil)

// stepReq is an announced shared-memory operation, a multi-cell wait, or the
// body's final "finished" announcement.
type stepReq struct {
	cell *simCell
	op   memory.Op
	spin func(word.Word) bool // non-nil for SpinUntil probes

	// Multi-cell wait (SpinUntilMulti): no step is taken; the process parks
	// until multiPred holds for the watched cells' values.
	multi     []*simCell
	multiPred func([]word.Word) bool

	// fin marks the body's last message: the program returned (or failed with
	// p.err set), or the body acknowledges a kill, and no further operations
	// follow. Delivering completion on the announcement channel keeps every
	// controller wait a plain channel receive instead of a two-way select —
	// the step gate is the simulator's hottest path (see EXPERIMENTS.md E15).
	fin bool
}

// isWait reports whether the request is a multi-cell wait (not a step).
func (r *stepReq) isWait() bool { return r.multi != nil }

// verdict is the controller's response to an announced operation.
type verdict struct {
	ret   word.Word
	vals  []word.Word // SpinUntilMulti results
	crash bool
	kill  bool
}

// Sentinels unwinding the body goroutine.
var (
	errCrashed = errors.New("sim: crash step")
	errKilled  = errors.New("sim: killed")
)

// newProc returns a process with no body goroutine, which counts as done
// until launch.
func newProc(m *Machine, id int) *Proc {
	return &Proc{
		id:        id,
		m:         m,
		pendingCh: make(chan stepReq),
		resumeCh:  make(chan verdict),
		done:      true,
	}
}

// reset prepares the process for a (re-)launch: the program is installed
// and all controller-side state and counters clear. The unbuffered gate
// channels are reused: the previous body, if any, ended with its fin
// message, so it holds neither and both are empty.
func (p *Proc) reset(program Program) {
	p.program = program
	p.pending = nil
	p.parked = false
	p.done = false
	p.err = nil
	p.crashes = 0
	p.steps = 0
	p.rmrCC = 0
	p.rmrDSM = 0
	p.tag = 0
}

// launch starts the body goroutine. The controller must waitQuiescent
// immediately after, so bodies never run concurrently.
func (p *Proc) launch() {
	go p.runLoop()
}

// runLoop runs the program, restarting with Recover after each crash step.
// Its last act is always a fin message on the gate channel — after normal
// completion, after a body failure (p.err set), and as the acknowledgement
// of a kill — so the controller never waits on anything but pendingCh.
func (p *Proc) runLoop() {
	recovering := false
	for p.runOnce(recovering) {
		recovering = true
	}
	p.pendingCh <- stepReq{fin: true}
}

// runOnce executes Run or Recover and reports whether it ended in a crash
// step. A kill unwinds like a return. Non-sentinel panics are recorded as
// process failures and surfaced by the controller; they indicate bugs in
// algorithm code.
func (p *Proc) runOnce(recovering bool) (crashed bool) {
	defer func() {
		switch r := recover(); r {
		case nil, errKilled:
		case errCrashed:
			crashed = true
		default:
			p.err = fmt.Errorf("panic in process %d body: %v", p.id, r)
		}
	}()
	if recovering {
		p.program.Recover(p)
	} else {
		p.program.Run(p)
	}
	return false
}

// announce parks the body at the step gate and returns the granted result.
func (p *Proc) announce(req stepReq) word.Word {
	p.pendingCh <- req
	v := <-p.resumeCh
	if v.crash {
		panic(errCrashed)
	}
	if v.kill {
		panic(errKilled)
	}
	return v.ret
}

// cell resolves a memory.Cell to this machine's representation.
func (p *Proc) cell(c memory.Cell) *simCell { return p.m.own(c) }

// --- memory.Env --------------------------------------------------------------

// ID returns the process id.
func (p *Proc) ID() int { return p.id }

// Width returns the machine word size.
func (p *Proc) Width() word.Width { return p.m.cfg.Width }

// Read performs an atomic read step.
func (p *Proc) Read(c memory.Cell) word.Word {
	return p.announce(stepReq{cell: p.cell(c), op: memory.Read()})
}

// Write performs an atomic write step.
func (p *Proc) Write(c memory.Cell, v word.Word) {
	p.announce(stepReq{cell: p.cell(c), op: memory.Write(v)})
}

// Swap performs an atomic fetch-and-store step.
func (p *Proc) Swap(c memory.Cell, v word.Word) word.Word {
	return p.announce(stepReq{cell: p.cell(c), op: memory.Swap(v)})
}

// Add performs an atomic fetch-and-add step.
func (p *Proc) Add(c memory.Cell, d word.Word) word.Word {
	return p.announce(stepReq{cell: p.cell(c), op: memory.Add(d)})
}

// CAS performs an atomic compare-and-swap step, returning the prior value.
func (p *Proc) CAS(c memory.Cell, expected, replacement word.Word) word.Word {
	return p.announce(stepReq{cell: p.cell(c), op: memory.CAS(expected, replacement)})
}

// Apply performs an arbitrary atomic operation step.
func (p *Proc) Apply(c memory.Cell, op memory.Op) word.Word {
	return p.announce(stepReq{cell: p.cell(c), op: op})
}

// SpinUntil busy-waits until pred holds for c's value, and returns that
// value. Each probe is a read step; failed probes park the process until the
// cell is next touched by a non-read operation, so RMR accounting matches the
// local-spin rules of both models and controllers never need to schedule
// unproductive spinning.
func (p *Proc) SpinUntil(c memory.Cell, pred func(word.Word) bool) word.Word {
	return p.announce(stepReq{cell: p.cell(c), op: memory.Read(), spin: pred})
}

// SpinUntilMulti blocks until pred holds for the values of all given cells
// (evaluated atomically at registration and after every non-read operation on
// any of them) and returns those values. It models a CC process spinning
// locally on several cached locations at once: the wait itself takes no
// steps, and each recheck triggered by an invalidation is charged one RMR
// against the touched cell (a cache-miss re-read), mirroring the CC cost of
// the spin loop it replaces. In the DSM model a recheck is charged iff the
// touched cell is remote — algorithms that need DSM-local spinning should
// spin on a single local cell with SpinUntil instead.
func (p *Proc) SpinUntilMulti(cells []memory.Cell, pred func([]word.Word) bool) []word.Word {
	scs := make([]*simCell, len(cells))
	for i, c := range cells {
		scs[i] = p.cell(c)
	}
	v := p.announceWait(stepReq{multi: scs, multiPred: pred})
	return v
}

// announceWait submits a multi-cell wait and returns the satisfying values.
func (p *Proc) announceWait(req stepReq) []word.Word {
	p.pendingCh <- req
	v := <-p.resumeCh
	if v.crash {
		panic(errCrashed)
	}
	if v.kill {
		panic(errKilled)
	}
	return v.vals
}

// --- body annotations ---------------------------------------------------------

// Mark appends an annotation event to the trace. It is not a step: it does
// not consume a scheduling action and is invisible to the algorithm.
func (p *Proc) Mark(note string) {
	p.m.seq++
	p.m.record(Event{Seq: p.m.seq, Kind: EvMark, Proc: p.id, Note: note})
}

// SetTag publishes a small integer annotation readable by the controller via
// Machine.Tag (the mutex driver uses it to expose entry/CS/exit phases to the
// mutual-exclusion monitor).
func (p *Proc) SetTag(tag int) { p.tag = tag }

// RMRCount returns the process's RMR count under the given model. It is safe
// from the body goroutine (between steps) and from the controller.
func (p *Proc) RMRCount(m Model) int {
	if m == DSM {
		return p.rmrDSM
	}
	return p.rmrCC
}

// StepCount returns the number of shared-memory steps the process has
// executed (crash steps excluded).
func (p *Proc) StepCount() int { return p.steps }
