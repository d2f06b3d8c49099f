package sim

import (
	"fmt"

	"rme/internal/memory"
	"rme/internal/word"
)

// rewinder is Rewind's scratch state, allocated on a machine's first Rewind
// and kept behind one pointer, so that a machine that never rewinds pays one
// word for it.
type rewinder struct {
	parking
	// moved marks the processes with a logged action past the rewind point.
	moved word.Bitset
	// feeds holds each process's feeding Env (see Proc.Env).
	feeds []feeder
	// relaunched, fed and gateFed count the last Rewind's work: the bodies
	// it relaunched, the logged steps it fed them (crash steps aside), and
	// how many of those steps it fed through the step gate.
	relaunched, fed, gateFed int
}

// feeder is a process's memory.Env on a machine that has rewound (see
// Proc.Env). While Rewind feeds the process, each operation that is the
// process's next logged action is answered from the log on the body
// goroutine, with no gate round trip. Every other operation, and every
// operation once the script is used up, is announced at the step gate as
// the Proc's own Env methods announce it.
type feeder struct {
	p *Proc
	// script is the process's share of the prefix being fed, in order, and
	// next how much of it the process has taken. The body advances next only
	// while the controller waits for it at the gate, and the controller
	// touches both only while the body is blocked there, so the gate orders
	// every access.
	script []scriptAct
	next   int
}

var _ memory.Env = (*feeder)(nil)

// scriptAct is one logged action of a script: its index in the response
// log, and the process's step count and RMR counters as of that action.
type scriptAct struct {
	act, steps int
	cost
}

// Env returns the memory.Env the process's program should take its steps
// through: p itself on a machine that has never rewound, and p's feeding Env
// once it has. The feeding Env takes the same steps as p, and lets Rewind
// answer the logged ones on the body goroutine. A program bound to p itself
// is fed at the step gate instead, one round trip per logged step. The Env
// changes once, on the machine's first Rewind, so a program that binds it
// once per run sees it change at most once.
func (p *Proc) Env() memory.Env {
	if rw := p.m.rewind; rw != nil {
		return &rw.feeds[p.id]
	}
	return p
}

// Rewind turns the machine into the execution of the first k actions of its
// own response log, relaunching only the bodies that moved since.
//
// A body's state is a function of the responses it has received (DESIGN.md
// decision 4), so a process with no logged action at or after index k
// stands where the execution of the prefix leaves it, and its body stays
// where it is. Every other, moved, process is relaunched with the program it
// runs and fed its logged actions in the prefix: each step its logged
// response, each crash a crash step. Rewind runs in three stages:
//
//  1. It scans the log for the moved processes, resets the cells the log
//     names, and truncates the log and its custom-op transitions to k.
//  2. It re-applies the prefix to those cells in order through
//     cellState.access and the parking rules of Step and Crash, without
//     running a body. This re-derives values, cache copies, watchers,
//     accessors, last accessors and parked flags. RMRs and steps are charged
//     to moved processes only, since an unmoved process's counters already
//     hold their values at k. Each moved process's actions become its
//     script, with its counters as of each action.
//  3. It relaunches each moved body once. A program that takes its steps
//     through Proc.Env is fed its script on the body goroutine, so its
//     relaunch costs one gate round trip, for the first operation past the
//     script. What a body does not take from its script, because its
//     program is bound to the Proc itself or announced another operation
//     than the logged one, is checked and fed at the gate, one round trip
//     per step.
//
// The event counter is set to k plus the unmoved processes' Marks;
// relaunched bodies add their own as they run again, so the next event is
// numbered as on a replay of the prefix.
//
// Rewind declines, returning false and changing nothing, when the machine
// keeps a trace, whose events past k would have to be taken back, or when a
// multi-cell wait was registered since Reset: its registration and rechecks
// hand a body values that are not step responses, and change counters of
// processes that do not act. It fails when the machine is not started or is
// closed, or when k is out of range. It also fails, naming the action, when
// a moved process announces another operation than the logged one or a
// re-applied step returns another response, which a program whose steps
// depend on anything but its responses can bring about; the machine must
// then be Reset or Closed.
func (m *Machine) Rewind(k int) (bool, error) {
	switch {
	case !m.started:
		return false, ErrNotStarted
	case m.closed:
		return false, ErrClosed
	case k < 0 || k > len(m.log.acts):
		return false, fmt.Errorf("sim: cannot rewind a log of %d actions to %d", len(m.log.acts), k)
	case !m.cfg.NoTrace || m.log.waited:
		return false, nil
	}
	rw := m.rewind
	if rw == nil {
		rw = &rewinder{parking: newParking(m.cfg.Procs), moved: word.NewBitset(m.cfg.Procs), feeds: make([]feeder, m.cfg.Procs)}
		for q, pr := range m.procs {
			rw.feeds[q].p = pr
		}
		m.rewind = rw
	}
	rw.moved.ClearAll()
	rw.parked.ClearAll()
	rw.relaunched, rw.fed, rw.gateFed = 0, 0, 0
	fns := len(m.log.fns)
	for i := range m.log.acts {
		r := &m.log.acts[i]
		if i >= k {
			rw.moved.Set(int(r.proc))
			if !r.crash && memory.OpCode(r.code) == memory.OpCustom && int(r.fn) < fns {
				fns = int(r.fn)
			}
		}
		if !r.crash {
			c := m.cells[r.cell]
			c.val, c.lastAccessor = c.init, -1
			c.cached.ClearAll()
			c.watchers.ClearAll()
			c.accessed.ClearAll()
		}
	}
	m.log.acts = m.log.acts[:k]
	clear(m.log.fns[fns:])
	m.log.fns = m.log.fns[:fns]
	m.seq = k
	for q, pr := range m.procs {
		if !rw.moved.Test(q) {
			m.seq += pr.marks
		}
	}
	err := m.refeed(rw)
	// Between rewinds no feeding Env answers from the log: after a failure
	// the machine is Reset and started afresh.
	for q := range rw.feeds {
		rw.feeds[q].script, rw.feeds[q].next = rw.feeds[q].script[:0], 0
	}
	if err != nil {
		return false, err
	}
	for q, pr := range m.procs {
		pr.parked = rw.parked.Test(q)
	}
	return true, nil
}

// refeed runs stages 2 and 3 of Rewind over the truncated log.
func (m *Machine) refeed(rw *rewinder) error {
	if err := m.reapply(rw); err != nil {
		return err
	}
	for q, pr := range m.procs {
		if !rw.moved.Test(q) {
			continue
		}
		rw.relaunched++
		if err := m.relaunch(pr, pr.program); err != nil {
			return err
		}
		if err := m.feedAtGate(rw, pr); err != nil {
			return err
		}
	}
	return nil
}

// reapply re-applies the truncated log to the reset cells and collects each
// moved process's script (see Rewind).
func (m *Machine) reapply(rw *rewinder) error {
	unpark := func(q int) { rw.parked.Clear(q) }
	var spare cost // charged by the unmoved processes' steps
	for i := range m.log.acts {
		r := &m.log.acts[i]
		q := int(r.proc)
		moved := rw.moved.Test(q)
		// e starts from the moved process's counters as of its last action.
		var e scriptAct
		f := &rw.feeds[q]
		if n := len(f.script); moved && n > 0 {
			e = f.script[n-1]
		}
		e.act = i
		if r.crash {
			if id, ok := rw.crashed(q); ok {
				m.cells[id].watchers.Clear(q)
			}
		} else {
			charged := &spare
			if moved {
				charged = &e.cost
			}
			c := m.cells[r.cell]
			ret, _, _ := c.access(q, c.owner, m.log.op(r), m.cfg.Width, charged, unpark)
			c.accessed.Set(q)
			if ret != r.ret {
				return fmt.Errorf("sim: rewind: logged action %d of process %d returns %d, logged %d", i, q, ret, r.ret)
			}
			rw.stepped(q, &c.cellState, r.cell, r.parked)
			e.steps++
		}
		if !moved {
			continue
		}
		if !r.crash {
			rw.fed++
		}
		f.script = append(f.script, e)
	}
	return nil
}

// feedAtGate feeds the relaunched process pr what its body did not take
// from its script: each logged action must meet the operation pr announces,
// and is delivered at the step gate as Step and Crash deliver it.
func (m *Machine) feedAtGate(rw *rewinder, pr *Proc) error {
	f := &rw.feeds[pr.id]
	for f.next < len(f.script) {
		e := &f.script[f.next]
		r := &m.log.acts[e.act]
		if pr.pending == nil || !r.crash && !sameOp(pr.pending, r) {
			return fmt.Errorf("sim: rewind: process %d does not announce the operation of logged action %d", pr.id, e.act)
		}
		f.next++
		if r.crash {
			pr.pending = nil
			pr.crashes++
			if err := m.resume(pr, verdict{crash: true}); err != nil {
				return err
			}
			continue
		}
		pr.steps, pr.cost = e.steps, e.cost
		rw.gateFed++
		if !r.parked {
			pr.pending = nil
			if err := m.resume(pr, verdict{ret: r.ret}); err != nil {
				return err
			}
		}
	}
	return nil
}

// sameOp reports whether req is the operation of the logged step r: the same
// cell, code and arguments. A custom operation's transition is a func and is
// not compared.
func sameOp(req *stepReq, r *response) bool {
	return !req.isWait() && req.cell.id == int(r.cell) &&
		uint8(req.op.Code) == r.code && req.op.Arg == r.arg && req.op.Arg2 == r.arg2
}

// RewindWork reports the work of the machine's last Rewind that returned
// true: how many bodies it relaunched, how many of their logged steps it fed
// them, and how many of those it fed at the step gate rather than through a
// feeding Env; the crash steps it delivered are not counted.
func (m *Machine) RewindWork() (relaunched, fed, gateFed int) {
	if m.rewind == nil {
		return 0, 0, 0
	}
	return m.rewind.relaunched, m.rewind.fed, m.rewind.gateFed
}

// --- the feeding memory.Env ----------------------------------------------------

// step answers req from the script when it is the process's next logged
// action, and announces it at the step gate otherwise. A logged crash
// unwinds the program as a crash step does, and a logged probe that parked
// is taken without returning, as the spin probes again. While a kill unwinds
// the program, every operation goes to the gate, which reports it.
func (f *feeder) step(req stepReq) word.Word {
	p := f.p
	for f.next < len(f.script) && !p.unwinding {
		e := &f.script[f.next]
		r := &p.m.log.acts[e.act]
		if !r.crash && !sameOp(&req, r) {
			break
		}
		f.next++
		if r.crash {
			p.crashes++
			panic(errCrashed)
		}
		p.steps, p.cost = e.steps, e.cost
		if !r.parked {
			return r.ret
		}
	}
	return p.announce(req).ret
}

// ID returns the process id.
func (f *feeder) ID() int { return f.p.id }

// Width returns the machine word size.
func (f *feeder) Width() word.Width { return f.p.m.cfg.Width }

// Read performs an atomic read step.
func (f *feeder) Read(c memory.Cell) word.Word {
	return f.step(stepReq{cell: f.p.cell(c), op: memory.Read()})
}

// Write performs an atomic write step.
func (f *feeder) Write(c memory.Cell, v word.Word) {
	f.step(stepReq{cell: f.p.cell(c), op: memory.Write(v)})
}

// Swap performs an atomic fetch-and-store step.
func (f *feeder) Swap(c memory.Cell, v word.Word) word.Word {
	return f.step(stepReq{cell: f.p.cell(c), op: memory.Swap(v)})
}

// Add performs an atomic fetch-and-add step.
func (f *feeder) Add(c memory.Cell, d word.Word) word.Word {
	return f.step(stepReq{cell: f.p.cell(c), op: memory.Add(d)})
}

// CAS performs an atomic compare-and-swap step, returning the prior value.
func (f *feeder) CAS(c memory.Cell, expected, replacement word.Word) word.Word {
	return f.step(stepReq{cell: f.p.cell(c), op: memory.CAS(expected, replacement)})
}

// Apply performs an arbitrary atomic operation step.
func (f *feeder) Apply(c memory.Cell, op memory.Op) word.Word {
	return f.step(stepReq{cell: f.p.cell(c), op: op})
}

// SpinUntil busy-waits until pred holds for c's value, as Proc.SpinUntil
// does.
func (f *feeder) SpinUntil(c memory.Cell, pred func(word.Word) bool) word.Word {
	return f.step(stepReq{cell: f.p.cell(c), op: memory.Read(), spin: pred})
}

// SpinUntilMulti is Proc.SpinUntilMulti. A machine that registered a
// multi-cell wait declines to rewind, so no script holds one.
func (f *feeder) SpinUntilMulti(cells []memory.Cell, pred func([]word.Word) bool) []word.Word {
	return f.p.SpinUntilMulti(cells, pred)
}
