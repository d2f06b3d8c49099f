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
	// relaunched and fed count the last Rewind's work: the bodies it
	// relaunched and the logged steps it fed them (crash verdicts aside).
	relaunched, fed int
}

// Rewind turns the machine into the execution of the first k actions of its
// own response log, relaunching only the bodies that moved since.
//
// A body's state is a function of the responses it has received (DESIGN.md
// decision 4), so a process with no logged action at or after index k
// stands where the execution of the prefix leaves it, and its body stays
// where it is. Every other, moved, process is relaunched with the program it
// runs, and each of its logged actions in the prefix is fed to it through
// the step gate: a step with its logged response, a crash as a crash
// verdict. The controller side is re-derived without running a body: the
// cells the log names are reset and the prefix is re-applied to them in
// order through cellState.access and the parking rules of Step and Crash,
// which re-derives values, cache copies, watchers, accessors, last
// accessors and parked flags. RMRs, steps and crashes are charged to moved
// processes only, since an unmoved process's counters already hold their
// values at k. The log is truncated to k, and the event counter is set to k
// plus the unmoved processes' Marks; relaunched bodies add their own as they
// run again, so the next event is numbered as on a replay of the prefix.
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
		rw = &rewinder{parking: newParking(m.cfg.Procs), moved: word.NewBitset(m.cfg.Procs)}
		m.rewind = rw
	}
	rw.moved.ClearAll()
	rw.parked.ClearAll()
	rw.relaunched, rw.fed = 0, 0
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
			continue
		}
		rw.relaunched++
		if err := m.relaunch(pr, pr.program); err != nil {
			return false, err
		}
	}
	if err := m.reapply(rw); err != nil {
		return false, err
	}
	for q, pr := range m.procs {
		pr.parked = rw.parked.Test(q)
	}
	return true, nil
}

// reapply re-applies the truncated log to the reset cells, feeding each
// moved process its logged actions (see Rewind).
func (m *Machine) reapply(rw *rewinder) error {
	unpark := func(q int) { rw.parked.Clear(q) }
	var spare cost // charged by the unmoved processes' steps
	for i := range m.log.acts {
		r := &m.log.acts[i]
		q := int(r.proc)
		pr := m.procs[q]
		moved := rw.moved.Test(q)
		if moved && (pr.pending == nil || !r.crash && !sameOp(pr.pending, r)) {
			return fmt.Errorf("sim: rewind: process %d does not announce the operation of logged action %d", q, i)
		}
		if r.crash {
			if id, ok := rw.crashed(q); ok {
				m.cells[id].watchers.Clear(q)
			}
			if moved {
				pr.pending = nil
				pr.crashes++
				if err := m.resume(pr, verdict{crash: true}); err != nil {
					return err
				}
			}
			continue
		}
		c := m.cells[r.cell]
		charged := &spare
		if moved {
			charged = &pr.cost
		}
		ret, _, _ := c.access(q, c.owner, m.log.op(r), m.cfg.Width, charged, unpark)
		c.accessed.Set(q)
		if ret != r.ret {
			return fmt.Errorf("sim: rewind: logged action %d of process %d returns %d, logged %d", i, q, ret, r.ret)
		}
		rw.stepped(q, &c.cellState, r.cell, r.parked)
		if !moved {
			continue
		}
		pr.steps++
		rw.fed++
		if !r.parked {
			pr.pending = nil
			if err := m.resume(pr, verdict{ret: ret}); err != nil {
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
// true: how many bodies it relaunched and how many of their logged steps it
// fed them; the crash verdicts it delivered are not counted.
func (m *Machine) RewindWork() (relaunched, fed int) {
	if m.rewind == nil {
		return 0, 0
	}
	return m.rewind.relaunched, m.rewind.fed
}
