package sim

import (
	"rme/internal/memory"
	"rme/internal/word"
)

// cost is a process's RMR counters under both models.
type cost struct{ rmrCC, rmrDSM int }

// in returns the counter of the given model.
func (c cost) in(model Model) int {
	if model == DSM {
		return c.rmrDSM
	}
	return c.rmrCC
}

// response is one logged action: a crash, or a step with its cell, its
// operation and what the operation returned, and whether the step was a spin
// probe that parked. It holds no pointers, so the garbage collector never
// scans the log: a custom operation's transition is kept in the log's fns,
// and fn indexes it.
type response struct {
	arg, arg2 word.Word
	ret       word.Word
	proc      int32
	cell      int32
	fn        int32
	code      uint8
	crash     bool
	parked    bool
}

// action returns the schedule entry the response records.
func (r *response) action() Action { return Action{Proc: int(r.proc), Crash: r.crash} }

// responseLog is the machine's one per-action record: the executed schedule,
// each step with its response. It is kept under NoTrace; Steps, Schedule,
// AppendSchedule and the MaxSteps check read it, Reset truncates it, and
// Erasure replays it.
type responseLog struct {
	acts []response
	// fns holds the transitions of the custom operations in acts, in order.
	fns []memory.Transition
	// waited records that a multi-cell wait was registered since Reset. The
	// registration and the rechecks of such a wait hand its body values that
	// are not step responses, so Erasure declines such a log.
	waited bool
}

func (l *responseLog) reset() {
	l.acts = l.acts[:0]
	clear(l.fns)
	l.fns = l.fns[:0]
	l.waited = false
}

// step logs p's step of req, which returned ret and parked p iff parked.
func (l *responseLog) step(p int, req *stepReq, ret word.Word, parked bool) {
	r := response{
		arg: req.op.Arg, arg2: req.op.Arg2, ret: ret,
		proc: int32(p), cell: int32(req.cell.id), code: uint8(req.op.Code), parked: parked,
	}
	if req.op.F != nil {
		r.fn = int32(len(l.fns))
		l.fns = append(l.fns, req.op.F)
	}
	l.acts = append(l.acts, r)
}

// crash logs a crash step of p.
func (l *responseLog) crash(p int) {
	l.acts = append(l.acts, response{proc: int32(p), crash: true})
}

// op returns the operation of the logged step r.
func (l *responseLog) op(r *response) memory.Op {
	op := memory.Op{Code: memory.OpCode(r.code), Arg: r.arg, Arg2: r.arg2}
	if op.Code == memory.OpCustom {
		op.F = l.fns[r.fn]
	}
	return op
}

// Erasure replays a machine's response log with one process's actions left
// out, on scratch copies of the cells and without running any body.
//
// A body's next operation depends only on the responses it has received
// since its last crash (DESIGN.md decision 4). So when every response of the
// replay equals the logged one, each remaining body would announce exactly
// the logged operations and finish, crash and tag exactly as it did, and
// only what the replay computes itself can differ: cell values, cache
// copies, watchers, parked flags and RMR counters. The replay computes them
// with the machine's own cost model (cellState.access) and the parking rules
// of Step and Crash, so when it reports equal responses it agrees with a
// mutex.Session.Replay of the restricted schedule on all of them.
//
// An Erasure holds only scratch buffers, reused across replays.
type Erasure struct {
	cells    []cellState
	bits     []word.Word // backing of every scratch cell's two bitsets
	costs    []cost
	parked   word.Bitset
	parkedOn []int32 // the cell each parked process's last probe read
}

// Replay replays m's response log without p's actions and reports whether
// every remaining response equals the logged one. It declines, returning
// false, when a multi-cell wait was registered since m's last Reset. After a
// true result RMRsIn, Parked and CachesAgree describe the state the
// restricted execution ends in; after false they mean nothing.
func (e *Erasure) Replay(m *Machine, p int) bool {
	if m.log.waited {
		return false
	}
	e.reset(m)
	unpark := func(q int) { e.parked.Clear(q) }
	for i := range m.log.acts {
		r := &m.log.acts[i]
		q := int(r.proc)
		if q == p {
			continue
		}
		if r.crash {
			// As in Crash: a parked process stops watching its probe's cell.
			if e.parked.Test(q) {
				e.cells[e.parkedOn[q]].watchers.Clear(q)
				e.parked.Clear(q)
			}
			continue
		}
		c := &e.cells[r.cell]
		if ret, _, _ := c.access(q, m.cells[r.cell].owner, m.log.op(r), m.cfg.Width, &e.costs[q], unpark); ret != r.ret {
			return false
		}
		// As in Step. The response is the logged one, so a spin probe's
		// predicate decides as it did.
		if r.parked {
			e.parked.Set(q)
			c.watchers.Set(q)
			e.parkedOn[q] = r.cell
		} else {
			e.parked.Clear(q)
			c.watchers.Clear(q)
		}
	}
	return true
}

// reset sizes the scratch state for m and sets it as Machine.Reset leaves
// m's: initial values, no cache copies or watchers, no RMRs, nobody parked.
func (e *Erasure) reset(m *Machine) {
	n := m.cfg.Procs
	words := (n + word.MaxBits - 1) / word.MaxBits
	if len(e.cells) != len(m.cells) || len(e.costs) != n {
		e.cells = make([]cellState, len(m.cells))
		e.bits = make([]word.Word, 2*words*len(m.cells))
		for i := range e.cells {
			b := e.bits[2*words*i : 2*words*(i+1)]
			e.cells[i].cached = word.Bitset(b[:words:words])
			e.cells[i].watchers = word.Bitset(b[words:])
		}
		e.costs = make([]cost, n)
		e.parked = word.NewBitset(n)
		e.parkedOn = make([]int32, n)
	} else {
		clear(e.bits)
		clear(e.costs)
		e.parked.ClearAll()
	}
	for i, c := range m.cells {
		e.cells[i].val = c.init
	}
}

// RMRsIn returns q's RMR count under model at the end of the replay.
func (e *Erasure) RMRsIn(model Model, q int) int { return e.costs[q].in(model) }

// Parked reports whether q is parked at the end of the replay.
func (e *Erasure) Parked(q int) bool { return e.parked.Test(q) }

// CachesAgree reports whether every process in procs holds valid cache
// copies of exactly the same cells at the end of the replay as on m, the way
// Machine.CachesAgree compares two machines. Every cell is compared,
// including those the replay never touched.
func (e *Erasure) CachesAgree(m *Machine, procs word.Bitset) bool {
	if len(e.cells) != len(m.cells) {
		return false
	}
	for i, c := range m.cells {
		if !bitsAgree(e.cells[i].cached, c.cached, procs) {
			return false
		}
	}
	return true
}
