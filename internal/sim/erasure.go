package sim

import (
	"errors"
	"fmt"

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

// parking is what the parking rules of Step and Crash need to replay a
// response log without running a body: the processes the replay leaves
// parked, and the cell each parked process's last probe read. Erasure.Replay
// and Machine.Rewind keep it, so both apply the rules through this one copy.
type parking struct {
	parked   word.Bitset
	parkedOn []int32
}

func newParking(n int) parking {
	return parking{parked: word.NewBitset(n), parkedOn: make([]int32, n)}
}

// stepped applies Step's rule to q's logged step on c, the state of cell id:
// a spin probe that parked watches c, and any other step stops watching it.
func (k *parking) stepped(q int, c *cellState, id int32, parked bool) {
	if parked {
		k.parked.Set(q)
		c.watchers.Set(q)
		k.parkedOn[q] = id
	} else {
		k.parked.Clear(q)
		c.watchers.Clear(q)
	}
}

// crashed applies Crash's rule to a logged crash of q: a parked q stops
// watching its probe's cell, whose id crashed returns with true, and the
// caller clears the watcher bit.
func (k *parking) crashed(q int) (int32, bool) {
	if !k.parked.Test(q) {
		return 0, false
	}
	k.parked.Clear(q)
	return k.parkedOn[q], true
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
// AppendSchedule and the MaxSteps check read it, Reset truncates it,
// Erasure replays it, AdoptErasure deletes the erased process's actions
// from it, and Rewind truncates it to a prefix and re-applies that.
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

// drop deletes p's actions in place, with the transitions of p's custom
// operations, renumbers the remaining custom operations' transitions, and
// returns how many actions it deleted.
func (l *responseLog) drop(p int) int {
	kept, fns := l.acts[:0], 0
	for _, r := range l.acts {
		if int(r.proc) == p {
			continue
		}
		if !r.crash && memory.OpCode(r.code) == memory.OpCustom {
			l.fns[fns], r.fn = l.fns[r.fn], int32(fns)
			fns++
		}
		kept = append(kept, r)
	}
	clear(l.fns[fns:])
	l.fns = l.fns[:fns]
	dropped := len(l.acts) - len(kept)
	l.acts = kept
	return dropped
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
// copies, watchers, last accessors, parked flags and RMR counters. The replay
// computes them with the machine's own cost model (cellState.access) and the
// parking rules of Step and Crash, so when it reports equal responses it
// agrees with a mutex.Session.Replay of the restricted schedule on all of
// them, and Machine.AdoptErasure can make it the live execution.
//
// A replay touches only the cells its log names: a cell the log never names
// holds its initial value and no cache copy or watcher, on the machine as on
// the scratch copy. An Erasure holds only scratch buffers, reused across
// replays; the next replay on the same machine resets just the cells the
// last one named.
type Erasure struct {
	cells []cellState
	bits  []word.Word // backing of every scratch cell's two bitsets
	costs []cost
	parking
	// named lists, once each, the cells the last replay's log named, the
	// left-out process's entries included; seen marks them.
	named []int32
	seen  word.Bitset
	// m is the machine the scratch state was built for. The last replay
	// left out p from a log of acts actions and returned ok.
	m    *Machine
	p    int
	acts int
	ok   bool
}

// Replay replays m's response log without p's actions and reports whether
// every remaining response equals the logged one. It declines, returning
// false, when a multi-cell wait was registered since m's last Reset. After a
// true result RMRsIn, Parked and CachesAgree describe the state the
// restricted execution ends in; after false they mean nothing.
func (e *Erasure) Replay(m *Machine, p int) bool {
	e.ok = false
	if m.log.waited {
		return false
	}
	e.reset(m)
	e.p, e.acts = p, len(m.log.acts)
	unpark := func(q int) { e.parked.Clear(q) }
	for i := range m.log.acts {
		r := &m.log.acts[i]
		q := int(r.proc)
		if !r.crash && !e.seen.Test(int(r.cell)) {
			e.seen.Set(int(r.cell))
			e.named = append(e.named, r.cell)
		}
		if q == p {
			continue
		}
		if r.crash {
			if id, ok := e.crashed(q); ok {
				e.cells[id].watchers.Clear(q)
			}
			continue
		}
		c := &e.cells[r.cell]
		if ret, _, _ := c.access(q, m.cells[r.cell].owner, m.log.op(r), m.cfg.Width, &e.costs[q], unpark); ret != r.ret {
			return false
		}
		// The response is the logged one, so a spin probe's predicate
		// decides as it did.
		e.stepped(q, c, r.cell, r.parked)
	}
	e.ok = true
	return true
}

// reset sets the scratch state as Machine.Reset leaves m's: initial values,
// no cache copies, watchers or last accessors, no RMRs, nobody parked. On
// the machine of the last replay only the cells that replay named can differ
// from that; on another machine every cell is reset, and the buffers are
// allocated again only when the machine's shape differs.
func (e *Erasure) reset(m *Machine) {
	n := m.cfg.Procs
	if len(e.cells) != len(m.cells) || len(e.costs) != n {
		words := (n + word.MaxBits - 1) / word.MaxBits
		e.cells = make([]cellState, len(m.cells))
		e.bits = make([]word.Word, 2*words*len(m.cells))
		for i := range e.cells {
			b := e.bits[2*words*i : 2*words*(i+1)]
			e.cells[i].cached, e.cells[i].watchers = b[:words:words], b[words:]
		}
		e.costs = make([]cost, n)
		e.parking = newParking(n)
		e.seen = word.NewBitset(len(m.cells))
		e.m = nil
	}
	if e.m == m {
		for _, id := range e.named {
			c := &e.cells[id]
			c.val, c.lastAccessor = m.cells[id].init, -1
			c.cached.ClearAll()
			c.watchers.ClearAll()
		}
	} else {
		clear(e.bits)
		for i, c := range m.cells {
			e.cells[i].val, e.cells[i].lastAccessor = c.init, -1
		}
		e.m = m
	}
	e.named = e.named[:0]
	e.seen.ClearAll()
	clear(e.costs)
	e.parked.ClearAll()
}

// RMRsIn returns q's RMR count under model at the end of the replay.
func (e *Erasure) RMRsIn(model Model, q int) int { return e.costs[q].in(model) }

// Parked reports whether q is parked at the end of the replay.
func (e *Erasure) Parked(q int) bool { return e.parked.Test(q) }

// CachesAgree reports whether every process in procs holds valid cache
// copies of exactly the same cells at the end of the replay as on m, the way
// Machine.CachesAgree compares two machines. Only the cells the replayed log
// names are compared: no step leaves a cache copy of any other cell, on the
// replayed machine or on one that ran a restriction of its log.
func (e *Erasure) CachesAgree(m *Machine, procs word.Bitset) bool {
	if len(e.cells) != len(m.cells) {
		return false
	}
	for _, id := range e.named {
		if !bitsAgree(e.cells[id].cached, m.cells[id].cached, procs) {
			return false
		}
	}
	return true
}

// AdoptErasure makes the execution e's last Replay computed the live one:
// the machine is patched in place into the execution of its log without p,
// and p alone is relaunched with prog, poised at its first operation as
// after Start. No other body runs: with every response equal, each stands
// where the restricted execution would leave it.
//
// e's last Replay must have run on m, as it is now, without p, and returned
// true. m must keep no trace, because the events recorded after p's first
// action would need new Before and After values and new numbers. The patch
// copies the values, cache copies, watchers and last accessors of the cells
// the log names from e, and removes p from their accessor sets; copies every
// other process's RMR counters and parked flag from e; deletes p's actions
// from the response log; and takes p's actions and Marks off the event
// counter, so the next event is numbered as on a replay of the restricted
// schedule.
func (m *Machine) AdoptErasure(e *Erasure, p int, prog Program) error {
	switch {
	case !m.started:
		return ErrNotStarted
	case m.closed:
		return ErrClosed
	case !m.cfg.NoTrace:
		return errors.New("sim: cannot adopt an erasure on a machine that keeps a trace")
	case !e.ok || e.m != m || e.p != p || e.acts != len(m.log.acts):
		return fmt.Errorf("sim: the erasure's last replay did not leave out process %d from this machine's log", p)
	}
	for _, id := range e.named {
		c, s := m.cells[id], &e.cells[id]
		c.val, c.lastAccessor = s.val, s.lastAccessor
		copy(c.cached, s.cached)
		copy(c.watchers, s.watchers)
		c.accessed.Clear(p)
	}
	for q, pr := range m.procs {
		if q != p {
			pr.cost, pr.parked = e.costs[q], e.parked.Test(q)
		}
	}
	pr := m.procs[p]
	m.seq -= m.log.drop(p) + pr.marks
	e.ok = false
	return m.relaunch(pr, prog)
}
