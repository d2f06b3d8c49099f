package adversary

import (
	"rme/internal/memory"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/word"
)

// procObservables captures everything about a process that the proof's
// invariants require to be preserved when other processes are erased from
// the schedule: its progress (I3), its membership in the finished set (I4),
// its crash count (I6), its phase (I7), and its pending operation. For
// processes that are still active, the observables additionally include the
// RMR counters (I10); their sets of valid cache copies (I9, CC model) are
// compared for all active processes at once by sim.Machine.CachesAgree. A
// finished process's RMR count may legitimately differ between table
// columns (an erased process's non-read operation invalidates caches
// without changing values), and the proof's invariants do not constrain it.
//
// Every field is a plain value, so two observations compare with ==.
type procObservables struct {
	done    bool
	parked  bool
	steps   int
	rmrCC   int
	rmrDSM  int
	crashes int
	tag     int
	pending pendingKey
}

// pendingKey identifies a pending operation by value: its target cell's
// allocation id (cell labels are unique in every algorithm the adversary
// runs, so the id names the same cell the label does) and the operation's
// code, arguments and custom-op name. The zero key means no pending
// operation (no real operation has code 0); a multi-cell wait has cell -1
// and nothing else. Whether a read is a spin probe is not part of the key.
type pendingKey struct {
	cell      int
	code      memory.OpCode
	arg, arg2 word.Word
	name      string
}

func observe(m *sim.Machine, p int, active bool) procObservables {
	o := procObservables{
		done:    m.ProcDone(p),
		parked:  m.Parked(p),
		steps:   m.ProcSteps(p),
		crashes: m.Crashes(p),
		tag:     m.Tag(p),
	}
	if po, ok := m.Pending(p); ok {
		if po.Wait {
			o.pending = pendingKey{cell: -1}
		} else {
			o.pending = pendingKey{
				cell: po.Cell.CellID(),
				code: po.Op.Code,
				arg:  po.Op.Arg,
				arg2: po.Op.Arg2,
				name: po.Op.Name,
			}
		}
	}
	if active {
		o.rmrCC = m.RMRsIn(sim.CC, p)
		o.rmrDSM = m.RMRsIn(sim.DSM, p)
	}
	return o
}

// removeOrBlock erases process p from the execution if the erasure is
// verifiably invisible to everyone else (a table-column switch in the
// proof's terms); otherwise p is merely blocked. Only non-finished
// processes can be erased.
func (a *Adversary) removeOrBlock(p int, rep *Round) error {
	if a.status[p] == Finished || a.status[p] == Removed {
		return nil
	}
	erased, err := a.erase(p, true)
	if err != nil {
		return err
	}
	if erased {
		a.status[p] = Removed
		rep.Removed++
		return nil
	}
	a.status[p] = Blocked
	rep.Blocked++
	a.report.RemovalRollbacks++
	return nil
}

// verifyErasable checks whether p could be erased (identical replay for the
// others) without erasing it — used to validate that a hidden process is
// genuinely invisible.
func (a *Adversary) verifyErasable(p int) bool {
	erasable, _ := a.erase(p, false) // only adopting can fail
	return erasable
}

// erase decides whether p is erasable and, with adopt set, makes the
// erasure the live execution. It decides on the controller-only replay of
// the live response log where that can decide (fastErasable), and adopts
// such an erasure by patching the live session in place
// (mutex.Session.AdoptErasure), which relaunches p's body alone. Where the
// controller-only replay cannot decide, or the session declines the patch,
// the bodies replay the restricted schedule on a recycled session
// (buildWithout), which gives the same verdict; an erasure adopted that way
// replaces the live session, which goes back to the worker as the spare for
// the next replay. Only adopting can fail, when p's relaunch does.
func (a *Adversary) erase(p int, adopt bool) (bool, error) {
	erasable, decided := a.fastErasable(p)
	switch {
	case decided && !adopt:
		a.auditsFast++
		return erasable, nil
	case decided && !erasable:
		return false, nil
	case decided:
		patched, err := a.session.AdoptErasure(&a.erasure, p)
		if err != nil {
			return false, err
		}
		if patched {
			a.adoptionsFast++
			a.report.Replays++
			if a.patched != nil {
				a.patched(p)
			}
			return true, nil
		}
	case !adopt:
		a.auditsReplayed++
		return a.replayErasable(p), nil
	}
	replayed, ok := a.buildWithout(p)
	if ok {
		a.worker.Release(a.session)
		a.session = replayed
		a.adoptionsReplayed++
		a.report.Replays++
	}
	return ok, nil
}

// fastErasable decides p's erasability without running a body, when it
// can. sim.Erasure replays the live response log without p; if every
// response is unchanged, each remaining process's done flag, steps, crashes,
// tag and pending operation are unchanged too (DESIGN.md decision 4), and
// its parked flag, RMR counters and cache copies are the Erasure's. The
// restricted execution's safety monitor then sees a subset of what the live
// one saw, so a live session without violations vouches for it. A multi-cell
// wait since the session's Reset, a changed response or a live violation
// leaves the audit undecided.
func (a *Adversary) fastErasable(p int) (erasable, decided bool) {
	live := a.session.Machine()
	if len(a.session.Violations()) > 0 || !a.erasure.Replay(live, p) {
		return false, false
	}
	a.cacheMask.ClearAll()
	for q, st := range a.status {
		if q == p || st == Removed {
			continue
		}
		if live.Parked(q) != a.erasure.Parked(q) {
			return false, true
		}
		if st != Active {
			continue
		}
		a.cacheMask.Set(q)
		if live.RMRsIn(sim.CC, q) != a.erasure.RMRsIn(sim.CC, q) || live.RMRsIn(sim.DSM, q) != a.erasure.RMRsIn(sim.DSM, q) {
			return false, true
		}
	}
	return a.erasure.CachesAgree(live, a.cacheMask), true
}

// replayErasable decides p's erasability by replaying the bodies on a
// recycled session (buildWithout) and releasing it again.
func (a *Adversary) replayErasable(p int) bool {
	replayed, ok := a.buildWithout(p)
	if ok {
		a.worker.Release(replayed)
	}
	return ok
}

// buildWithout checks a session out of the worker (usually the recycled
// spare from the previous audit), replays the current schedule restricted to
// all processes except p, and verifies the observables of every process
// other than p. On success the new session is returned; on failure it goes
// back to the worker. The restricted schedule and the mask of active
// processes whose caches must agree live in buffers on the Adversary, so an
// audit allocates nothing of its own.
func (a *Adversary) buildWithout(p int) (*mutex.Session, bool) {
	a.replay = a.session.Machine().AppendSchedule(a.replay, func(q int) bool { return q != p })

	fresh, err := a.worker.Session(a.cfg.Session)
	if err != nil {
		return nil, false
	}
	if !a.replayMatches(fresh, p) {
		a.worker.Release(fresh)
		return nil, false
	}
	return fresh, true
}

// replayMatches drives fresh through a.replay and reports whether the result
// is safe and indistinguishable from the live execution to every process
// other than p that has not been removed.
func (a *Adversary) replayMatches(fresh *mutex.Session, p int) bool {
	if err := fresh.Replay(a.replay); err != nil {
		return false
	}
	if len(fresh.Violations()) > 0 {
		return false
	}
	old, nm := a.session.Machine(), fresh.Machine()
	a.cacheMask.ClearAll()
	for q, st := range a.status {
		if q == p || st == Removed {
			continue
		}
		active := st == Active
		if active {
			a.cacheMask.Set(q)
		}
		if observe(old, q, active) != observe(nm, q, active) {
			return false
		}
	}
	return nm.CachesAgree(old, a.cacheMask)
}
