package adversary

import (
	"errors"
	"fmt"
	"sort"

	"rme/internal/mutex"
)

// errCompletionStuck reports a completion the adversary could not drive to
// the remainder section within its budgets.
var errCompletionStuck = errors.New("adversary: completion stuck")

// crashAndFinish delivers p's (single) crash step and drives its recovery
// to completion.
func (a *Adversary) crashAndFinish(p int) error {
	m := a.session.Machine()
	if m.ProcDone(p) {
		a.status[p] = Finished
		return nil
	}
	if a.cfg.Session.Algorithm.Recoverable() && m.Crashes(p) == 0 {
		// Assumption (A3): at most one crash per process.
		if _, err := a.session.CrashProc(p); err != nil {
			return err
		}
	}
	return a.finishSet([]int{p})
}

// finishProcess runs p to the end of its super-passage.
func (a *Adversary) finishProcess(p int) error {
	return a.finishSet([]int{p})
}

// finishSet drives a batch of processes to the end of their super-passages
// by round-robin scheduling: completions of queued processes are often
// mutually dependent (the head must hand off before the next can exit), so
// they must advance together. If every member is parked, the set recruits a
// frozen process that can wake one of them (typically the lock holder).
//
// The set does not decide who its members might observe — discovery is
// settled by the round-end erasability audit: an active a completing
// process branched on stops being erasable and is then blocked. That is the
// proof's criterion in contrapositive: a process is discovered exactly when
// the executions with and without it are distinguishable.
func (a *Adversary) finishSet(ps []int) error {
	m := a.session.Machine()
	set := make(map[int]bool, len(ps))
	var members []int
	add := func(p int) {
		if !set[p] {
			set[p] = true
			members = append(members, p)
			sort.Ints(members)
		}
	}
	for _, p := range ps {
		add(p)
	}

	budget := (64*int(a.cfg.Session.Width) + 256) * (len(ps) + 2)
	for budget > 0 {
		allDone := true
		progress := false
		for _, p := range members {
			if m.ProcDone(p) {
				a.status[p] = Finished
				continue
			}
			allDone = false
			if !m.Poised(p) {
				continue
			}
			if _, err := a.session.StepProc(p); err != nil {
				return err
			}
			budget--
			progress = true
		}
		if allDone {
			return nil
		}
		if progress {
			continue
		}
		// Everyone alive is parked: recruit whoever can wake the first
		// parked member (usually the frozen holder of the lock).
		recruit := -1
		for _, p := range members {
			if m.ProcDone(p) {
				continue
			}
			if q := a.findBlocker(p, set); q != -1 {
				recruit = q
				break
			}
		}
		if recruit == -1 {
			return fmt.Errorf("%w: no process can wake the parked set %v", errCompletionStuck, members)
		}
		add(recruit)
	}
	return fmt.Errorf("%w: budget exhausted for set %v", errCompletionStuck, members)
}

// findBlocker locates a non-finished, non-removed process outside the set
// that has touched the cell p is parked on (the process whose progress can
// wake p), or any other frozen process holding the critical section; -1 if
// none exists.
func (a *Adversary) findBlocker(p int, inSet map[int]bool) int {
	m := a.session.Machine()
	usable := func(q int) bool { return q != p && !inSet[q] && a.liveFrozen(q) }
	po, ok := m.Pending(p)
	if ok && po.Cell != nil {
		if last := m.LastAccessor(po.Cell); last != -1 && usable(last) {
			return last
		}
		for _, q := range m.Accessors(po.Cell) {
			if usable(q) {
				return q
			}
		}
	}
	// Fall back to a frozen process inside its entry/CS (likely the holder).
	for q := 0; q < a.cfg.Session.Procs; q++ {
		if usable(q) && m.Tag(q) == mutex.TagCS {
			return q
		}
	}
	for q := 0; q < a.cfg.Session.Procs; q++ {
		if usable(q) && !m.ProcDone(q) {
			return q
		}
	}
	return -1
}

// liveFrozen reports whether q is a process the adversary froze (active or
// blocked) that still exists in the execution and has not finished.
func (a *Adversary) liveFrozen(q int) bool {
	if a.status[q] != Active && a.status[q] != Blocked {
		return false
	}
	return !a.session.Machine().ProcDone(q)
}
