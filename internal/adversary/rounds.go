package adversary

import (
	"rme/internal/memory"
	"rme/internal/sim"
	"rme/internal/word"
)

// lowRound keeps an independent set of the poised actives — pairwise
// distinct pending cells, none owned by or last accessed by another active
// (so the kept steps discover nobody) — steps each kept process once, and
// removes the rest (as the proof does, so invariant I10 keeps holding for
// every remaining active).
func (a *Adversary) lowRound(rep *Round, groups []group) error {
	m := a.session.Machine()

	var keep []int
	usedCells := make(map[int]bool)
	keepSet := make(map[int]bool)
	for _, g := range groups {
		// One process per cell; prefer the lowest id whose step is safe.
		for _, p := range g.members {
			if usedCells[g.cellID] {
				break
			}
			if !a.cellSafeFor(p, g.cell(m)) {
				continue
			}
			keep = append(keep, p)
			keepSet[p] = true
			usedCells[g.cellID] = true
		}
	}
	// In the DSM model, also drop kept processes pending on a cell owned by
	// another kept (still-active) process (invariant I8).
	filtered := keep[:0]
	for _, p := range keep {
		po, _ := m.Pending(p)
		owner := po.Cell.Owner()
		if owner != memory.Shared && owner != p && keepSet[owner] {
			delete(keepSet, p)
			continue
		}
		filtered = append(filtered, p)
	}
	keep = filtered

	if len(keep) == 0 {
		return nil
	}

	// Remove the actives that were not kept (verified erasure; fallback to
	// blocking them). A removal may replace the session (see erase), so the
	// machine handle must be re-fetched afterwards.
	for _, p := range a.actives() {
		if keepSet[p] {
			continue
		}
		if err := a.removeOrBlock(p, rep); err != nil {
			return err
		}
	}
	m = a.session.Machine()

	// Step each kept process once: one RMR each, nobody discovered.
	for _, p := range keep {
		if !m.Poised(p) {
			continue
		}
		if _, err := a.session.StepProc(p); err != nil {
			return err
		}
		rep.Stepped++
	}
	return nil
}

// cellSafeFor reports whether p's pending step on c cannot discover another
// active process: no other active may have accessed c (its trace would be
// visible), and in the DSM model no other active may own c.
func (a *Adversary) cellSafeFor(p int, c memory.Cell) bool {
	m := a.session.Machine()
	for _, q := range m.Accessors(c) {
		if q != p && a.status[q] == Active {
			return false
		}
	}
	if last := m.LastAccessor(c); last != -1 && last != p && a.status[last] == Active {
		return false
	}
	return true
}

// highRound handles the high-contention groups with the read case or the
// hiding manoeuvre, and removes all other actives (including low-contention
// stragglers, as the proof does in high rounds).
func (a *Adversary) highRound(rep *Round, high, low []group) error {
	// Processes in low groups are removed this round (the proof keeps only
	// the grouped processes).
	inHigh := make(map[int]bool)
	for _, g := range high {
		for _, p := range g.members {
			inHigh[p] = true
		}
	}
	for _, p := range a.actives() {
		if !inHigh[p] && a.status[p] == Active {
			if err := a.removeOrBlock(p, rep); err != nil {
				return err
			}
		}
	}

	// Remove actives that last accessed a group cell (they would be
	// discovered by the group's steps) — the proof's pre-filter — and, in
	// the DSM model, the active owner of a group cell, whose segment the
	// group's steps would touch (invariant I8; the owner's own steps there
	// are local, so it is never a member). A removal may replace the
	// session; re-fetch the machine each iteration.
	for _, g := range high {
		m := a.session.Machine()
		c := g.cell(m)
		if last := m.LastAccessor(c); last != -1 && a.status[last] == Active && !inHigh[last] {
			if err := a.removeOrBlock(last, rep); err != nil {
				return err
			}
		}
		if owner := c.Owner(); a.cfg.Session.Model == sim.DSM && owner != memory.Shared && a.status[owner] == Active {
			if err := a.removeOrBlock(owner, rep); err != nil {
				return err
			}
		}
	}

	for _, g := range high {
		if err := a.handleHighGroup(rep, g); err != nil {
			return err
		}
	}
	return nil
}

// handleHighGroup runs one high-contention group: the read case keeps every
// reader; otherwise the hiding manoeuvre keeps one hidden process and
// finishes the rest through crash-recover-complete.
func (a *Adversary) handleHighGroup(rep *Round, g group) error {
	m := a.session.Machine()
	// NOTE: any removeOrBlock / finishProcess call below may replace the
	// session; m is re-fetched after each.

	// Filter to members still active and poised (earlier groups' completions
	// may have removed some).
	var members []int
	for _, p := range g.members {
		if a.status[p] == Active && m.Poised(p) {
			members = append(members, p)
		}
	}
	if len(members) == 0 {
		return nil
	}

	// Read case: reads change nothing, so every reader can step and remain
	// active and mutually invisible. Non-readers are removed (the proof
	// discards the schedules containing them).
	var readers, writers []int
	for _, p := range members {
		po, _ := m.Pending(p)
		if po.Op.IsRead() {
			readers = append(readers, p)
		} else {
			writers = append(writers, p)
		}
	}
	if len(readers) > 0 {
		for _, p := range writers {
			if err := a.removeOrBlock(p, rep); err != nil {
				return err
			}
		}
		m = a.session.Machine()
		// A read may still discover the last writer; the pre-filter removed
		// active last-accessors already.
		for _, p := range readers {
			if !m.Poised(p) {
				continue
			}
			if _, err := a.session.StepProc(p); err != nil {
				return err
			}
			rep.Stepped++
		}
		return nil
	}

	// Hiding manoeuvre. Search for z such that the register value after the
	// whole group steps equals the value with z left out — then z's RMR step
	// is absorbed by the others (Process-Hiding Lemma, m = 1 instance).
	z, ok := a.findHidden(g.cell(m), members)
	a.report.HidingAttempts++
	if ok {
		a.report.HidingWins++
	}

	// Everyone steps (each earns this round's RMR), z included.
	for _, p := range members {
		if !m.Poised(p) {
			continue
		}
		if _, err := a.session.StepProc(p); err != nil {
			return err
		}
		rep.Stepped++
	}

	// All alphas crash first (losing any memory of z), then run to
	// completion; their completions may require removing actives they would
	// discover, and may cascade into each other (handled by finish). For a
	// non-recoverable algorithm there is no crash step — the alphas complete
	// remembering what they saw, and the erasure verification below decides
	// whether z survives (this is the §1.1 story: without crashes, a FAS
	// chain leaves at most one process hideable).
	if a.cfg.Session.Algorithm.Recoverable() {
		for _, p := range members {
			if (ok && p == z) || m.ProcDone(p) || m.Crashes(p) > 0 {
				continue
			}
			if _, err := a.session.CrashProc(p); err != nil {
				return err
			}
		}
	}
	var alphas []int
	for _, p := range members {
		if ok && p == z {
			continue
		}
		alphas = append(alphas, p)
	}
	if err := a.finishSet(alphas); err != nil {
		return err
	}
	rep.Finished += len(alphas)

	if ok && a.status[z] == Active {
		// The hiding claim is not taken on faith: z stays active only if
		// erasing it from the whole execution is verifiably invisible to
		// everyone else (the proof's two-execution indistinguishability).
		// (A completion cascade may already have finished z, in which case
		// there is nothing left to verify.)
		if a.verifyErasable(z) {
			rep.HiddenKept++
		} else {
			a.report.RemovalRollbacks++
			if err := a.finishProcess(z); err != nil {
				return err
			}
			rep.Finished++
		}
	}
	return nil
}

// findHidden searches the group for a process whose operation is absorbed:
// the cell value after all members' operations (ascending order) equals the
// value with z's operation removed. This is the value-collision core of the
// Process-Hiding Lemma; with fetch-and-add on wide words no collision
// exists, and the search fails — the Katzan–Morrison immunity.
func (a *Adversary) findHidden(c memory.Cell, members []int) (int, bool) {
	m := a.session.Machine()
	w := m.Width()
	y0 := m.Value(c)

	ops := make(map[int]memory.Op, len(members))
	for _, p := range members {
		po, ok := m.Pending(p)
		if !ok {
			return 0, false
		}
		ops[p] = po.Op
	}
	apply := func(skip int) word.Word {
		cur := y0
		for _, p := range members {
			if p == skip {
				continue
			}
			cur, _ = memory.Apply(ops[p], cur, w)
		}
		return cur
	}
	full := apply(-1)
	for _, z := range members {
		if apply(z) == full {
			return z, true
		}
	}
	return 0, false
}
