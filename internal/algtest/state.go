package algtest

import (
	"fmt"
	"slices"

	"rme/internal/memory"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/word"
)

// procState is everything a controller can observe about one process but
// its cache copies, as a comparable value.
type procState struct {
	done, parked   bool
	steps, crashes int
	tag            int
	rmrCC, rmrDSM  int
	pending        bool
	wait, spin     bool
	cell           int
	code           memory.OpCode
	arg, arg2      word.Word
	name           string
}

func observeProc(m *sim.Machine, p int) procState {
	st := procState{
		done: m.ProcDone(p), parked: m.Parked(p),
		steps: m.ProcSteps(p), crashes: m.Crashes(p), tag: m.Tag(p),
		rmrCC: m.RMRsIn(sim.CC, p), rmrDSM: m.RMRsIn(sim.DSM, p),
		cell: -1,
	}
	if po, ok := m.Pending(p); ok {
		st.pending, st.wait, st.spin = true, po.Wait, po.Spin
		if !po.Wait {
			st.cell, st.code, st.arg, st.arg2, st.name = po.Cell.CellID(), po.Op.Code, po.Op.Arg, po.Op.Arg2, po.Op.Name
		}
	}
	return st
}

// SessionDiff compares two sessions of one construction in everything a
// controller can observe and describes the first difference, or returns ""
// if there is none:
//   - per process: done and parked flags, steps, crashes, tag, pending
//     operation, both RMR counters and the cells it holds cache copies of;
//   - per cell: value, accessors and last accessor;
//   - per session: Steps, Schedule, Stats, CSOrder and Violations.
func SessionDiff(got, want *mutex.Session) string {
	gm, wm := got.Machine(), want.Machine()
	n := gm.Procs()
	if n != wm.Procs() || len(gm.Cells()) != len(wm.Cells()) {
		return "the sessions do not share a construction"
	}
	only := word.NewBitset(n)
	for p := 0; p < n; p++ {
		if g, w := observeProc(gm, p), observeProc(wm, p); g != w {
			return fmt.Sprintf("p%d: %+v, want %+v", p, g, w)
		}
		only.ClearAll()
		only.Set(p)
		if !gm.CachesAgree(wm, only) {
			return fmt.Sprintf("p%d caches cells %v, want %v", p, gm.CachedCells(p), wm.CachedCells(p))
		}
	}
	for id, c := range gm.Cells() {
		wc := wm.CellByID(id)
		if gm.Value(c) != wm.Value(wc) || gm.LastAccessor(c) != wm.LastAccessor(wc) || !slices.Equal(gm.Accessors(c), wm.Accessors(wc)) {
			return fmt.Sprintf("cell %s: value %d, last accessor %d, accessors %v; want %d, %d, %v", c.Label(),
				gm.Value(c), gm.LastAccessor(c), gm.Accessors(c), wm.Value(wc), wm.LastAccessor(wc), wm.Accessors(wc))
		}
	}
	switch {
	case gm.Steps() != wm.Steps():
		return fmt.Sprintf("%d steps, want %d", gm.Steps(), wm.Steps())
	case !slices.Equal(gm.Schedule(), wm.Schedule()):
		return fmt.Sprintf("schedule %v, want %v", gm.Schedule(), wm.Schedule())
	case !slices.Equal(got.Stats(), want.Stats()):
		return fmt.Sprintf("passage records %+v, want %+v", got.Stats(), want.Stats())
	case !slices.Equal(got.CSOrder(), want.CSOrder()):
		return fmt.Sprintf("CS order %v, want %v", got.CSOrder(), want.CSOrder())
	case !slices.Equal(got.Violations(), want.Violations()):
		return fmt.Sprintf("violations %q, want %q", got.Violations(), want.Violations())
	}
	return ""
}
