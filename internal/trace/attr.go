package trace

import (
	"fmt"
	"io"
	"sort"

	"rme/internal/sim"
)

// CellStat is one cell's row of the attribution table.
type CellStat struct {
	Cell   int
	Label  string
	Steps  int // shared-memory operations on the cell
	Wakes  int // multi-cell spin rechecks charged against the cell
	RMRCC  int
	RMRDSM int
}

// RMRs returns the cell's RMR count under the given model.
func (s CellStat) RMRs(m sim.Model) int {
	if m == sim.DSM {
		return s.RMRDSM
	}
	return s.RMRCC
}

// ProcStat is one process's row of the attribution table.
type ProcStat struct {
	Proc    int
	Steps   int
	Crashes int
	RMRCC   int
	RMRDSM  int
}

// RMRs returns the process's RMR count under the given model.
func (s ProcStat) RMRs(m sim.Model) int {
	if m == sim.DSM {
		return s.RMRDSM
	}
	return s.RMRCC
}

// Attribution aggregates an event stream into per-cell and per-process RMR
// tables plus stream totals. Rows are sorted by id, so two attributions of
// the same stream render byte-identically.
type Attribution struct {
	Cells  []CellStat
	Procs  []ProcStat
	Events int
	Steps  int
	RMRCC  int
	RMRDSM int
}

// RMRs returns the stream's RMR total under the given cost model.
func (a Attribution) RMRs(m sim.Model) int {
	if m == sim.DSM {
		return a.RMRDSM
	}
	return a.RMRCC
}

// Attribute builds the attribution tables for one event stream. Multiple
// streams can be aggregated by concatenating them first (see Merge).
func Attribute(events []sim.Event) Attribution {
	a := Attribution{Events: len(events)}
	cells := map[int]*CellStat{}
	procs := map[int]*ProcStat{}
	cell := func(ev sim.Event) *CellStat {
		c, ok := cells[ev.Cell]
		if !ok {
			c = &CellStat{Cell: ev.Cell, Label: ev.CellLabel}
			cells[ev.Cell] = c
		}
		return c
	}
	proc := func(id int) *ProcStat {
		p, ok := procs[id]
		if !ok {
			p = &ProcStat{Proc: id}
			procs[id] = p
		}
		return p
	}
	for _, ev := range events {
		p := proc(ev.Proc)
		switch ev.Kind {
		case sim.EvStep:
			c := cell(ev)
			c.Steps++
			p.Steps++
			a.Steps++
			if ev.RMRCC {
				c.RMRCC++
				p.RMRCC++
				a.RMRCC++
			}
			if ev.RMRDSM {
				c.RMRDSM++
				p.RMRDSM++
				a.RMRDSM++
			}
		case sim.EvWake:
			c := cell(ev)
			c.Wakes++
			if ev.RMRCC {
				c.RMRCC++
				p.RMRCC++
				a.RMRCC++
			}
			if ev.RMRDSM {
				c.RMRDSM++
				p.RMRDSM++
				a.RMRDSM++
			}
		case sim.EvCrash:
			p.Crashes++
		}
	}
	for _, c := range cells {
		a.Cells = append(a.Cells, *c)
	}
	for _, p := range procs {
		a.Procs = append(a.Procs, *p)
	}
	sort.Slice(a.Cells, func(i, j int) bool { return a.Cells[i].Cell < a.Cells[j].Cell })
	sort.Slice(a.Procs, func(i, j int) bool { return a.Procs[i].Proc < a.Procs[j].Proc })
	return a
}

// FoldCells adds cells into acc, keyed by label: within a run cells are
// keyed by allocation id, but across runs id 3 of a watree construction and
// id 3 of an mcs construction are unrelated cells while "cs-witness" is the
// same logical location everywhere. Each folded row keeps the smallest
// contributing cell id as its sort key.
func FoldCells(acc map[string]*CellStat, cells []CellStat) {
	for _, c := range cells {
		t, ok := acc[c.Label]
		if !ok {
			cc := c
			acc[c.Label] = &cc
			continue
		}
		if c.Cell < t.Cell {
			t.Cell = c.Cell
		}
		t.Steps += c.Steps
		t.Wakes += c.Wakes
		t.RMRCC += c.RMRCC
		t.RMRDSM += c.RMRDSM
	}
}

// Merge aggregates the attributions of several runs, folding cells across
// runs by label (FoldCells).
func Merge(runs []Run) Attribution {
	var m Attribution
	cells := map[string]*CellStat{}
	procs := map[int]*ProcStat{}
	for _, r := range runs {
		a := Attribute(r.Events)
		m.Events += a.Events
		m.Steps += a.Steps
		m.RMRCC += a.RMRCC
		m.RMRDSM += a.RMRDSM
		FoldCells(cells, a.Cells)
		for _, p := range a.Procs {
			t, ok := procs[p.Proc]
			if !ok {
				pp := p
				procs[p.Proc] = &pp
				continue
			}
			t.Steps += p.Steps
			t.Crashes += p.Crashes
			t.RMRCC += p.RMRCC
			t.RMRDSM += p.RMRDSM
		}
	}
	for _, c := range cells {
		m.Cells = append(m.Cells, *c)
	}
	for _, p := range procs {
		m.Procs = append(m.Procs, *p)
	}
	sort.Slice(m.Cells, func(i, j int) bool {
		if m.Cells[i].Cell != m.Cells[j].Cell {
			return m.Cells[i].Cell < m.Cells[j].Cell
		}
		return m.Cells[i].Label < m.Cells[j].Label
	})
	sort.Slice(m.Procs, func(i, j int) bool { return m.Procs[i].Proc < m.Procs[j].Proc })
	return m
}

// TopCells returns the n hottest cells under the given model, RMRs
// descending, ties broken by ascending cell id (deterministic).
func (a Attribution) TopCells(m sim.Model, n int) []CellStat {
	out := make([]CellStat, len(a.Cells))
	copy(out, a.Cells)
	sort.Slice(out, func(i, j int) bool {
		if out[i].RMRs(m) != out[j].RMRs(m) {
			return out[i].RMRs(m) > out[j].RMRs(m)
		}
		if out[i].Cell != out[j].Cell {
			return out[i].Cell < out[j].Cell
		}
		return out[i].Label < out[j].Label
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TopProcs returns the n costliest processes under the given model, RMRs
// descending, ties broken by ascending process id.
func (a Attribution) TopProcs(m sim.Model, n int) []ProcStat {
	out := make([]ProcStat, len(a.Procs))
	copy(out, a.Procs)
	sort.Slice(out, func(i, j int) bool {
		if out[i].RMRs(m) != out[j].RMRs(m) {
			return out[i].RMRs(m) > out[j].RMRs(m)
		}
		return out[i].Proc < out[j].Proc
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// WriteSummary renders the hottest-cells and costliest-processes tables.
// Output is a pure function of the attribution, so it is safe on the
// machine-clean stdout of the CLIs.
func WriteSummary(w io.Writer, a Attribution, m sim.Model, top int) {
	if top <= 0 {
		top = 10
	}
	fmt.Fprintf(w, "trace attribution (%s model): %d events, %d steps, %d CC RMRs, %d DSM RMRs\n",
		m, a.Events, a.Steps, a.RMRCC, a.RMRDSM)
	fmt.Fprintf(w, "  hottest cells:\n")
	fmt.Fprintf(w, "  %-28s %8s %8s %8s %8s\n", "cell", "steps", "wakes", "rmr-cc", "rmr-dsm")
	for _, c := range a.TopCells(m, top) {
		fmt.Fprintf(w, "  %-28s %8d %8d %8d %8d\n", c.Label, c.Steps, c.Wakes, c.RMRCC, c.RMRDSM)
	}
	fmt.Fprintf(w, "  costliest processes:\n")
	fmt.Fprintf(w, "  %-28s %8s %8s %8s %8s\n", "proc", "steps", "crashes", "rmr-cc", "rmr-dsm")
	for _, p := range a.TopProcs(m, top) {
		fmt.Fprintf(w, "  %-28s %8d %8d %8d %8d\n", fmt.Sprintf("p%d", p.Proc), p.Steps, p.Crashes, p.RMRCC, p.RMRDSM)
	}
}
