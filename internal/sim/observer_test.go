package sim

import (
	"testing"

	"rme/internal/memory"
	"rme/internal/word"
)

// contendProg makes procs fight over a shared cell and then spin until a
// release flag flips, exercising RMR charges, parking, and wakes.
func contendProg(c, flag memory.Cell, id int) Program {
	return ProgramFuncs{RunFunc: func(p *Proc) {
		p.Add(c, 1)
		if id == 0 {
			p.Write(flag, 1)
			return
		}
		p.SpinUntil(flag, func(v word.Word) bool { return v != 0 })
		p.Read(c)
	}}
}

// startContention allocates the shared cells and starts one contending
// program per process.
func startContention(t *testing.T, m *Machine) {
	t.Helper()
	c := m.NewCell("counter", memory.Shared, 0)
	flag := m.NewCell("flag", memory.Shared, 0)
	progs := make([]Program, m.Procs())
	for i := range progs {
		progs[i] = contendProg(c, flag, i)
	}
	if err := m.Start(progs); err != nil {
		t.Fatal(err)
	}
}

// TestEventFlagsMatchRMRCounters asserts the per-event RMRCC/RMRDSM flags
// sum to exactly the machine's per-process RMR counters — the trace is the
// counters, itemized.
func TestEventFlagsMatchRMRCounters(t *testing.T) {
	for _, model := range []Model{CC, DSM} {
		m := newTestMachine(t, 4, model)
		startContention(t, m)
		runToCompletion(t, m)
		ccByProc := make([]int, m.Procs())
		dsmByProc := make([]int, m.Procs())
		for _, ev := range m.Trace() {
			if ev.RMRCC {
				ccByProc[ev.Proc]++
			}
			if ev.RMRDSM {
				dsmByProc[ev.Proc]++
			}
		}
		for p := 0; p < m.Procs(); p++ {
			if got, want := ccByProc[p], m.RMRsIn(CC, p); got != want {
				t.Errorf("%v: p%d trace CC flags = %d, counter = %d", model, p, got, want)
			}
			if got, want := dsmByProc[p], m.RMRsIn(DSM, p); got != want {
				t.Errorf("%v: p%d trace DSM flags = %d, counter = %d", model, p, got, want)
			}
		}
	}
}
