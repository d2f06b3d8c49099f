package sim

import (
	"runtime"
	"testing"

	"rme/internal/memory"
	"rme/internal/word"
)

// TestRelaunchOneBodyMidProgram relaunches one body in the middle of its
// program, 100 times over, while the other two stay where they are: one
// parked on a spin and one blocked on its next verdict. Each time the
// relaunched process must be poised at its program's first operation with
// its counters cleared and one Mark counted, and the others must be
// untouched. After Close no body may be left.
func TestRelaunchOneBodyMidProgram(t *testing.T) {
	start := runtime.NumGoroutine()
	m, err := New(Config{Procs: 3, Width: 8, Model: CC, NoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	a := m.NewCell("a", memory.Shared, 0)
	flag := m.NewCell("flag", memory.Shared, 0)
	progs := []Program{
		ProgramFuncs{RunFunc: func(p *Proc) {
			p.Read(a)
			p.SpinUntil(flag, func(v word.Word) bool { return v == 1 })
		}},
		ProgramFuncs{RunFunc: func(p *Proc) {
			p.Mark("begin")
			p.Read(a)
			p.Write(a, 1)
			p.Read(a)
		}},
		ProgramFuncs{RunFunc: func(p *Proc) {
			p.Read(a)
			p.Read(flag)
		}},
	}
	if err := m.Start(progs); err != nil {
		t.Fatal(err)
	}
	step := func(p int) {
		t.Helper()
		if _, err := m.Step(p); err != nil {
			t.Fatal(err)
		}
	}
	step(0)
	step(0) // probes flag (0) and parks
	step(2)
	for i := 0; i < 100; i++ {
		step(1)
		step(1) // p1 is now pending its second read of a
		if err := m.relaunch(m.procs[1], progs[1]); err != nil {
			t.Fatal(err)
		}
		po, ok := m.Pending(1)
		if !ok || po.Cell != a || !po.Op.IsRead() || m.ProcSteps(1) != 0 || m.RMRsIn(CC, 1) != 0 || m.procs[1].marks != 1 {
			t.Fatalf("round %d: p1 after its relaunch: pending %+v, %d steps, %d RMRs, %d marks; want its first read of a and nothing counted but one mark",
				i, po, m.ProcSteps(1), m.RMRsIn(CC, 1), m.procs[1].marks)
		}
		if po, _ := m.Pending(2); !m.Parked(0) || m.ProcSteps(0) != 2 || m.ProcSteps(2) != 1 || po.Cell != flag {
			t.Fatalf("round %d: the relaunch of p1 moved p0 (parked %v, %d steps) or p2 (%d steps, pending %+v)",
				i, m.Parked(0), m.ProcSteps(0), m.ProcSteps(2), po)
		}
	}
	m.Close()
	waitGoroutines(t, start)
}

// TestAdoptErasureChecksItsReplay pins AdoptErasure's preconditions. The
// Erasure's last replay must have left the same process out of the
// machine's log as the log now stands and returned true, and the machine
// must keep no trace; otherwise AdoptErasure fails and changes nothing. An
// adoption that meets them deletes the process's actions, custom operations
// included, and leaves a log whose remaining custom operations still find
// their transitions.
func TestAdoptErasureChecksItsReplay(t *testing.T) {
	for _, noTrace := range []bool{true, false} {
		m, err := New(Config{Procs: 2, Width: 8, Model: CC, NoTrace: noTrace})
		if err != nil {
			t.Fatal(err)
		}
		c := m.NewCell("c", memory.Shared, 0)
		body := func(p *Proc) {
			id := word.Word(p.ID() + 1)
			p.Read(c)
			p.Apply(c, memory.Custom("put", func(word.Word) (word.Word, word.Word) { return id, 0 }))
			p.Read(c)
		}
		progs := []Program{ProgramFuncs{RunFunc: body}, ProgramFuncs{RunFunc: body}}
		if err := m.Start(progs); err != nil {
			t.Fatal(err)
		}
		// p0 reads 0, p1 reads 0, p0 puts 1, p1 puts 2, and p0 reads 2.
		// Without p0 every response of p1 stands; without p1, p0's last
		// read would return 1.
		for _, p := range []int{0, 1, 0, 1, 0} {
			if _, err := m.Step(p); err != nil {
				t.Fatal(err)
			}
		}
		var e Erasure
		stale := []struct {
			name    string
			p       int
			prepare func() bool
		}{
			{"another process left out", 1, func() bool { return e.Replay(m, 0) }},
			{"a diverged replay", 1, func() bool { return !e.Replay(m, 1) }},
			{"a log grown since", 0, func() bool {
				ok := e.Replay(m, 0)
				_, err := m.Step(1) // p1 reads 2
				return ok && err == nil
			}},
		}
		for _, tc := range stale {
			if !tc.prepare() {
				t.Fatalf("%s: the fixture does not set it up", tc.name)
			}
			steps := m.Steps()
			if err := m.AdoptErasure(&e, tc.p, progs[tc.p]); err == nil || m.Steps() != steps {
				t.Fatalf("%s: AdoptErasure returned %v and left %d of %d steps; want an error and no change", tc.name, err, m.Steps(), steps)
			}
		}
		if !e.Replay(m, 0) {
			t.Fatal("erasing p0 should leave p1's responses unchanged")
		}
		err = m.AdoptErasure(&e, 0, progs[0])
		switch {
		case !noTrace && err == nil:
			t.Fatal("AdoptErasure patched a machine that keeps a trace")
		case noTrace && err != nil:
			t.Fatal(err)
		case noTrace && (m.Steps() != 3 || m.ProcSteps(0) != 0 || m.Value(c) != 2 || m.LastAccessor(c) != 1):
			t.Fatalf("after erasing p0: %d steps, p0 took %d, c = %d last accessed by p%d; want 3, 0, 2, p1",
				m.Steps(), m.ProcSteps(0), m.Value(c), m.LastAccessor(c))
		case noTrace && !e.Replay(m, 0):
			t.Fatal("the patched log does not replay to its own responses")
		}
		m.Close()
	}
}
