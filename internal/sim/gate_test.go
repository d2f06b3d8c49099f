package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"rme/internal/memory"
	"rme/internal/word"
)

// gateState drives a freshly started two-process machine into one state of
// the step gate. Process 0's body is in that state afterwards; process 1 is
// blocked on its first verdict, or finished once it has been stepped.
type gateState struct {
	name  string
	drive func(t *testing.T, m *Machine)
}

// gateCells are the cells gateProgram's bodies touch.
type gateCells struct{ a, flag, flag2 memory.Cell }

// gateProgram gives process 0 a body that can reach every gate state: it
// reads a, parks on flag, then waits on flag and flag2 together; Recover
// reads a and writes it. Process 1 writes 1 to flag and finishes.
func gateProgram(c gateCells) []Program {
	p0 := ProgramFuncs{
		RunFunc: func(p *Proc) {
			p.Read(c.a)
			p.SpinUntil(c.flag, func(v word.Word) bool { return v == 1 })
			p.SpinUntilMulti([]memory.Cell{c.flag, c.flag2}, func(vs []word.Word) bool {
				return vs[0] == 2 && vs[1] == 1
			})
		},
		RecoverFunc: func(p *Proc) {
			p.Read(c.a)
			p.Write(c.a, 1)
		},
	}
	p1 := ProgramFuncs{RunFunc: func(p *Proc) { p.Write(c.flag, 1) }}
	return []Program{p0, p1}
}

func gateStates(c gateCells) []gateState {
	step := func(t *testing.T, m *Machine, p int) {
		t.Helper()
		if _, err := m.Step(p); err != nil {
			t.Fatal(err)
		}
	}
	return []gateState{
		{"verdict", func(t *testing.T, m *Machine) {}},
		{"spinner", func(t *testing.T, m *Machine) {
			step(t, m, 0) // read a
			step(t, m, 0) // probe flag (0): parks
			if !m.Parked(0) {
				t.Fatal("p0 should be parked on flag")
			}
		}},
		{"multiwait", func(t *testing.T, m *Machine) {
			step(t, m, 1) // flag = 1: the single-cell spin will succeed
			step(t, m, 0)
			step(t, m, 0) // probe flag (1): registers the multi-cell wait
			if po, ok := m.Pending(0); !ok || !po.Wait || !m.Parked(0) {
				t.Fatal("p0 should be parked in a multi-cell wait")
			}
		}},
		{"recovering", func(t *testing.T, m *Machine) {
			step(t, m, 0)
			if _, err := m.Crash(0); err != nil {
				t.Fatal(err)
			}
			step(t, m, 0) // Recover's read; its write is now pending
			if m.Crashes(0) != 1 || !m.Poised(0) {
				t.Fatal("p0 should be poised mid-recovery")
			}
		}},
		{"finished", func(t *testing.T, m *Machine) {
			step(t, m, 0)
			if _, err := m.Crash(0); err != nil {
				t.Fatal(err)
			}
			step(t, m, 0)
			step(t, m, 0)
			if !m.ProcDone(0) {
				t.Fatal("p0 should have finished")
			}
		}},
	}
}

// waitGoroutines waits until the process has at most want goroutines. A body
// goroutine exits right after acknowledging Close's kill, and a subtest's
// goroutine right after it reports, so the count may lag by a few
// scheduling rounds.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: body goroutines leaked", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestKillFromEveryGateState abandons a run from each state a body can be in
// at the step gate — blocked on a verdict, parked on a single-cell spin,
// parked in a multi-cell wait, mid-recovery after a crash, and finished —
// 1000 times each, either by Reset (the next Start relaunches the parked
// bodies) or by Close (the next Start launches new ones). The bodies must
// stay parked across Reset and be gone after Close. The machine is reused
// throughout.
func TestKillFromEveryGateState(t *testing.T) {
	rounds := 1000
	if testing.Short() {
		rounds = 100
	}
	base := runtime.NumGoroutine()
	m, err := New(Config{Procs: 2, Width: 8, Model: CC, NoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	c := gateCells{
		a:     m.NewCell("a", memory.Shared, 0),
		flag:  m.NewCell("flag", memory.Shared, 0),
		flag2: m.NewCell("flag2", memory.Shared, 0),
	}
	progs := gateProgram(c)
	for _, st := range gateStates(c) {
		for _, end := range []string{"Reset", "Close"} {
			t.Run(st.name+"/"+end, func(t *testing.T) {
				// Count from a process where the previous subtest's bodies
				// and goroutine have exited; this subtest's goroutine is
				// the one above base.
				waitGoroutines(t, base+1)
				start := runtime.NumGoroutine()
				for i := 0; i < rounds; i++ {
					m.Reset()
					if err := m.Start(progs); err != nil {
						t.Fatal(err)
					}
					st.drive(t, m)
					if end == "Close" {
						m.Close()
					}
				}
				m.Reset()
				if end == "Reset" {
					// A body ended by Reset would exit within a few
					// scheduling rounds; give it those rounds. Parked
					// bodies keep the count above start.
					for i := 0; i < 100; i++ {
						runtime.Gosched()
					}
					if n := runtime.NumGoroutine(); n <= start {
						t.Fatalf("%d goroutines after Reset, started from %d: the two bodies should stay parked", n, start)
					}
				}
				m.Close()
				waitGoroutines(t, start)
			})
		}
	}
}

// TestKillAckMustBeFin pins that a body answering a kill with anything but
// its fin message fails loudly — here, algorithm code that swallows the kill
// sentinel and announces another step. The kill comes either from Close, or
// from the relaunch of a Start after Reset, where the swallowed step would
// otherwise pass for the new program's first announcement.
func TestKillAckMustBeFin(t *testing.T) {
	for _, path := range []string{"Close", "relaunch"} {
		t.Run(path, func(t *testing.T) {
			start := runtime.NumGoroutine()
			m, err := New(Config{Procs: 1, Width: 8, Model: CC})
			if err != nil {
				t.Fatal(err)
			}
			c := m.NewCell("c", memory.Shared, 0)
			prog := ProgramFuncs{RunFunc: func(p *Proc) {
				defer func() {
					if recover() != nil {
						p.Read(c)
					}
				}()
				p.Read(c)
			}}
			if err := m.Start([]Program{prog}); err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "not fin") {
						t.Errorf("%s panicked with %q, want a non-fin acknowledgement panic", path, msg)
					}
				}()
				if path == "Close" {
					m.Close()
					return
				}
				m.Reset()
				m.Start([]Program{prog})
			}()
			// The body is blocked in its deferred Read, whose recover is
			// spent; Close's kill unwinds it for good.
			m.Close()
			waitGoroutines(t, start)
		})
	}
}

// TestResetStartAllocatesNothing pins that a relaunch reuses the body
// goroutines: once a machine has been started, Reset plus Start allocates
// nothing when the programs themselves allocate nothing — here one body
// abandoned mid-program and one finished.
func TestResetStartAllocatesNothing(t *testing.T) {
	m, err := New(Config{Procs: 2, Width: 8, Model: CC, NoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	c := m.NewCell("c", memory.Shared, 0)
	progs := []Program{
		ProgramFuncs{RunFunc: func(p *Proc) { p.Read(c) }},
		ProgramFuncs{RunFunc: func(*Proc) {}},
	}
	if err := m.Start(progs); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	allocs := testing.AllocsPerRun(100, func() {
		m.Reset()
		if err := m.Start(progs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reset+Start allocated %v times, want 0", allocs)
	}
}

// TestCloseAfterFailedStart pins that a Start cut short by a body failure
// leaves nothing for Close to wait on: processes after the failed one were
// never launched and count as done. On a reset machine such a process still
// has the body its earlier run left parked, which Close ends.
func TestCloseAfterFailedStart(t *testing.T) {
	start := runtime.NumGoroutine()
	m, err := New(Config{Procs: 3, Width: 8, Model: CC})
	if err != nil {
		t.Fatal(err)
	}
	c := m.NewCell("c", memory.Shared, 0)
	read := ProgramFuncs{RunFunc: func(p *Proc) { p.Read(c) }}
	fail := ProgramFuncs{RunFunc: func(*Proc) { panic("bind failed") }}
	for _, earlier := range [][]Program{nil, {read, read, read}} {
		if earlier != nil {
			m.Reset()
			if err := m.Start(earlier); err != nil {
				t.Fatal(err)
			}
		}
		m.Reset()
		if err := m.Start([]Program{read, fail, read}); err == nil {
			t.Fatal("Start should surface the body failure")
		}
		if !m.ProcDone(2) || m.Poised(2) {
			t.Fatal("process 2 was never launched and should count as done")
		}
		m.Close()
		waitGoroutines(t, start)
	}
}
