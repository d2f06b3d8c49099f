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
// goroutine exits right after sending its fin message, so the count may lag
// the controller by a few scheduling rounds.
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

// TestKillFromEveryGateState ends a run with Reset or Close from each state a
// body can be in at the step gate — blocked on a verdict, parked on a
// single-cell spin, parked in a multi-cell wait, mid-recovery after a
// crash, and finished — 1000 times each, and checks that every body
// goroutine is gone afterwards. The machine is reused throughout.
func TestKillFromEveryGateState(t *testing.T) {
	rounds := 1000
	if testing.Short() {
		rounds = 100
	}
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
				start := runtime.NumGoroutine() // no body is live between subtests
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
				waitGoroutines(t, start)
			})
		}
	}
}

// TestKillAckMustBeFin pins that killLive fails loudly when a body answers a
// kill with anything but its fin message — here, algorithm code that
// swallows the kill sentinel and announces another step.
func TestKillAckMustBeFin(t *testing.T) {
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
				t.Errorf("Close panicked with %q, want a non-fin acknowledgement panic", msg)
			}
		}()
		m.Close()
	}()
	// The body is blocked in its deferred Read; a second kill unwinds it
	// for good.
	pr := m.procs[0]
	pr.resumeCh <- verdict{kill: true}
	if ack := <-pr.pendingCh; !ack.fin {
		t.Fatal("second kill not acknowledged with fin")
	}
	pr.done = true
	waitGoroutines(t, start)
}

// TestCloseAfterFailedStart pins that a Start cut short by a body failure
// leaves nothing for Close to wait on: processes after the failed one were
// never launched and count as done.
func TestCloseAfterFailedStart(t *testing.T) {
	start := runtime.NumGoroutine()
	m, err := New(Config{Procs: 3, Width: 8, Model: CC})
	if err != nil {
		t.Fatal(err)
	}
	c := m.NewCell("c", memory.Shared, 0)
	read := ProgramFuncs{RunFunc: func(p *Proc) { p.Read(c) }}
	fail := ProgramFuncs{RunFunc: func(*Proc) { panic("bind failed") }}
	if err := m.Start([]Program{read, fail, read}); err == nil {
		t.Fatal("Start should surface the body failure")
	}
	m.Close()
	waitGoroutines(t, start)
}
