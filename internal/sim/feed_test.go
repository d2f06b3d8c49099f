package sim

import (
	"runtime"
	"strings"
	"testing"

	"rme/internal/memory"
)

// TestFeedAtGate pins where Rewind feeds a relaunched body its logged steps.
// One process reads a cell six times and is rewound from its fourth read to
// its third. A program on the Proc is fed all three steps at the step gate;
// one on Proc.Env takes them on its own goroutine; one that alternates
// between the two, starting on Proc.Env, takes the first and third there and
// is fed the second at the gate, where the feeding Env hands over to the
// controller and back.
func TestFeedAtGate(t *testing.T) {
	for _, tc := range []struct {
		bind    binding
		gateFed int
	}{{onProc, 3}, {onEnv, 0}, {mixed, 1}} {
		m, err := New(Config{Procs: 1, Width: 8, Model: CC, NoTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		c := m.NewCell("c", memory.Shared, 0)
		if err := m.Start([]Program{ProgramFuncs{RunFunc: func(p *Proc) {
			x, y := tc.bind.envs(p)
			for i := 0; i < 5; i += 2 {
				x.Read(c)
				y.Read(c)
			}
		}}}); err != nil {
			t.Fatal(err)
		}
		runActions(t, m, Schedule{{Proc: 0}, {Proc: 0}, {Proc: 0}, {Proc: 0}})
		// The relaunched program asks for its Env after the first rewind has
		// made the feeding Env, so both rounds are fed alike.
		for round := 0; round < 2; round++ {
			if ok, err := m.Rewind(3); !ok || err != nil {
				t.Fatalf("%s, round %d: Rewind: %v, %v", tc.bind, round, ok, err)
			}
			if po, ok := m.Pending(0); !ok || po.Cell != c || m.ProcSteps(0) != 3 || m.RMRsIn(CC, 0) != 1 {
				t.Fatalf("%s, round %d: rewound to 3: pending %+v, %d steps, %d RMRs; want the fourth read, 3 steps, 1 RMR",
					tc.bind, round, po, m.ProcSteps(0), m.RMRsIn(CC, 0))
			}
			if relaunched, fed, gateFed := m.RewindWork(); relaunched != 1 || fed != 3 || gateFed != tc.gateFed {
				t.Fatalf("%s, round %d: relaunched %d, fed %d, at the gate %d; want 1, 3, %d", tc.bind, round, relaunched, fed, gateFed, tc.gateFed)
			}
			runActions(t, m, Schedule{{Proc: 0}})
		}
		m.Close()
	}
}

// TestFeedDuringKill pins that a feeding Env answers nothing from its script
// while a kill unwinds the program it serves. A program on Proc.Env that
// recovers the kill sentinel and takes another step must fail loudly when
// Rewind relaunches it, as on the Proc, and not take the step from the
// script meant for the program that replaces it.
func TestFeedDuringKill(t *testing.T) {
	start := runtime.NumGoroutine()
	m, err := New(Config{Procs: 1, Width: 8, Model: CC, NoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	c := m.NewCell("c", memory.Shared, 0)
	swallow := false
	if err := m.Start([]Program{ProgramFuncs{RunFunc: func(p *Proc) {
		e := p.Env()
		defer func() {
			if swallow && recover() != nil {
				e.Read(c)
			}
		}()
		e.Read(c)
		e.Read(c)
		e.Read(c)
	}}}); err != nil {
		t.Fatal(err)
	}
	runActions(t, m, Schedule{{Proc: 0}, {Proc: 0}})
	// The first rewind relaunches the program on its feeding Env.
	if ok, err := m.Rewind(1); !ok || err != nil {
		t.Fatalf("first Rewind: %v, %v", ok, err)
	}
	runActions(t, m, Schedule{{Proc: 0}})
	swallow = true
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "not fin") {
				t.Errorf("Rewind relaunching a program that swallows the kill panicked with %q, want a non-fin acknowledgement panic", msg)
			}
		}()
		m.Rewind(1)
	}()
	// The body is blocked in its deferred Read, whose recover is spent;
	// Close's kill unwinds it for good.
	m.Close()
	waitGoroutines(t, start)
}
