package sim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rme/internal/memory"
	"rme/internal/word"
)

// binding names how rewindFixture's programs take their steps: through the
// Proc itself, through Proc.Env, or alternately through Proc.Env and the
// Proc, starting with Proc.Env on every run.
type binding int

const (
	onProc binding = iota
	onEnv
	mixed
)

func (b binding) String() string { return [...]string{"on Proc", "on Proc.Env", "mixed"}[b] }

// envs returns the two Envs a program on p alternates between.
func (b binding) envs(p *Proc) (memory.Env, memory.Env) {
	switch b {
	case onEnv:
		return p.Env(), p.Env()
	case mixed:
		return p.Env(), p
	}
	return p, p
}

// rewindFixture builds a two-process machine whose programs read, write,
// spin and apply custom operations, taking their steps as b says, and
// returns it with its programs unstarted. The operations are built once, so
// running the programs allocates nothing.
func rewindFixture(t *testing.T, noTrace bool, b binding) (*Machine, []Program) {
	t.Helper()
	m, err := New(Config{Procs: 2, Width: 8, Model: CC, NoTrace: noTrace})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	c := m.NewCell("c", memory.Shared, 0)
	flag := m.NewCell("flag", 0, 0)
	put1 := memory.Custom("put1", func(word.Word) (word.Word, word.Word) { return 1, 0 })
	put2 := memory.Custom("put2", func(old word.Word) (word.Word, word.Word) { return 2, old })
	isOne := func(v word.Word) bool { return v == 1 }
	return m, []Program{
		ProgramFuncs{RunFunc: func(p *Proc) {
			x, y := b.envs(p)
			p.Mark("p0")
			x.Read(c)
			y.Apply(c, put1)
			x.SpinUntil(flag, isOne)
			y.Read(c)
		}},
		ProgramFuncs{RunFunc: func(p *Proc) {
			x, y := b.envs(p)
			p.Mark("p1")
			x.Apply(c, put2)
			y.Read(c)
			x.Write(flag, 1)
			y.Read(flag)
			x.Read(c)
		}},
	}
}

// rewindSchedule drives rewindFixture's programs through a parked probe, a
// crash of the parked process, the write that unparks a spinner, a process
// finishing, and a crash whose recovery announces a custom operation. Every
// custom operation of the first run and of p1's recovery is in it.
var rewindSchedule = Schedule{
	{Proc: 0}, {Proc: 1}, {Proc: 0}, {Proc: 0}, // read c, put2, put1, probe flag: parks
	{Proc: 0, Crash: true}, // crash while parked; p0 runs again from the start
	{Proc: 1}, {Proc: 1},   // read c, write flag
	{Proc: 0}, {Proc: 0}, {Proc: 0}, {Proc: 0}, // read c, put1, probe flag: 1, read c: done
	{Proc: 1}, {Proc: 1, Crash: true}, // read flag, crash
	{Proc: 1}, {Proc: 1}, // put2, read c
}

func doAction(m *Machine, a Action) (Event, error) {
	if a.Crash {
		return m.Crash(a.Proc)
	}
	return m.Step(a.Proc)
}

func runActions(t *testing.T, m *Machine, sched Schedule) {
	t.Helper()
	for i, a := range sched {
		if _, err := doAction(m, a); err != nil {
			t.Fatalf("action %d (%s): %v", i, a, err)
		}
	}
}

// machineDiff compares two machines of one construction in everything a
// rewind sets, internal bookkeeping included, and describes the first
// difference, or returns "" if there is none.
func machineDiff(got, want *Machine) string {
	for q := range got.procs {
		g, w := got.procs[q], want.procs[q]
		gs := fmt.Sprintf("done=%v parked=%v steps=%d crashes=%d cost=%+v tag=%d marks=%d pending=%s",
			g.done, g.parked, g.steps, g.crashes, g.cost, g.tag, g.marks, pendingString(g))
		ws := fmt.Sprintf("done=%v parked=%v steps=%d crashes=%d cost=%+v tag=%d marks=%d pending=%s",
			w.done, w.parked, w.steps, w.crashes, w.cost, w.tag, w.marks, pendingString(w))
		if gs != ws {
			return fmt.Sprintf("p%d: %s, want %s", q, gs, ws)
		}
	}
	for i, g := range got.cells {
		w := want.cells[i]
		if g.val != w.val || g.lastAccessor != w.lastAccessor || !slices.Equal(g.cached, w.cached) ||
			!slices.Equal(g.watchers, w.watchers) || !slices.Equal(g.accessed, w.accessed) {
			return fmt.Sprintf("cell %s: val %d last %d cached %v watchers %v accessed %v; want %d, %d, %v, %v, %v",
				g.label, g.val, g.lastAccessor, g.cached, g.watchers, g.accessed,
				w.val, w.lastAccessor, w.cached, w.watchers, w.accessed)
		}
	}
	switch {
	case !slices.Equal(got.log.acts, want.log.acts):
		return fmt.Sprintf("log %+v, want %+v", got.log.acts, want.log.acts)
	case len(got.log.fns) != len(want.log.fns):
		return fmt.Sprintf("%d custom-op transitions, want %d", len(got.log.fns), len(want.log.fns))
	case got.seq != want.seq:
		return fmt.Sprintf("event counter %d, want %d", got.seq, want.seq)
	}
	return ""
}

func pendingString(p *Proc) string {
	if p.pending == nil {
		return "none"
	}
	return fmt.Sprintf("%s %s spin=%v", p.pending.cell.label, p.pending.op, p.pending.spin != nil)
}

// TestRewindChecksItsInput pins Rewind's preconditions and what it sets.
//   - Each broken precondition errs or declines and changes nothing: a
//     machine not started or closed, k out of range, a kept trace, a
//     multi-cell wait registered since Reset.
//   - A program that announces another operation than the logged one when
//     it runs again makes it fail, naming the action, whether it takes its
//     steps through its Proc or through Proc.Env. The machine then Resets,
//     Starts and Closes, and leaves no body goroutine behind.
//   - For every k of rewindFixture's schedule, a machine run to the end, to
//     where p0 is parked, or to p0's crash, and rewound to k equals a fresh
//     machine run to k in every process's counters, flags, tag, Marks and
//     pending operation, in every cell's value, cache copies, watchers,
//     accessors and last accessor, and in the log, its custom-op transitions
//     and the event counter; the two then return the same Events, Seq
//     included, on their way back to where the first stood. Rewinding the
//     rewound machine again must hold too. This holds for programs on the
//     Proc, on Proc.Env and on both: programs on Proc.Env are fed their
//     logged steps on the body goroutine, programs on the Proc at the step
//     gate.
//   - Once a machine has rewound, stepping it forward and rewinding it again
//     allocates nothing.
func TestRewindChecksItsInput(t *testing.T) {
	unstarted, _ := rewindFixture(t, true, onProc)
	if ok, err := unstarted.Rewind(0); ok || !errors.Is(err, ErrNotStarted) {
		t.Fatalf("Rewind before Start: %v, %v; want ErrNotStarted", ok, err)
	}

	for _, noTrace := range []bool{true, false} {
		m, progs := rewindFixture(t, noTrace, onProc)
		if err := m.Start(progs); err != nil {
			t.Fatal(err)
		}
		runActions(t, m, rewindSchedule[:6])
		state := func() string {
			return fmt.Sprintf("%d %v %d %d %d", m.Steps(), m.Schedule(), len(m.Trace()), m.ProcSteps(0), m.ProcSteps(1))
		}
		want := state()
		for _, k := range []int{-1, 7} {
			if ok, err := m.Rewind(k); ok || err == nil || state() != want {
				t.Fatalf("noTrace=%v: Rewind to %d of 6 returned %v, %v and left %s; want an error and %s", noTrace, k, ok, err, state(), want)
			}
		}
		ok, err := m.Rewind(3)
		switch {
		case noTrace && (!ok || err != nil):
			t.Fatalf("Rewind on a machine without a trace: %v, %v", ok, err)
		case !noTrace && (ok || err != nil || state() != want):
			t.Fatalf("Rewind on a machine that keeps a trace: %v, %v, left %s; want a decline and %s", ok, err, state(), want)
		}
		m.Close()
		if ok, err := m.Rewind(0); ok || !errors.Is(err, ErrClosed) {
			t.Fatalf("Rewind after Close: %v, %v; want ErrClosed", ok, err)
		}
	}

	// A multi-cell wait registered since Reset declines the rewind.
	mw, err := New(Config{Procs: 2, Width: 8, Model: CC, NoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mw.Close)
	a, b := mw.NewCell("a", memory.Shared, 0), mw.NewCell("b", memory.Shared, 0)
	if err := mw.Start([]Program{
		ProgramFuncs{RunFunc: func(p *Proc) {
			p.SpinUntilMulti([]memory.Cell{a, b}, func(v []word.Word) bool { return v[0]+v[1] > 0 })
			p.Read(a)
		}},
		ProgramFuncs{RunFunc: func(p *Proc) { p.Write(b, 1); p.Read(a) }},
	}); err != nil {
		t.Fatal(err)
	}
	runActions(t, mw, Schedule{{Proc: 1}, {Proc: 0}})
	if ok, err := mw.Rewind(1); ok || err != nil || mw.Steps() != 2 || mw.ProcSteps(0) != 1 {
		t.Fatalf("Rewind after a multi-cell wait: %v, %v, %d steps, p0 took %d; want a decline and no change",
			ok, err, mw.Steps(), mw.ProcSteps(0))
	}

	// A program whose steps depend on more than its responses announces,
	// once relaunched, another operation than the logged one. On Proc.Env
	// it is the feeding Env that passes the operation to the gate.
	for _, bind := range []binding{onProc, onEnv} {
		start := runtime.NumGoroutine()
		md, err := New(Config{Procs: 1, Width: 8, Model: CC, NoTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		a, b := md.NewCell("a", memory.Shared, 0), md.NewCell("b", memory.Shared, 0)
		first := a
		progs := []Program{ProgramFuncs{RunFunc: func(p *Proc) {
			x, _ := bind.envs(p)
			x.Read(first)
			x.Read(b)
		}}}
		if err := md.Start(progs); err != nil {
			t.Fatal(err)
		}
		runActions(t, md, Schedule{{Proc: 0}, {Proc: 0}})
		first = b
		if _, err := md.Rewind(1); err == nil || !strings.Contains(err.Error(), "logged action 0") {
			t.Fatalf("%s: Rewind relaunching a program that reads another cell first: %v; want an error naming logged action 0", bind, err)
		}
		md.Reset()
		if err := md.Start(progs); err != nil {
			t.Fatalf("%s: Start after the failed rewind and a Reset: %v", bind, err)
		}
		if po, ok := md.Pending(0); !ok || po.Cell != b || md.ProcSteps(0) != 0 {
			t.Fatalf("%s: after the failed rewind, a Reset and a Start: pending %+v, %d steps; want the first read of b, none taken", bind, po, md.ProcSteps(0))
		}
		md.Close()
		waitGoroutines(t, start)
	}

	// The machine is rewound from d to k, for d = 4, where p0 stands parked
	// on flag, d = 5, one crash of p0 later, and d at the end of the
	// schedule.
	for _, bind := range []binding{onProc, onEnv, mixed} {
		var fed, gateFed int
		for k := 0; k <= len(rewindSchedule); k++ {
			for _, d := range []int{4, 5, len(rewindSchedule)} {
				if d < k {
					continue
				}
				m, progs := rewindFixture(t, true, bind)
				ref, refProgs := rewindFixture(t, true, bind)
				if err := m.Start(progs); err != nil {
					t.Fatal(err)
				}
				if err := ref.Start(refProgs); err != nil {
					t.Fatal(err)
				}
				runActions(t, m, rewindSchedule[:d])
				runActions(t, ref, rewindSchedule[:k])
				for round := 0; round < 2; round++ {
					if ok, err := m.Rewind(k); !ok || err != nil {
						t.Fatalf("%s, %d to %d, round %d: Rewind: %v, %v", bind, d, k, round, ok, err)
					}
					if diff := machineDiff(m, ref); diff != "" {
						t.Fatalf("%s, %d to %d, round %d: rewound machine differs from one run to k: %s", bind, d, k, round, diff)
					}
					_, f, g := m.RewindWork()
					if bind == onProc && g != f || bind == onEnv && g != 0 || g > f {
						t.Fatalf("%s, %d to %d, round %d: %d logged steps fed, %d of them at the gate", bind, d, k, round, f, g)
					}
					fed, gateFed = fed+f, gateFed+g
					for i, a := range rewindSchedule[k:d] {
						got, errG := doAction(m, a)
						want, errW := doAction(ref, a)
						got.Op.F, want.Op.F = nil, nil
						if fmt.Sprintf("%+v %v", got, errG) != fmt.Sprintf("%+v %v", want, errW) {
							t.Fatalf("%s, %d to %d, round %d: action %d (%s) after the rewind: %+v, %v; want %+v, %v",
								bind, d, k, round, k+i, a, got, errG, want, errW)
						}
					}
					// Both stand at d again: take ref back to k the slow way for
					// the next round.
					ref.Reset()
					if err := ref.Start(refProgs); err != nil {
						t.Fatal(err)
					}
					runActions(t, ref, rewindSchedule[:k])
				}
				if k != 5 || d != len(rewindSchedule) {
					continue
				}
				allocs := testing.AllocsPerRun(20, func() {
					if ok, err := m.Rewind(k); !ok || err != nil {
						panic(fmt.Sprint(ok, err))
					}
					for _, a := range rewindSchedule[k:d] {
						if _, err := doAction(m, a); err != nil {
							panic(err)
						}
					}
				})
				if allocs != 0 {
					t.Fatalf("%s: stepping forward and rewinding to %d: %.1f allocations, want 0", bind, k, allocs)
				}
			}
		}
		if fed == 0 || bind == mixed && (gateFed == 0 || gateFed == fed) {
			t.Fatalf("%s: %d logged steps fed in all, %d of them at the gate; want some, and for mixed programs some of each kind", bind, fed, gateFed)
		}
	}
}
