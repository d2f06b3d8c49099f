package sim

import (
	"errors"
	"slices"
	"testing"

	"rme/internal/memory"
	"rme/internal/word"
)

func newTestMachine(t *testing.T, procs int, model Model) *Machine {
	t.Helper()
	m, err := New(Config{Procs: procs, Width: 16, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// stepAll advances every poised process once, returning false when none was.
func stepAll(t *testing.T, m *Machine) bool {
	t.Helper()
	ps := m.PoisedProcs()
	for _, p := range ps {
		if _, err := m.Step(p); err != nil {
			t.Fatalf("step %d: %v", p, err)
		}
	}
	return len(ps) > 0
}

// runToCompletion drives all processes round-robin until done.
func runToCompletion(t *testing.T, m *Machine) {
	t.Helper()
	for !m.AllDone() {
		if m.Stuck() {
			t.Fatal("machine stuck")
		}
		stepAll(t, m)
	}
}

func TestSingleProcessSequence(t *testing.T) {
	m := newTestMachine(t, 1, CC)
	c := m.NewCell("c", memory.Shared, 0)
	var results []word.Word
	prog := ProgramFuncs{RunFunc: func(p *Proc) {
		results = append(results, p.Add(c, 5))
		results = append(results, p.Swap(c, 100))
		results = append(results, p.Read(c))
	}}
	if err := m.Start([]Program{prog}); err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, m)
	want := []word.Word{0, 5, 100}
	if len(results) != len(want) {
		t.Fatalf("results = %v, want %v", results, want)
	}
	for i := range want {
		if results[i] != want[i] {
			t.Fatalf("results = %v, want %v", results, want)
		}
	}
	if got := m.Value(c); got != 100 {
		t.Errorf("final value = %d, want 100", got)
	}
}

func TestStepGateSerializesBodies(t *testing.T) {
	// Two processes interleaved one step at a time; controller dictates order
	// exactly, so FAS returns are fully determined.
	m := newTestMachine(t, 2, CC)
	c := m.NewCell("c", memory.Shared, 0)
	got := make([]word.Word, 2)
	prog := func(id int) Program {
		return ProgramFuncs{RunFunc: func(p *Proc) {
			got[id] = p.Swap(c, word.Word(id+1))
		}}
	}
	if err := m.Start([]Program{prog(0), prog(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(1); err != nil { // p1 first
		t.Fatal(err)
	}
	if _, err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if got[1] != 0 || got[0] != 2 {
		t.Errorf("FAS returns = %v, want p1->0, p0->2", got)
	}
}

func TestRMRAccountingCC(t *testing.T) {
	m := newTestMachine(t, 2, CC)
	c := m.NewCell("c", memory.Shared, 0)
	prog := ProgramFuncs{RunFunc: func(p *Proc) {
		p.Read(c)     // miss: RMR
		p.Read(c)     // cached: free
		p.Write(c, 1) // non-read: RMR, invalidates all
		p.Read(c)     // miss again: RMR
	}}
	idle := ProgramFuncs{RunFunc: func(p *Proc) { p.Read(c) }}
	if err := m.Start([]Program{prog, idle}); err != nil {
		t.Fatal(err)
	}
	// p1 reads first (miss), then p0 runs fully, invalidating p1's copy.
	if _, err := m.Step(1); err != nil {
		t.Fatal(err)
	}
	for !m.ProcDone(0) {
		if _, err := m.Step(0); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.RMRsIn(CC, 0); got != 3 {
		t.Errorf("p0 CC RMRs = %d, want 3", got)
	}
	if got := m.RMRsIn(CC, 1); got != 1 {
		t.Errorf("p1 CC RMRs = %d, want 1", got)
	}
	if slices.Contains(m.CachedCells(1), c.CellID()) {
		t.Error("p1's cache copy should have been invalidated by p0's write")
	}
}

func TestRMRAccountingDSM(t *testing.T) {
	m := newTestMachine(t, 2, DSM)
	mine := m.NewCell("mine", 0, 0)
	theirs := m.NewCell("theirs", 1, 0)
	shared := m.NewCell("shared", memory.Shared, 0)
	prog := ProgramFuncs{RunFunc: func(p *Proc) {
		p.Read(mine)       // own segment: free
		p.Write(mine, 1)   // own segment: free
		p.Read(theirs)     // remote: RMR
		p.Write(shared, 2) // unowned: RMR
	}}
	idle := ProgramFuncs{RunFunc: func(p *Proc) {}}
	if err := m.Start([]Program{prog, idle}); err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, m)
	if got := m.RMRsIn(DSM, 0); got != 2 {
		t.Errorf("p0 DSM RMRs = %d, want 2", got)
	}
	// The same run under CC accounting: read miss + write + read miss + write.
	if got := m.RMRsIn(CC, 0); got != 4 {
		t.Errorf("p0 CC RMRs = %d, want 4", got)
	}
}

func TestWouldRMR(t *testing.T) {
	m := newTestMachine(t, 2, CC)
	c := m.NewCell("c", memory.Shared, 0)
	prog := ProgramFuncs{RunFunc: func(p *Proc) {
		p.Read(c)
		p.Read(c)
	}}
	idle := ProgramFuncs{RunFunc: func(p *Proc) {}}
	if err := m.Start([]Program{prog, idle}); err != nil {
		t.Fatal(err)
	}
	if !m.WouldRMR(0) {
		t.Error("first read should be a cache miss")
	}
	if _, err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if m.WouldRMR(0) {
		t.Error("second read should be cached")
	}
}

func TestSpinParkAndWake(t *testing.T) {
	m := newTestMachine(t, 2, CC)
	flag := m.NewCell("flag", memory.Shared, 0)
	var woke word.Word
	waiter := ProgramFuncs{RunFunc: func(p *Proc) {
		woke = p.SpinUntil(flag, func(v word.Word) bool { return v == 9 })
	}}
	setter := ProgramFuncs{RunFunc: func(p *Proc) {
		p.Write(flag, 3)
		p.Write(flag, 9)
	}}
	if err := m.Start([]Program{waiter, setter}); err != nil {
		t.Fatal(err)
	}
	// Probe 1: flag=0, parks.
	ev, err := m.Step(0)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Parked || !m.Parked(0) || m.Poised(0) {
		t.Fatalf("waiter should be parked: ev=%v", ev)
	}
	// Setter writes 3: waiter unparks, probes, parks again.
	if _, err := m.Step(1); err != nil {
		t.Fatal(err)
	}
	if !m.Poised(0) {
		t.Fatal("waiter should be poised after flag changed")
	}
	if _, err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if !m.Parked(0) {
		t.Fatal("waiter should re-park: predicate still false")
	}
	// Setter writes 9: waiter unparks, probe succeeds, body resumes and ends.
	if _, err := m.Step(1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if !m.ProcDone(0) {
		t.Fatal("waiter should have finished")
	}
	if woke != 9 {
		t.Errorf("SpinUntil returned %d, want 9", woke)
	}
	// Each probe read cost one CC RMR (miss after invalidation).
	if got := m.RMRsIn(CC, 0); got != 3 {
		t.Errorf("waiter CC RMRs = %d, want 3 (three probe misses)", got)
	}
	// DSM: the flag is unowned, so probes are remote there too.
	if got := m.RMRsIn(DSM, 0); got != 3 {
		t.Errorf("waiter DSM RMRs = %d, want 3", got)
	}
}

func TestSpinOnOwnSegmentIsFreeDSM(t *testing.T) {
	m, err := New(Config{Procs: 2, Width: 16, Model: DSM})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	flag := m.NewCell("flag", 0, 0) // owned by the waiter
	waiter := ProgramFuncs{RunFunc: func(p *Proc) {
		p.SpinUntil(flag, func(v word.Word) bool { return v == 1 })
	}}
	setter := ProgramFuncs{RunFunc: func(p *Proc) {
		p.Write(flag, 1) // remote write: 1 RMR
	}}
	if err := m.Start([]Program{waiter, setter}); err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, m)
	if got := m.RMRsIn(DSM, 0); got != 0 {
		t.Errorf("local spin cost %d DSM RMRs, want 0", got)
	}
	if got := m.RMRsIn(DSM, 1); got != 1 {
		t.Errorf("setter DSM RMRs = %d, want 1", got)
	}
}

func TestStuckDetection(t *testing.T) {
	m := newTestMachine(t, 1, CC)
	c := m.NewCell("c", memory.Shared, 0)
	prog := ProgramFuncs{RunFunc: func(p *Proc) {
		p.SpinUntil(c, func(v word.Word) bool { return v == 1 })
	}}
	if err := m.Start([]Program{prog}); err != nil {
		t.Fatal(err)
	}
	if m.Stuck() {
		t.Fatal("not yet stuck: probe still poised")
	}
	if _, err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if !m.Stuck() {
		t.Fatal("lone parked process should be reported stuck")
	}
}

func TestCrashRunsRecover(t *testing.T) {
	m := newTestMachine(t, 1, CC)
	c := m.NewCell("c", memory.Shared, 0)
	var path []string
	prog := ProgramFuncs{
		RunFunc: func(p *Proc) {
			path = append(path, "run")
			p.Write(c, 1)
			p.Write(c, 2) // crash delivered instead of this step
			path = append(path, "unreachable")
		},
		RecoverFunc: func(p *Proc) {
			path = append(path, "recover")
			if p.Read(c) != 1 {
				path = append(path, "lost-memory")
			}
			p.Write(c, 7)
		},
	}
	if err := m.Start([]Program{prog}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(0); err != nil { // write 1
		t.Fatal(err)
	}
	if _, err := m.Crash(0); err != nil { // preempts write 2
		t.Fatal(err)
	}
	runToCompletion(t, m)
	if got := m.Value(c); got != 7 {
		t.Errorf("final value = %d, want 7 (write 2 must not happen)", got)
	}
	if len(path) != 2 || path[0] != "run" || path[1] != "recover" {
		t.Errorf("path = %v", path)
	}
	if got := m.Crashes(0); got != 1 {
		t.Errorf("crashes = %d, want 1", got)
	}
}

func TestCrashWhileParked(t *testing.T) {
	m := newTestMachine(t, 1, CC)
	c := m.NewCell("c", memory.Shared, 0)
	recovered := false
	prog := ProgramFuncs{
		RunFunc: func(p *Proc) {
			p.SpinUntil(c, func(v word.Word) bool { return v == 1 })
		},
		RecoverFunc: func(p *Proc) { recovered = true },
	}
	if err := m.Start([]Program{prog}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(0); err != nil { // parks
		t.Fatal(err)
	}
	if !m.Parked(0) {
		t.Fatal("should be parked")
	}
	if _, err := m.Crash(0); err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, m)
	if !recovered {
		t.Error("recover did not run")
	}
}

func TestScheduleRecordsActions(t *testing.T) {
	m := newTestMachine(t, 2, CC)
	c := m.NewCell("c", memory.Shared, 0)
	prog := ProgramFuncs{
		RunFunc:     func(p *Proc) { p.Write(c, 1); p.Write(c, 2) },
		RecoverFunc: func(p *Proc) { p.Write(c, 3) },
	}
	idle := ProgramFuncs{RunFunc: func(p *Proc) { p.Read(c) }}
	if err := m.Start([]Program{prog, idle}); err != nil {
		t.Fatal(err)
	}
	mustStep := func(p int) {
		t.Helper()
		if _, err := m.Step(p); err != nil {
			t.Fatal(err)
		}
	}
	mustStep(0)
	mustStep(1)
	if _, err := m.Crash(0); err != nil {
		t.Fatal(err)
	}
	mustStep(0)
	want := Schedule{{Proc: 0}, {Proc: 1}, {Proc: 0, Crash: true}, {Proc: 0}}
	got := m.Schedule()
	if got.String() != want.String() {
		t.Errorf("schedule = %q, want %q", got, want)
	}
}

func TestReplayDeterminism(t *testing.T) {
	// Build a nontrivial execution, then replay its schedule on a fresh
	// machine and require identical traces, values, and RMR counters.
	build := func() (*Machine, []Program) {
		m, err := New(Config{Procs: 3, Width: 8, Model: CC})
		if err != nil {
			t.Fatal(err)
		}
		c := m.NewCell("c", memory.Shared, 0)
		d := m.NewCell("d", 1, 0)
		progs := make([]Program, 3)
		for i := 0; i < 3; i++ {
			i := i
			progs[i] = ProgramFuncs{
				RunFunc: func(p *Proc) {
					v := p.Add(c, word.Word(i+1))
					p.Write(d, v)
					p.Swap(c, word.Word(i))
					p.Read(d)
				},
				RecoverFunc: func(p *Proc) {
					p.Read(c)
					p.Write(d, 99)
				},
			}
		}
		return m, progs
	}

	m1, progs1 := build()
	t.Cleanup(m1.Close)
	if err := m1.Start(progs1); err != nil {
		t.Fatal(err)
	}
	// A scripted adversarial schedule with a crash.
	script := Schedule{
		{Proc: 2}, {Proc: 0}, {Proc: 2}, {Proc: 1}, {Proc: 1, Crash: true},
		{Proc: 1}, {Proc: 0}, {Proc: 2}, {Proc: 0}, {Proc: 1}, {Proc: 2}, {Proc: 0},
	}
	if err := replaySchedule(m1, script); err != nil {
		t.Fatal(err)
	}

	m2, progs2 := build()
	t.Cleanup(m2.Close)
	if err := m2.Start(progs2); err != nil {
		t.Fatal(err)
	}
	if err := replaySchedule(m2, m1.Schedule()); err != nil {
		t.Fatal(err)
	}

	tr1, tr2 := m1.Trace(), m2.Trace()
	if len(tr1) != len(tr2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(tr1), len(tr2))
	}
	for i := range tr1 {
		if tr1[i].String() != tr2[i].String() {
			t.Fatalf("trace diverges at %d:\n  %v\n  %v", i, tr1[i], tr2[i])
		}
	}
	for p := 0; p < 3; p++ {
		if m1.RMRsIn(CC, p) != m2.RMRsIn(CC, p) || m1.RMRsIn(DSM, p) != m2.RMRsIn(DSM, p) {
			t.Errorf("RMR counters diverge for p%d", p)
		}
	}
	for i, c := range m1.Cells() {
		if m1.Value(c) != m2.Value(m2.Cells()[i]) {
			t.Errorf("cell %s value diverges", c.Label())
		}
	}
}

func TestScheduleRestrict(t *testing.T) {
	s := Schedule{{Proc: 0}, {Proc: 1}, {Proc: 2, Crash: true}, {Proc: 1}, {Proc: 0}}
	got := s.Restrict(func(p int) bool { return p != 1 })
	want := Schedule{{Proc: 0}, {Proc: 2, Crash: true}, {Proc: 0}}
	if got.String() != want.String() {
		t.Errorf("Restrict = %q, want %q", got, want)
	}
	ps := s.Procs()
	if len(ps) != 3 || ps[0] != 0 || ps[1] != 1 || ps[2] != 2 {
		t.Errorf("Procs = %v, want [0 1 2]", ps)
	}
}

func TestStepErrors(t *testing.T) {
	m := newTestMachine(t, 1, CC)
	c := m.NewCell("c", memory.Shared, 0)
	prog := ProgramFuncs{RunFunc: func(p *Proc) { p.Read(c) }}

	if _, err := m.Step(0); !errors.Is(err, ErrNotStarted) {
		t.Errorf("step before start: %v", err)
	}
	if err := m.Start([]Program{prog}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(5); err == nil {
		t.Error("step out-of-range proc: want error")
	}
	if _, err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(0); !errors.Is(err, ErrDone) {
		t.Errorf("step finished proc: %v", err)
	}
	if _, err := m.Crash(0); !errors.Is(err, ErrDone) {
		t.Errorf("crash finished proc: %v", err)
	}
}

func TestMaxStepsEnforced(t *testing.T) {
	m, err := New(Config{Procs: 1, Width: 8, Model: CC, MaxSteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	c := m.NewCell("c", memory.Shared, 0)
	prog := ProgramFuncs{RunFunc: func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Add(c, 1)
		}
	}}
	if err := m.Start([]Program{prog}); err != nil {
		t.Fatal(err)
	}
	var last error
	for i := 0; i < 10; i++ {
		if _, last = m.Step(0); last != nil {
			break
		}
	}
	if !errors.Is(last, ErrMaxSteps) {
		t.Errorf("want ErrMaxSteps, got %v", last)
	}
}

func TestBodyPanicSurfaces(t *testing.T) {
	m := newTestMachine(t, 1, CC)
	c := m.NewCell("c", memory.Shared, 0)
	prog := ProgramFuncs{RunFunc: func(p *Proc) {
		p.Read(c)
		panic("algorithm bug")
	}}
	if err := m.Start([]Program{prog}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(0); err == nil {
		t.Fatal("body panic should surface as an error")
	}
}

func TestCloseIdempotentAndKillsParked(t *testing.T) {
	m, err := New(Config{Procs: 2, Width: 8, Model: CC})
	if err != nil {
		t.Fatal(err)
	}
	c := m.NewCell("c", memory.Shared, 0)
	spin := ProgramFuncs{RunFunc: func(p *Proc) {
		p.SpinUntil(c, func(v word.Word) bool { return v == 1 })
	}}
	if err := m.Start([]Program{spin, spin}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(0); err != nil { // p0 parks; p1 still poised
		t.Fatal(err)
	}
	m.Close()
	m.Close() // idempotent
	if _, err := m.Step(1); !errors.Is(err, ErrClosed) {
		t.Errorf("step after close: %v", err)
	}
}

func TestTagAndMark(t *testing.T) {
	m := newTestMachine(t, 1, CC)
	c := m.NewCell("c", memory.Shared, 0)
	prog := ProgramFuncs{RunFunc: func(p *Proc) {
		p.SetTag(1)
		p.Mark("before")
		p.Read(c)
		p.SetTag(2)
		p.Mark("after")
	}}
	if err := m.Start([]Program{prog}); err != nil {
		t.Fatal(err)
	}
	if got := m.Tag(0); got != 1 {
		t.Errorf("tag before step = %d, want 1", got)
	}
	runToCompletion(t, m)
	if got := m.Tag(0); got != 2 {
		t.Errorf("tag after = %d, want 2", got)
	}
	var notes []string
	for _, ev := range m.Trace() {
		if ev.Kind == EvMark {
			notes = append(notes, ev.Note)
		}
	}
	if len(notes) != 2 || notes[0] != "before" || notes[1] != "after" {
		t.Errorf("marks = %v", notes)
	}
}

func TestLastAccessorAndAccessors(t *testing.T) {
	m := newTestMachine(t, 3, CC)
	c := m.NewCell("c", memory.Shared, 0)
	if got := m.LastAccessor(c); got != -1 {
		t.Errorf("fresh cell last accessor = %d, want -1", got)
	}
	progs := make([]Program, 3)
	for i := range progs {
		progs[i] = ProgramFuncs{RunFunc: func(p *Proc) { p.Add(c, 1) }}
	}
	if err := m.Start(progs); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 0} {
		if _, err := m.Step(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.LastAccessor(c); got != 0 {
		t.Errorf("last accessor = %d, want 0", got)
	}
	acc := m.Accessors(c)
	if len(acc) != 2 || acc[0] != 0 || acc[1] != 2 {
		t.Errorf("accessors = %v, want [0 2]", acc)
	}
}

func TestNoTraceStillCounts(t *testing.T) {
	m, err := New(Config{Procs: 1, Width: 8, Model: CC, NoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	c := m.NewCell("c", memory.Shared, 0)
	prog := ProgramFuncs{RunFunc: func(p *Proc) { p.Write(c, 1); p.Write(c, 2) }}
	if err := m.Start([]Program{prog}); err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, m)
	if len(m.Trace()) != 0 {
		t.Error("trace retained despite NoTrace")
	}
	if got := m.RMRsIn(CC, 0); got != 2 {
		t.Errorf("RMRs = %d, want 2", got)
	}
	if got := m.Steps(); got != 2 {
		t.Errorf("steps = %d, want 2", got)
	}
}

func TestCustomOpThroughGate(t *testing.T) {
	m := newTestMachine(t, 1, CC)
	c := m.NewCell("c", memory.Shared, 5)
	clamp := memory.Custom("clamp10", func(cur word.Word) (word.Word, word.Word) {
		if cur > 10 {
			return 10, cur
		}
		return cur + 7, cur
	})
	var rets []word.Word
	prog := ProgramFuncs{RunFunc: func(p *Proc) {
		rets = append(rets, p.Apply(c, clamp)) // 5 -> 12
		rets = append(rets, p.Apply(c, clamp)) // 12 -> 10
	}}
	if err := m.Start([]Program{prog}); err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, m)
	if rets[0] != 5 || rets[1] != 12 || m.Value(c) != 10 {
		t.Errorf("rets=%v final=%d", rets, m.Value(c))
	}
}

// TestParseScheduleRoundTrip checks ParseSchedule as the inverse of
// Schedule.String — the contract failure reproducers rely on.
func TestParseScheduleRoundTrip(t *testing.T) {
	sched := Schedule{{Proc: 0}, {Proc: 3, Crash: true}, {Proc: 12}, {Proc: 1, Crash: true}}
	parsed, err := ParseSchedule(sched.String())
	if err != nil {
		t.Fatalf("ParseSchedule(%q): %v", sched.String(), err)
	}
	if len(parsed) != len(sched) {
		t.Fatalf("parsed %d actions, want %d", len(parsed), len(sched))
	}
	for i := range sched {
		if parsed[i] != sched[i] {
			t.Fatalf("action %d = %+v, want %+v", i, parsed[i], sched[i])
		}
	}
	if got, err := ParseSchedule("  "); err != nil || len(got) != 0 {
		t.Fatalf("blank schedule: %v, %v", got, err)
	}
	for _, bad := range []string{"x", "3^^", "-1", "2 ^"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) did not fail", bad)
		}
	}
}
