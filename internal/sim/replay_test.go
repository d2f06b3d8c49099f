package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rme/internal/memory"
	"rme/internal/word"
)

// chaosProgram is a nontrivial program mixing every operation type, with
// value-dependent branching so that divergent replays are detectable.
type chaosProgram struct {
	id    int
	cells []memory.Cell
	own   memory.Cell
	rng   *rand.Rand // controls the op mix; reseeded per incarnation
	seed  int64
}

func (c *chaosProgram) Run(p *Proc) { c.body(p, 0) }

func (c *chaosProgram) Recover(p *Proc) { c.body(p, 1) }

func (c *chaosProgram) body(p *Proc, incarnation int64) {
	// Local state resets on crash: reseed deterministically per incarnation.
	rng := rand.New(rand.NewSource(c.seed + incarnation))
	for i := 0; i < 12; i++ {
		cell := c.cells[rng.Intn(len(c.cells))]
		switch rng.Intn(6) {
		case 0:
			p.Read(cell)
		case 1:
			p.Write(cell, word.Word(rng.Intn(200)))
		case 2:
			p.Swap(cell, word.Word(rng.Intn(200)))
		case 3:
			v := p.Add(cell, word.Word(rng.Intn(5)))
			if v%2 == 0 { // value-dependent branch
				p.Write(c.own, v)
			}
		case 4:
			p.CAS(cell, word.Word(rng.Intn(4)), word.Word(rng.Intn(200)))
		case 5:
			p.Apply(cell, memory.Custom("xor7", func(cur word.Word) (word.Word, word.Word) {
				return cur ^ 7, cur
			}))
		}
	}
}

func buildChaos(t *testing.T, n int, seed int64) *Machine {
	t.Helper()
	m, err := New(Config{Procs: n, Width: 9, Model: CC})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	shared := make([]memory.Cell, 4)
	for i := range shared {
		shared[i] = m.NewCell(fmt.Sprintf("shared.%d", i), memory.Shared, 0)
	}
	programs := make([]Program, n)
	for i := 0; i < n; i++ {
		own := m.NewCell(fmt.Sprintf("own.%d", i), i, 0)
		cells := append([]memory.Cell{own}, shared...)
		programs[i] = &chaosProgram{id: i, cells: cells, own: own, seed: seed + int64(i)*1000}
	}
	if err := m.Start(programs); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestReplayDeterminismProperty: for random chaotic executions (random
// scheduling, random crashes), replaying the recorded schedule on a fresh
// machine reproduces every observable exactly. This property is what the
// adversary's table-column materialization rests on.
func TestReplayDeterminismProperty(t *testing.T) {
	f := func(seed int64) bool {
		const n = 4
		rng := rand.New(rand.NewSource(seed))
		m1 := buildChaos(t, n, seed)
		for !m1.AllDone() {
			poised := m1.PoisedProcs()
			if len(poised) == 0 {
				break
			}
			if rng.Float64() < 0.08 {
				var live []int
				for p := 0; p < n; p++ {
					if !m1.ProcDone(p) && m1.Crashes(p) < 1 {
						live = append(live, p)
					}
				}
				if len(live) > 0 {
					if _, err := m1.Crash(live[rng.Intn(len(live))]); err != nil {
						t.Fatal(err)
					}
					continue
				}
			}
			if _, err := m1.Step(poised[rng.Intn(len(poised))]); err != nil {
				t.Fatal(err)
			}
		}

		m2 := buildChaos(t, n, seed)
		if err := replaySchedule(m2, m1.Schedule()); err != nil {
			t.Logf("seed %d: replay failed: %v", seed, err)
			return false
		}
		for p := 0; p < n; p++ {
			if m1.ProcSteps(p) != m2.ProcSteps(p) ||
				m1.RMRsIn(CC, p) != m2.RMRsIn(CC, p) ||
				m1.RMRsIn(DSM, p) != m2.RMRsIn(DSM, p) ||
				m1.Crashes(p) != m2.Crashes(p) ||
				m1.ProcDone(p) != m2.ProcDone(p) {
				t.Logf("seed %d: p%d observables diverge", seed, p)
				return false
			}
		}
		for i, c := range m1.Cells() {
			if m1.Value(c) != m2.Value(m2.Cells()[i]) ||
				m1.LastAccessor(c) != m2.LastAccessor(m2.Cells()[i]) {
				t.Logf("seed %d: cell %s diverges", seed, c.Label())
				return false
			}
		}
		tr1, tr2 := m1.Trace(), m2.Trace()
		if len(tr1) != len(tr2) {
			t.Logf("seed %d: trace lengths diverge", seed)
			return false
		}
		for i := range tr1 {
			if tr1[i].String() != tr2[i].String() {
				t.Logf("seed %d: trace diverges at %d", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestScheduleRestrictProperties: quick-checked algebra of Restrict.
func TestScheduleRestrictProperties(t *testing.T) {
	gen := func(seed int64, length uint8) Schedule {
		rng := rand.New(rand.NewSource(seed))
		s := make(Schedule, int(length)%40)
		for i := range s {
			s[i] = Action{Proc: rng.Intn(5), Crash: rng.Intn(7) == 0}
		}
		return s
	}

	// Restricting to everything is the identity.
	ident := func(seed int64, length uint8) bool {
		s := gen(seed, length)
		return s.Restrict(func(int) bool { return true }).String() == s.String()
	}
	if err := quick.Check(ident, nil); err != nil {
		t.Error(err)
	}

	// Restriction is idempotent and commutes with intersection.
	commute := func(seed int64, length uint8, mask uint8) bool {
		s := gen(seed, length)
		keepA := func(p int) bool { return mask&(1<<uint(p%5)) != 0 }
		keepB := func(p int) bool { return p%2 == 0 }
		ab := s.Restrict(keepA).Restrict(keepB)
		ba := s.Restrict(keepB).Restrict(keepA)
		both := s.Restrict(func(p int) bool { return keepA(p) && keepB(p) })
		return ab.String() == ba.String() && ab.String() == both.String()
	}
	if err := quick.Check(commute, nil); err != nil {
		t.Error(err)
	}

	// Restriction removes exactly the excluded processes.
	removes := func(seed int64, length uint8) bool {
		s := gen(seed, length)
		r := s.Restrict(func(p int) bool { return p != 2 })
		for _, a := range r {
			if a.Proc == 2 {
				return false
			}
		}
		return len(r) == len(s)-count(s, 2)
	}
	if err := quick.Check(removes, nil); err != nil {
		t.Error(err)
	}
}

func count(s Schedule, proc int) int {
	n := 0
	for _, a := range s {
		if a.Proc == proc {
			n++
		}
	}
	return n
}

// TestBothModelCountersConsistent: on any random execution, per-process CC
// RMRs never exceed steps plus wake recharges, and DSM RMRs never exceed
// steps (every DSM RMR is a step or a registration/recheck charge).
func TestBothModelCountersConsistent(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		m := buildChaos(t, 3, seed)
		rng := rand.New(rand.NewSource(seed))
		for !m.AllDone() {
			poised := m.PoisedProcs()
			if len(poised) == 0 {
				break
			}
			if _, err := m.Step(poised[rng.Intn(len(poised))]); err != nil {
				t.Fatal(err)
			}
		}
		for p := 0; p < 3; p++ {
			steps := m.ProcSteps(p)
			if cc := m.RMRsIn(CC, p); cc > steps {
				t.Errorf("seed %d: p%d CC RMRs %d > steps %d (chaos has no multi-spin)", seed, p, cc, steps)
			}
			if dsm := m.RMRsIn(DSM, p); dsm > steps {
				t.Errorf("seed %d: p%d DSM RMRs %d > steps %d", seed, p, dsm, steps)
			}
		}
	}
}

// replaySchedule applies a recorded schedule to m action by action. The
// machine-level tests here have no session, so they keep this loop instead
// of mutex.Session.Replay.
func replaySchedule(m *Machine, s Schedule) error {
	for i, a := range s {
		var err error
		if a.Crash {
			_, err = m.Crash(a.Proc)
		} else {
			_, err = m.Step(a.Proc)
		}
		if err != nil {
			return fmt.Errorf("replay action %d (%s): %w", i, a, err)
		}
	}
	return nil
}
