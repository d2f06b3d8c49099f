package sim

import (
	"bytes"
	"math/rand"
	"testing"

	"rme/internal/memory"
	"rme/internal/word"
)

// fpProgram is a small but stateful workload for fingerprint tests: each
// process mixes reads, read-modify-writes and a spin on shared cells with
// process- and iteration-dependent arguments, so distinct interleavings
// produce many distinct canonical states.
func fpProgram(m *Machine, procs, rounds int) []Program {
	a := m.NewCell("fp.a", memory.Shared, 0)
	b := m.NewCell("fp.b", memory.Shared, 0)
	progs := make([]Program, procs)
	for i := 0; i < procs; i++ {
		i := i
		progs[i] = ProgramFuncs{RunFunc: func(p *Proc) {
			for j := 0; j < rounds; j++ {
				v := p.Add(a, word.Word(i*3+j+1))
				if v%3 == 0 {
					p.CAS(b, v%8, v%8+1)
				} else {
					p.Read(b)
				}
				p.Write(b, v%16)
			}
		}}
	}
	return progs
}

func newFPMachine(t *testing.T, procs, rounds int) *Machine {
	t.Helper()
	m, err := New(Config{Procs: procs, Width: 16, Model: CC})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if err := m.Start(fpProgram(m, procs, rounds)); err != nil {
		t.Fatal(err)
	}
	return m
}

// drive applies sched, skipping actions whose process is not poised (so
// arbitrary byte-derived schedules stay applicable), and returns the actions
// actually taken.
func drive(t *testing.T, m *Machine, sched []int) Schedule {
	t.Helper()
	var taken Schedule
	for _, p := range sched {
		if !m.Poised(p) {
			continue
		}
		if _, err := m.Step(p); err != nil {
			t.Fatalf("step %d: %v", p, err)
		}
		taken = append(taken, Action{Proc: p})
	}
	return taken
}

func TestFingerprintDeterministic(t *testing.T) {
	m := newFPMachine(t, 2, 2)
	drive(t, m, []int{0, 1, 0, 1, 1, 0})
	f1 := m.Fingerprint(42)
	f2 := m.Fingerprint(42)
	if f1 != f2 {
		t.Fatalf("same state, same seed: %v != %v", f1, f2)
	}
	if f3 := m.Fingerprint(43); f3 == f1 {
		t.Fatalf("seeds 42 and 43 collide: %v", f1)
	}
	if (Fingerprint{}) == f1 {
		t.Fatal("fingerprint is zero")
	}
}

func TestFingerprintEqualAcrossReplay(t *testing.T) {
	// The same schedule on two separately-constructed machines must agree.
	m1 := newFPMachine(t, 3, 2)
	sched := drive(t, m1, []int{0, 1, 2, 2, 1, 0, 0, 1, 2, 0})
	m2 := newFPMachine(t, 3, 2)
	if err := replaySchedule(m2, sched); err != nil {
		t.Fatal(err)
	}
	if g, w := m2.Fingerprint(7), m1.Fingerprint(7); g != w {
		t.Fatalf("replayed machine fingerprint %v, want %v", g, w)
	}
	if !bytes.Equal(m2.CanonicalState(nil), m1.CanonicalState(nil)) {
		t.Fatal("canonical states differ after identical replay")
	}
}

func TestFingerprintEqualAfterCommutedSteps(t *testing.T) {
	// Both processes read the same cell, then write private cells: the two
	// reads commute, and so do the two writes (disjoint cells), so either
	// interleaving must land on the same canonical state.
	mk := func(order []int) (*Machine, Fingerprint) {
		m, err := New(Config{Procs: 2, Width: 16, Model: CC})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		c := m.NewCell("c", memory.Shared, 7)
		d := []memory.Cell{
			m.NewCell("d0", memory.Shared, 0),
			m.NewCell("d1", memory.Shared, 0),
		}
		progs := make([]Program, 2)
		for i := 0; i < 2; i++ {
			i := i
			progs[i] = ProgramFuncs{RunFunc: func(p *Proc) {
				v := p.Read(c)
				p.Write(d[i], v+word.Word(i))
			}}
		}
		if err := m.Start(progs); err != nil {
			t.Fatal(err)
		}
		drive(t, m, order)
		return m, m.Fingerprint(9)
	}
	m1, mid1 := mk([]int{0, 1})
	m2, mid2 := mk([]int{1, 0})
	if mid1 != mid2 {
		t.Fatalf("commuted reads: fingerprint %v, want %v", mid2, mid1)
	}
	drive(t, m1, []int{0, 1})
	drive(t, m2, []int{1, 0})
	if g, w := m2.Fingerprint(9), m1.Fingerprint(9); g != w {
		t.Fatalf("commuted disjoint writes: fingerprint %v, want %v", g, w)
	}
}

func TestFingerprintDistinguishesStepCounts(t *testing.T) {
	// A write of the value already present changes no memory, but the
	// canonical state must still move: step counts are part of it.
	m, err := New(Config{Procs: 1, Width: 16, Model: CC})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c := m.NewCell("c", memory.Shared, 0)
	err = m.Start([]Program{ProgramFuncs{RunFunc: func(p *Proc) {
		p.Write(c, 0)
		p.Write(c, 0)
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	f1 := m.Fingerprint(1)
	if _, err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if f2 := m.Fingerprint(1); f1 == f2 {
		t.Fatal("identical-memory states at different step counts collide")
	}
}

// TestFingerprintCollisionSanity checks the fingerprint against a full-state
// map model: over 10^5 distinct canonical states gathered from random walks,
// no two distinct encodings may share a fingerprint, and equal encodings must
// agree on it.
func TestFingerprintCollisionSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("collision census is slow")
	}
	const target = 120_000
	rng := rand.New(rand.NewSource(1))
	byCanon := make(map[string]Fingerprint, target)
	byFP := make(map[Fingerprint]string, target)
	for len(byCanon) < target {
		m, err := New(Config{Procs: 4, Width: 16, Model: CC})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Start(fpProgram(m, 4, 4)); err != nil {
			t.Fatal(err)
		}
		for !m.AllDone() {
			ps := m.PoisedProcs()
			if len(ps) == 0 {
				break
			}
			if _, err := m.Step(ps[rng.Intn(len(ps))]); err != nil {
				t.Fatal(err)
			}
			canon := string(m.CanonicalState(nil))
			fp := m.Fingerprint(77)
			if prev, ok := byCanon[canon]; ok {
				if prev != fp {
					t.Fatalf("same canonical state, different fingerprints: %v vs %v", prev, fp)
				}
			} else {
				byCanon[canon] = fp
				if other, ok := byFP[fp]; ok && other != canon {
					t.Fatalf("fingerprint collision %v between distinct states", fp)
				}
				byFP[fp] = canon
			}
		}
		m.Close()
	}
}

// FuzzFingerprint feeds byte-derived schedules to two machines, swapping one
// adjacent pair of independent steps (different processes touching different
// cells, or both reading one cell) on the second machine. Canonical states
// and fingerprints must agree at the end; any divergence means either the
// canonical encoding tracks path-dependent garbage or it misses real state.
func FuzzFingerprint(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2, 2, 1, 0}, uint8(3))
	f.Add([]byte{1, 1, 0, 0, 2, 2}, uint8(0))
	f.Add([]byte{0, 2, 1, 0, 2, 1, 0, 2, 1, 1, 2}, uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, swapAt uint8) {
		const procs = 3
		if len(raw) > 64 {
			raw = raw[:64]
		}
		mk := func() *Machine {
			m, err := New(Config{Procs: procs, Width: 16, Model: CC})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Start(fpProgram(m, procs, 2)); err != nil {
				t.Fatal(err)
			}
			return m
		}
		m1 := mk()
		defer m1.Close()
		var taken Schedule
		for _, b := range raw {
			p := int(b) % procs
			if m1.Poised(p) {
				if _, err := m1.Step(p); err != nil {
					t.Fatal(err)
				}
				taken = append(taken, Action{Proc: p})
			}
		}
		if len(taken) < 2 {
			return
		}
		k := int(swapAt) % (len(taken) - 1)
		// Replay on a fresh machine, probing independence right before the
		// pair: both steps pending, different procs, and footprint-disjoint
		// or both reads.
		m2 := mk()
		defer m2.Close()
		if err := replaySchedule(m2, taken[:k]); err != nil {
			t.Fatal(err)
		}
		a, b := taken[k], taken[k+1]
		swapped := false
		if a.Proc != b.Proc && m2.Poised(a.Proc) && m2.Poised(b.Proc) {
			opA, okA := m2.Pending(a.Proc)
			opB, okB := m2.Pending(b.Proc)
			if okA && okB && !opA.Wait && !opB.Wait &&
				(opA.Cell.CellID() != opB.Cell.CellID() ||
					(opA.Op.IsRead() && opB.Op.IsRead())) {
				swapped = true
			}
		}
		rest := taken[k:]
		if swapped {
			rest = append(Schedule{b, a}, taken[k+2:]...)
		}
		if err := replaySchedule(m2, rest); err != nil {
			t.Fatal(err)
		}
		c1 := m1.CanonicalState(nil)
		c2 := m2.CanonicalState(nil)
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonical states diverge (swapped=%v) after %v", swapped, taken)
		}
		if f1, f2 := m1.Fingerprint(5), m2.Fingerprint(5); f1 != f2 {
			t.Fatalf("fingerprints diverge on equal canonical states: %v vs %v", f1, f2)
		}
	})
}
