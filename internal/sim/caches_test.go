package sim

import (
	"slices"
	"testing"

	"rme/internal/word"
)

// FuzzCachesAgree builds two machines from one construction and drives the
// first with a fuzz-chosen schedule and the second with the same schedule
// minus one fuzz-chosen process's actions — the shape of the adversary's
// erasure audit. CachesAgree under a fuzz-chosen process mask must be true
// exactly when CachedCells is equal on both machines for every process in
// the mask. Bytes with the high bit set deliver crash steps; the low seven
// bits name the process, and process counts above 64 put the mask across
// two bitset words.
func FuzzCachesAgree(f *testing.F) {
	// Each seed names a process whose cache set the erasure changes; the
	// mask includes it (disagreement) or leaves it out (agreement), in the
	// first bitset word and in the second.
	f.Add(uint8(3), []byte{2, 0, 3, 3, 2, 130, 2, 2, 3, 2, 128, 0, 0, 128}, uint8(3), []byte{0x01})
	f.Add(uint8(3), []byte{2, 0, 3, 3, 2, 130, 2, 2, 3, 2, 128, 0, 0, 128}, uint8(3), []byte{0x06})
	f.Add(uint8(69), []byte{195, 16, 67, 67, 16, 195, 41, 67, 144, 41, 67}, uint8(41), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0x08})
	f.Add(uint8(69), []byte{69, 197, 33, 10, 138, 69, 10, 69, 10, 10, 10, 69, 10, 138, 10}, uint8(69), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0x1f})
	f.Add(uint8(127), []byte{93, 126, 93, 93, 102, 126}, uint8(93), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x40})
	f.Add(uint8(127), []byte{16, 144, 16, 10, 16, 126, 126, 126, 10, 126}, uint8(16), []byte{0xff, 0xfe, 0xfe})
	f.Fuzz(func(t *testing.T, nRaw uint8, raw []byte, drop uint8, maskRaw []byte) {
		procs := int(nRaw)%128 + 1
		if len(raw) > 128 {
			raw = raw[:128]
		}
		erased := int(drop) % procs
		m1 := newFPMachine(t, procs, 2)
		m2 := newFPMachine(t, procs, 2)
		for _, b := range raw {
			p := int(b&0x7f) % procs
			crash := b&0x80 != 0
			fuzzAct(t, m1, p, crash)
			if p != erased {
				fuzzAct(t, m2, p, crash)
			}
		}
		mask := word.NewBitset(procs)
		for q := 0; q < procs && q/8 < len(maskRaw); q++ {
			if maskRaw[q/8]&(1<<(q%8)) != 0 {
				mask.Set(q)
			}
		}
		want := true
		mask.ForEach(func(q int) {
			if !slices.Equal(m1.CachedCells(q), m2.CachedCells(q)) {
				want = false
			}
		})
		if got := m1.CachesAgree(m2, mask); got != want {
			t.Fatalf("CachesAgree(mask %v) = %v, CachedCells agree = %v", mask.AppendTo(nil), got, want)
		}
		if got := m2.CachesAgree(m1, mask); got != want {
			t.Fatalf("CachesAgree is not symmetric: reversed = %v, want %v", got, want)
		}
	})
}

// fuzzAct steps or crashes p when it can take that action and ignores the
// byte otherwise, so arbitrary byte strings stay applicable.
func fuzzAct(t *testing.T, m *Machine, p int, crash bool) {
	t.Helper()
	var err error
	switch {
	case crash && !m.ProcDone(p):
		_, err = m.Crash(p)
	case !crash && m.Poised(p):
		_, err = m.Step(p)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestCachesAgreeDifferentConstructions pins that machines with different
// cell layouts never agree, whatever the mask.
func TestCachesAgreeDifferentConstructions(t *testing.T) {
	a := newFPMachine(t, 2, 1)
	b := newTestMachine(t, 2, CC)
	if err := b.Start([]Program{ProgramFuncs{RunFunc: func(*Proc) {}}, ProgramFuncs{RunFunc: func(*Proc) {}}}); err != nil {
		t.Fatal(err)
	}
	if a.CachesAgree(b, word.NewBitset(2)) {
		t.Error("machines with different cell counts agree")
	}
	if !a.CachesAgree(a, word.NewBitset(2)) {
		t.Error("a machine disagrees with itself")
	}
}
