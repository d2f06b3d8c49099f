package word

import (
	"sort"
	"testing"
)

// FuzzBitset differentially fuzzes the packed Bitset — the simulator's
// hot-path process-set representation — against a map[int]bool model. The
// op stream is pairs of bytes (opcode, element); after every mutation the
// membership and count views must agree, and at the end the
// ascending-iteration contract of ForEach/AppendTo is checked against the
// sorted model keys.
func FuzzBitset(f *testing.F) {
	f.Add(uint8(5), []byte{0, 0, 0, 1, 1, 0, 2, 0})
	f.Add(uint8(64), []byte{0, 63, 0, 64 % 64, 1, 63, 3, 0})
	f.Add(uint8(130), []byte{0, 129 % 130, 0, 127, 0, 128 % 130, 2, 127})
	f.Fuzz(func(t *testing.T, nRaw uint8, ops []byte) {
		n := int(nRaw)%130 + 1
		b := NewBitset(n)
		model := make(map[int]bool, n)
		for k := 0; k+1 < len(ops); k += 2 {
			i := int(ops[k+1]) % n
			switch ops[k] % 4 {
			case 0:
				b.Set(i)
				model[i] = true
			case 1:
				b.Clear(i)
				delete(model, i)
			case 2:
				if got, want := b.Test(i), model[i]; got != want {
					t.Fatalf("after %d ops: Test(%d) = %v, model %v", k/2, i, got, want)
				}
			case 3:
				b.ClearAll()
				clear(model)
			}
			if got, want := b.Count(), len(model); got != want {
				t.Fatalf("after %d ops: Count() = %d, model %d", k/2, got, want)
			}
		}
		for i := 0; i < n; i++ {
			if got, want := b.Test(i), model[i]; got != want {
				t.Fatalf("final Test(%d) = %v, model %v", i, got, want)
			}
		}
		want := make([]int, 0, len(model))
		for i := range model {
			want = append(want, i)
		}
		sort.Ints(want)
		got := b.AppendTo(nil)
		if len(got) != len(want) {
			t.Fatalf("AppendTo = %v, want %v", got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("AppendTo = %v, want %v (ascending)", got, want)
			}
		}
		var walked []int
		b.ForEach(func(i int) { walked = append(walked, i) })
		if len(walked) != len(got) {
			t.Fatalf("ForEach visited %v, AppendTo %v", walked, got)
		}
		for k := range walked {
			if walked[k] != got[k] {
				t.Fatalf("ForEach visited %v, AppendTo %v", walked, got)
			}
		}
	})
}
