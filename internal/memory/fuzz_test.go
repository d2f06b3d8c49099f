package memory

import (
	"math/big"
	"testing"

	"rme/internal/word"
)

// refApply recomputes Apply's contract with math/big arithmetic mod 2^w — an
// independent reference that cannot share Apply's masking bugs.
func refApply(op Op, cur word.Word, w word.Width) (next, ret word.Word) {
	mod := new(big.Int).Lsh(big.NewInt(1), uint(w))
	red := func(v word.Word) word.Word {
		r := new(big.Int).Mod(new(big.Int).SetUint64(v), mod)
		return r.Uint64()
	}
	cur = red(cur)
	switch op.Code {
	case OpRead:
		return cur, cur
	case OpWrite:
		return red(op.Arg), 0
	case OpSwap:
		return red(op.Arg), cur
	case OpAdd:
		sum := new(big.Int).Add(new(big.Int).SetUint64(cur), new(big.Int).SetUint64(op.Arg))
		return sum.Mod(sum, mod).Uint64(), cur
	case OpCAS:
		if cur == red(op.Arg) {
			return red(op.Arg2), cur
		}
		return cur, cur
	default:
		panic("unreachable")
	}
}

// FuzzApplyTruncation differentially checks Apply — the single source of
// truth for operation semantics in both runtimes — against the big.Int
// reference at every width from 1 to 64 bits, and asserts the w-bit domain
// invariant the paper's model depends on: no operation can ever leave more
// than w bits of state in a cell.
func FuzzApplyTruncation(f *testing.F) {
	f.Add(uint8(1), uint64(0), uint64(0), uint64(0), uint8(8))
	f.Add(uint8(4), uint64(1), uint64(0), ^uint64(0), uint8(1))
	f.Add(uint8(5), uint64(0x100), uint64(0xff), uint64(0), uint8(8))
	f.Add(uint8(4), ^uint64(0), uint64(0), ^uint64(0), uint8(64))
	f.Add(uint8(3), uint64(1)<<63, uint64(0), uint64(5), uint8(63))
	f.Fuzz(func(t *testing.T, code uint8, arg, arg2, cur uint64, wRaw uint8) {
		w := word.Width(wRaw%64 + 1)
		op := Op{Code: OpCode(code%5 + 1), Arg: arg, Arg2: arg2}
		next, ret := Apply(op, cur, w)
		if !w.Fits(next) {
			t.Fatalf("%s at w=%d left %d bits: next=%#x", op, w, 64-uint64(w), next)
		}
		wantNext, wantRet := refApply(op, cur, w)
		if next != wantNext || ret != wantRet {
			t.Fatalf("%s(cur=%#x, w=%d) = (next=%#x, ret=%#x), reference (%#x, %#x)",
				op, cur, w, next, ret, wantNext, wantRet)
		}
		// A CAS must succeed (return its expected value) iff the truncated
		// expected matched the truncated current value.
		if op.Code == OpCAS {
			matched := w.Trunc(cur) == w.Trunc(arg)
			if succeeded := ret == w.Trunc(arg); succeeded != matched {
				t.Fatalf("CAS success=%v but expected-matches-current=%v (cur=%#x arg=%#x w=%d)",
					succeeded, matched, cur, arg, w)
			}
		}
	})
}

// FuzzCustomTruncation checks that custom transitions — the paper's
// "arbitrary atomic operations" — cannot smuggle extra bits into a cell:
// whatever the transition returns is truncated to w bits before it is stored.
func FuzzCustomTruncation(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint8(8))
	f.Add(^uint64(0), ^uint64(0), uint8(3))
	f.Fuzz(func(t *testing.T, cur, leak uint64, wRaw uint8) {
		w := word.Width(wRaw%64 + 1)
		op := Custom("leak", func(v word.Word) (word.Word, word.Word) {
			return v | leak, v
		})
		next, ret := Apply(op, cur, w)
		if !w.Fits(next) {
			t.Fatalf("custom op stored %#x at w=%d", next, w)
		}
		if want := w.Trunc(w.Trunc(cur) | leak); next != want {
			t.Fatalf("custom next = %#x, want %#x", next, want)
		}
		if ret != w.Trunc(cur) {
			t.Fatalf("custom saw cur=%#x, want the truncated %#x", ret, w.Trunc(cur))
		}
	})
}

// FuzzNativeEnvDifferential interprets the fuzz input as an operation
// script against a real nativeEnv — Read/Write/Swap/Add/CAS through
// sync/atomic, Apply(OpCustom) through the CAS shim — and cross-checks every
// return value and every resulting cell state against big.Int arithmetic
// mod 2^w. This is the bridge proof that the hardware backend implements the
// same w-bit word model the simulator does, at every width from 1 to 64 bits.
func FuzzNativeEnvDifferential(f *testing.F) {
	f.Add(uint8(8), []byte{0, 0, 0, 0, 3, 0, 255, 1, 4, 0, 255, 1})
	f.Add(uint8(64), []byte{1, 1, 7, 7, 5, 1, 3, 0, 2, 2, 9, 9})
	f.Add(uint8(63), []byte{6, 0, 1, 1, 6, 1, 0, 0, 0, 2, 0, 0})
	f.Add(uint8(12), []byte{5, 0, 200, 0, 6, 2, 2, 2, 4, 1, 0, 0, 3, 1, 1, 0})
	f.Fuzz(func(t *testing.T, wRaw uint8, script []byte) {
		w := word.Width(wRaw%64 + 1)
		m, err := NewNativeMem(w)
		if err != nil {
			t.Fatal(err)
		}
		const nCells = 3
		var cells [nCells]Cell
		var model [nCells]word.Word
		for i := range cells {
			cells[i] = m.NewCell("f", Shared, 0)
		}
		env := m.Env(0)
		mod := new(big.Int).Lsh(big.NewInt(1), uint(w))
		for step := 0; len(script) >= 4; step++ {
			code, ci, a1, a2 := script[0], script[1], script[2], script[3]
			script = script[4:]
			i := int(ci) % nCells
			c := cells[i]
			// Spread the two argument bytes across the word so wide widths
			// see high bits too.
			arg := word.Word(a1)<<56 | word.Word(a2)<<31 | word.Word(a1)<<8 | word.Word(a2)
			arg2 := word.Word(a2)<<56 | word.Word(a1)<<31 | word.Word(a2)<<8 | word.Word(a1)
			check := func(what string, got, want word.Word) {
				t.Helper()
				if got != want {
					t.Fatalf("step %d %s on cell %d (w=%d): got %#x, want %#x", step, what, i, w, got, want)
				}
			}
			// Opcodes 0 and 6 both read, which keeps the seven-way decoding
			// of existing corpus entries.
			switch code % 7 {
			case 0, 6:
				check("Read", env.Read(c), model[i])
			case 1:
				env.Write(c, arg)
				model[i], _ = refApply(Write(arg), model[i], w)
			case 2:
				ret := env.Swap(c, arg)
				var want word.Word
				model[i], want = refApply(Swap(arg), model[i], w)
				check("Swap return", ret, want)
			case 3:
				ret := env.Add(c, arg)
				var want word.Word
				model[i], want = refApply(Add(arg), model[i], w)
				check("Add return", ret, want)
			case 4:
				ret := env.CAS(c, arg, arg2)
				var want word.Word
				model[i], want = refApply(CAS(arg, arg2), model[i], w)
				check("CAS return", ret, want)
			case 5:
				op := Custom("affine", func(v word.Word) (word.Word, word.Word) {
					return v*3 + arg, v
				})
				ret := env.Apply(c, op)
				check("Custom return", ret, model[i])
				next := new(big.Int).SetUint64(model[i])
				next.Mul(next, big.NewInt(3))
				next.Add(next, new(big.Int).SetUint64(arg))
				model[i] = next.Mod(next, mod).Uint64()
			}
		}
		for i, c := range cells {
			if got := env.Read(c); got != model[i] {
				t.Fatalf("final state of cell %d (w=%d): got %#x, model %#x", i, w, got, model[i])
			}
		}
	})
}
