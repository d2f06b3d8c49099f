// Package word implements the w-bit word domain of the paper's shared-memory
// model: every base object stores a value from a domain of size 2^w.
//
// All arithmetic on simulated memory cells is performed modulo 2^w so that an
// algorithm genuinely cannot exploit more than w bits of state per object,
// which is the resource the paper's lower bound is about.
package word

import (
	"fmt"
	"math"
	"math/bits"
)

// Word is the value stored in a single shared-memory cell. Simulated cells
// truncate it to the configured width; the native runtime uses the full 64
// bits (w = 64).
type Word = uint64

// MaxBits is the widest supported word. The simulator represents cell values
// in a uint64, so widths beyond 64 bits are modelled by using several cells,
// exactly as a real machine would have to.
const MaxBits = 64

// Width describes the number of bits per shared-memory cell.
type Width uint

// Valid reports whether the width is in the supported range [1, MaxBits].
func (w Width) Valid() bool { return w >= 1 && w <= MaxBits }

// Mask returns the bitmask selecting the low w bits.
func (w Width) Mask() Word {
	if w >= MaxBits {
		return ^Word(0)
	}
	return (Word(1) << w) - 1
}

// Trunc truncates v to the low w bits.
func (w Width) Trunc(v Word) Word { return v & w.Mask() }

// Add returns (a + b) mod 2^w.
func (w Width) Add(a, b Word) Word { return w.Trunc(a + b) }

// Fits reports whether v is representable in w bits.
func (w Width) Fits(v Word) bool { return v == w.Trunc(v) }

// Bit returns the word with only bit i set, or an error if i is out of range
// for the width.
func (w Width) Bit(i int) (Word, error) {
	if i < 0 || i >= int(w) {
		return 0, fmt.Errorf("word: bit %d out of range for %d-bit word", i, w)
	}
	return Word(1) << uint(i), nil
}

// PopCount returns the number of set bits in v.
func PopCount(v Word) int { return bits.OnesCount64(v) }

// Bits returns the indices of set bits in v, ascending.
func Bits(v Word) []int {
	if v == 0 {
		return nil
	}
	out := make([]int, 0, bits.OnesCount64(v))
	for v != 0 {
		i := bits.TrailingZeros64(v)
		out = append(out, i)
		v &^= Word(1) << uint(i)
	}
	return out
}

// Log computes floor(log_base(n)) for base ≥ 2, n ≥ 1; it is the number of
// complete levels of a base-ary arbitration tree over n leaves, and the shape
// function of the paper's tradeoff min(log_w n, log n/log log n).
func Log(base, n int) int {
	if base < 2 || n < 1 {
		return 0
	}
	l, p := 0, 1
	for p <= n/base {
		p *= base
		l++
	}
	return l
}

// CeilLog computes ceil(log_base(n)) for base ≥ 2, n ≥ 1.
func CeilLog(base, n int) int {
	if base < 2 || n <= 1 {
		return 0
	}
	l, p := 0, 1
	for p < n {
		p *= base
		l++
	}
	return l
}

// TheoreticalLowerBound evaluates the shape of the Theorem 1 bound
// min(log_w n, log n / log log n) (unscaled; constants are asymptotic).
func TheoreticalLowerBound(w Width, n int) float64 {
	if n < 4 {
		return 0
	}
	ln := math.Log(float64(n))
	ll := ln / math.Log(ln)
	if uint(w) < 2 {
		return ll
	}
	lw := ln / math.Log(float64(uint(w)))
	return math.Min(lw, ll)
}
