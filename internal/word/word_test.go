package word

import (
	"testing"
	"testing/quick"
)

func TestWidthValid(t *testing.T) {
	tests := []struct {
		give Width
		want bool
	}{
		{0, false},
		{1, true},
		{8, true},
		{64, true},
		{65, false},
	}
	for _, tt := range tests {
		if got := tt.give.Valid(); got != tt.want {
			t.Errorf("Width(%d).Valid() = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestWidthMask(t *testing.T) {
	tests := []struct {
		give Width
		want Word
	}{
		{1, 0x1},
		{4, 0xf},
		{8, 0xff},
		{16, 0xffff},
		{63, (1 << 63) - 1},
		{64, ^Word(0)},
	}
	for _, tt := range tests {
		if got := tt.give.Mask(); got != tt.want {
			t.Errorf("Width(%d).Mask() = %#x, want %#x", tt.give, got, tt.want)
		}
	}
}

func TestWidthTrunc(t *testing.T) {
	tests := []struct {
		w    Width
		give Word
		want Word
	}{
		{4, 0, 0},
		{4, 15, 15},
		{4, 16, 0},
		{4, 17, 1},
		{8, 0x1ff, 0xff},
		{64, ^Word(0), ^Word(0)},
	}
	for _, tt := range tests {
		if got := tt.w.Trunc(tt.give); got != tt.want {
			t.Errorf("Width(%d).Trunc(%d) = %d, want %d", tt.w, tt.give, got, tt.want)
		}
	}
}

func TestWidthAddWraps(t *testing.T) {
	var w Width = 4
	if got := w.Add(15, 1); got != 0 {
		t.Errorf("Add(15,1) in 4 bits = %d, want 0", got)
	}
	if got := w.Add(9, 9); got != 2 {
		t.Errorf("Add(9,9) in 4 bits = %d, want 2", got)
	}
}

func TestWidthAddProperties(t *testing.T) {
	// Addition mod 2^w is commutative and truncation is idempotent.
	for _, w := range []Width{1, 3, 8, 17, 32, 64} {
		w := w
		comm := func(a, b Word) bool { return w.Add(a, b) == w.Add(b, a) }
		if err := quick.Check(comm, nil); err != nil {
			t.Errorf("width %d: addition not commutative: %v", w, err)
		}
		idem := func(a Word) bool { return w.Trunc(w.Trunc(a)) == w.Trunc(a) }
		if err := quick.Check(idem, nil); err != nil {
			t.Errorf("width %d: truncation not idempotent: %v", w, err)
		}
		fits := func(a, b Word) bool { return w.Fits(w.Add(a, b)) }
		if err := quick.Check(fits, nil); err != nil {
			t.Errorf("width %d: addition escapes the domain: %v", w, err)
		}
	}
}

func TestLog(t *testing.T) {
	tests := []struct {
		base, n, want int
	}{
		{2, 1, 0},
		{2, 2, 1},
		{2, 3, 1},
		{2, 8, 3},
		{2, 1024, 10},
		{4, 16, 2},
		{4, 63, 2},
		{4, 64, 3},
		{10, 999, 2},
		{10, 1000, 3},
	}
	for _, tt := range tests {
		if got := Log(tt.base, tt.n); got != tt.want {
			t.Errorf("Log(%d, %d) = %d, want %d", tt.base, tt.n, got, tt.want)
		}
	}
}

func TestCeilLog(t *testing.T) {
	tests := []struct {
		base, n, want int
	}{
		{2, 1, 0},
		{2, 2, 1},
		{2, 3, 2},
		{2, 1024, 10},
		{2, 1025, 11},
		{16, 256, 2},
		{16, 257, 3},
		{8, 4096, 4},
	}
	for _, tt := range tests {
		if got := CeilLog(tt.base, tt.n); got != tt.want {
			t.Errorf("CeilLog(%d, %d) = %d, want %d", tt.base, tt.n, got, tt.want)
		}
	}
}

func TestLogConsistency(t *testing.T) {
	// For all n, base^Log(base,n) <= n < base^(Log(base,n)+1), and
	// CeilLog >= Log >= CeilLog-1.
	for base := 2; base <= 16; base++ {
		for n := 1; n <= 5000; n++ {
			l := Log(base, n)
			p := 1
			for i := 0; i < l; i++ {
				p *= base
			}
			if p > n {
				t.Fatalf("base^Log(%d,%d) = %d > n", base, n, p)
			}
			if p*base <= n {
				t.Fatalf("base^(Log(%d,%d)+1) = %d <= n", base, n, p*base)
			}
			cl := CeilLog(base, n)
			if cl < l || cl > l+1 {
				t.Fatalf("CeilLog(%d,%d)=%d inconsistent with Log=%d", base, n, cl, l)
			}
		}
	}
}

func TestTheoreticalLowerBoundShape(t *testing.T) {
	// Monotone decreasing in w for fixed n (wider words can only help), and
	// capped by log n / log log n.
	n := 1 << 20
	prev := TheoreticalLowerBound(4, n)
	for _, w := range []Width{8, 16, 32, 64} {
		cur := TheoreticalLowerBound(w, n)
		if cur > prev+1e-9 {
			t.Errorf("bound increased from w: %v -> %v", prev, cur)
		}
		prev = cur
	}
	// At w = 2 the min is log n / log log n.
	small := TheoreticalLowerBound(2, n)
	big := TheoreticalLowerBound(1, n)
	if small != big {
		t.Errorf("w<=2 should hit the log n/log log n branch: %v vs %v", small, big)
	}
}
