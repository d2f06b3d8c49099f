package perfstat

import (
	"math"
	"math/rand"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{5, 1, 3})
	if s.N != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("odd-n summary wrong: %+v", s)
	}
	s = Summarize([]float64{4, 2})
	if s.Median != 3 {
		t.Fatalf("even-n median: got %v want 3", s.Median)
	}
	// Tiny samples: the CI is the whole range.
	if s.Lo != 2 || s.Hi != 4 {
		t.Fatalf("tiny-n CI should span the range: %+v", s)
	}
	if got := Summarize(nil); got.N != 0 {
		t.Fatalf("empty summary: %+v", got)
	}
}

func TestPercentile(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		p    int
		want int64
	}{{50, 50}, {90, 90}, {99, 100}, {100, 100}} {
		if got := Percentile(s, tc.p); got != tc.want {
			t.Errorf("p%d = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %d", got)
	}
}

// TestMedianCIKnownValues pins the binomial order-statistic interval against
// hand-checked values: for n=10, P(X<=1) = 11/1024 ≈ 0.0107 <= 0.025 and
// P(X<=2) ≈ 0.0547 > 0.025, so k=2 and the CI is (x_(3), x_(8)).
func TestMedianCIKnownValues(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s := Summarize(vals)
	if s.Lo != 3 || s.Hi != 8 {
		t.Fatalf("n=10 CI: got [%v, %v], want [3, 8]", s.Lo, s.Hi)
	}
}

func TestMannWhitneyEdgeCases(t *testing.T) {
	if p := MannWhitney(nil, []float64{1}); !math.IsNaN(p) {
		t.Fatalf("empty side: got %v, want NaN", p)
	}
	if p := MannWhitney([]float64{5, 5, 5}, []float64{5, 5}); p != 1 {
		t.Fatalf("all tied: got %v, want 1", p)
	}
	// Identical distributions: p should be large.
	a := []float64{10, 11, 12, 13, 14}
	if p := MannWhitney(a, a); p < 0.9 {
		t.Fatalf("self-comparison: got p=%v, want ~1", p)
	}
}

// TestMannWhitneySeparation: clearly shifted samples must test significant,
// overlapping noise from one distribution must not (with a seeded generator,
// so the assertion is stable).
func TestMannWhitneySeparation(t *testing.T) {
	shiftA := []float64{100, 101, 102, 99, 100, 101, 98, 100}
	shiftB := []float64{150, 151, 152, 149, 150, 151, 148, 150}
	if p := MannWhitney(shiftA, shiftB); p > 0.01 {
		t.Fatalf("disjoint samples: got p=%v, want < 0.01", p)
	}

	rng := rand.New(rand.NewSource(7))
	same := func() []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = 100 + rng.NormFloat64()
		}
		return out
	}
	if p := MannWhitney(same(), same()); p < 0.05 {
		t.Fatalf("same-distribution samples tested significant: p=%v", p)
	}
}

func TestDiffCounters(t *testing.T) {
	old := map[string]int64{"steps": 100, "rmr_cc": 40, "gone": 1}
	new := map[string]int64{"steps": 100, "rmr_cc": 41, "fresh": 2}
	ds := DiffCounters(old, new)
	if len(ds) != 4 {
		t.Fatalf("want union of 4 metrics, got %d: %+v", len(ds), ds)
	}
	byName := map[string]Delta{}
	for _, d := range ds {
		byName[d.Metric] = d
	}
	if byName["steps"].Drift() {
		t.Fatal("equal counter flagged as drift")
	}
	if !byName["rmr_cc"].Drift() || !byName["gone"].Drift() || !byName["fresh"].Drift() {
		t.Fatalf("missed drift: %+v", byName)
	}
	// Sorted output keeps reports diff-able.
	for i := 1; i < len(ds); i++ {
		if ds[i-1].Metric >= ds[i].Metric {
			t.Fatalf("deltas not sorted: %+v", ds)
		}
	}
}

func TestCompareWall(t *testing.T) {
	w := CompareWall("wall_ms", []float64{100, 102, 98, 101}, []float64{201, 199, 200, 202})
	if math.Abs(w.DeltaPct-98.76) > 1 {
		t.Fatalf("delta pct: got %v, want ~+99%%", w.DeltaPct)
	}
	if !w.Significant(0.05) {
		t.Fatalf("doubled median not significant: %+v", w)
	}
	if CompareWall("x", []float64{0, 0}, []float64{1, 1}).DeltaPct == CompareWall("x", []float64{0, 0}, []float64{1, 1}).DeltaPct {
		// NaN != NaN: zero old median must yield NaN, not Inf or a number.
		t.Fatal("zero old median should give NaN delta")
	}
}
