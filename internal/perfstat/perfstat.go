// Package perfstat compares performance samples across runs, benchstat
// style, with the split the 1-CPU build machine forces: deterministic
// counters are compared for exact equality (any difference is a real change
// in what the code computed), while wall-clock series get order statistics —
// median with a binomial confidence interval — and a Mann-Whitney U
// significance test, because scheduler noise makes point comparisons of
// timings meaningless.
package perfstat

import (
	"math"
	"sort"
)

// Summary is the order-statistics view of one metric's sample set.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// Lo/Hi bound the ~95% confidence interval on the median, computed from
	// order statistics via the binomial distribution (no normality
	// assumption). With fewer than ~6 samples the interval is the whole
	// observed range.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Summarize computes the summary of vals. An empty slice yields a zero
// Summary.
func Summarize(vals []float64) Summary {
	n := len(vals)
	if n == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	s := Summary{
		N:      n,
		Min:    sorted[0],
		Max:    sorted[n-1],
		Median: median(sorted),
	}
	s.Lo, s.Hi = medianCI(sorted)
	return s
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianCI returns the order statistics bounding a >= 95% confidence
// interval for the median: the largest k with P(X <= k-1) <= 0.025 for
// X ~ Binomial(n, 1/2) gives the interval (x_(k), x_(n+1-k)) in 1-indexed
// order statistics.
func medianCI(sorted []float64) (lo, hi float64) {
	n := len(sorted)
	// Walk the binomial CDF; pmf(0) = 2^-n, pmf(i+1) = pmf(i)*(n-i)/(i+1).
	pmf := math.Pow(0.5, float64(n))
	cdf := 0.0
	k := 0
	for i := 0; i < n; i++ {
		cdf += pmf
		if cdf > 0.025 {
			break
		}
		k = i + 1
		pmf *= float64(n-i) / float64(i+1)
	}
	loIdx, hiIdx := k, n-1-k
	if loIdx > hiIdx {
		loIdx, hiIdx = 0, n-1
	}
	return sorted[loIdx], sorted[hiIdx]
}

// Percentile is the nearest-rank p-th percentile of an ascending slice, or
// 0 for an empty one.
func Percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*p + 99) / 100
	if i > 0 {
		i--
	}
	return sorted[i]
}

// MannWhitney computes the two-sided p-value of the Mann-Whitney U test for
// samples a and b, using the normal approximation with tie correction and a
// continuity correction. Returns NaN when either sample is empty, and 1 when
// every observation is tied (no evidence of a shift). The approximation is
// conservative for very small samples; the regress gate never acts on it —
// wall-clock deltas are advisory by design.
func MannWhitney(a, b []float64) float64 {
	n1, n2 := float64(len(a)), float64(len(b))
	if n1 == 0 || n2 == 0 {
		return math.NaN()
	}
	type obs struct {
		v     float64
		first bool
	}
	all := make([]obs, 0, len(a)+len(b))
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Average ranks over tie groups; accumulate rank sum of sample a and the
	// tie-correction term sum(t^3 - t).
	n := n1 + n2
	var r1, tieSum float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		t := float64(j - i)
		rank := (float64(i+1) + float64(j)) / 2 // average 1-indexed rank
		for k := i; k < j; k++ {
			if all[k].first {
				r1 += rank
			}
		}
		tieSum += t*t*t - t
		i = j
	}

	u := r1 - n1*(n1+1)/2
	mean := n1 * n2 / 2
	variance := n1 * n2 / 12 * (n + 1 - tieSum/(n*(n-1)))
	if variance <= 0 {
		return 1 // all observations tied
	}
	// Continuity correction toward the mean.
	d := u - mean
	switch {
	case d > 0.5:
		d -= 0.5
	case d < -0.5:
		d += 0.5
	default:
		d = 0
	}
	z := d / math.Sqrt(variance)
	p := math.Erfc(math.Abs(z) / math.Sqrt2) // two-sided
	if p > 1 {
		p = 1
	}
	return p
}

// Delta is one deterministic counter's exact comparison.
type Delta struct {
	Metric string `json:"metric"`
	Old    int64  `json:"old"`
	New    int64  `json:"new"`
	// OldOK/NewOK report presence: a counter that appears on only one side
	// is drift too (the instrumented code changed what it records).
	OldOK bool `json:"old_ok"`
	NewOK bool `json:"new_ok"`
}

// Drift reports whether the counter changed: a differing value or a counter
// present on only one side.
func (d Delta) Drift() bool {
	return !d.OldOK || !d.NewOK || d.Old != d.New
}

// DiffCounters compares two deterministic counter sets exactly, returning
// one Delta per metric in the union of both key sets, sorted by name.
func DiffCounters(old, new map[string]int64) []Delta {
	names := make(map[string]bool, len(old)+len(new))
	for k := range old {
		names[k] = true
	}
	for k := range new {
		names[k] = true
	}
	out := make([]Delta, 0, len(names))
	for name := range names {
		d := Delta{Metric: name}
		d.Old, d.OldOK = old[name]
		d.New, d.NewOK = new[name]
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Metric < out[j].Metric })
	return out
}

// WallDelta is one advisory metric's statistical comparison.
type WallDelta struct {
	Metric string  `json:"metric"`
	Old    Summary `json:"old"`
	New    Summary `json:"new"`
	// DeltaPct is the median shift in percent ((new-old)/old * 100); NaN
	// when the old median is zero.
	DeltaPct float64 `json:"delta_pct"`
	// P is the Mann-Whitney two-sided p-value; NaN when a side is empty.
	P float64 `json:"p"`
}

// Significant reports whether the shift clears the significance level:
// p <= alpha with both sides populated.
func (w WallDelta) Significant(alpha float64) bool {
	return !math.IsNaN(w.P) && w.P <= alpha
}

// CompareWall builds the advisory comparison of one metric's sample sets.
func CompareWall(metric string, old, new []float64) WallDelta {
	w := WallDelta{
		Metric: metric,
		Old:    Summarize(old),
		New:    Summarize(new),
		P:      MannWhitney(old, new),
	}
	if w.Old.Median != 0 {
		w.DeltaPct = (w.New.Median - w.Old.Median) / w.Old.Median * 100
	} else {
		w.DeltaPct = math.NaN()
	}
	return w
}
