// Package hiding implements the paper's key technical contribution, the
// Process-Hiding Lemma (Lemma 2), constructively.
//
// Setting: groups X_1, ..., X_m of processes are poised to apply operations
// to the same w-bit register (one register per group in the adversary's
// high-contention round; the lemma threads a single value chain y_0, y_1,
// ..., y_m through the groups for uniformity with the paper's statement).
// f_y(A) is the register value after the processes of A ⊆ X_i apply their
// operations, in canonical (ascending id) order, to a register holding y.
//
// The construction (following the proof of Lemma 2):
//
//  1. Partition each group into k parts of size partSize and form the
//     complete k-partite hypergraph; every hyperedge is a candidate set A.
//  2. Bucket hyperedges by the register value they produce from y_{i-1};
//     keep the largest bucket (its value becomes y_i). Since the register
//     has at most 2^ℓ values, the bucket holds at least partSize^k / 2^ℓ
//     hyperedges — the |E| ≥ s^k precondition of Lemma 5 with
//     s = partSize / 2^(ℓ/k).
//  3. Run Lemma 5 on the bucket: it yields a hyperedge family F_i whose
//     support U_i touches each part in at most 2 vertices except for one
//     distinguished part, which it covers in at least 0.6·partSize
//     vertices — a large reservoir of interchangeable processes that all
//     produce the same register value.
//  4. A_i is any hyperedge of F_i; V_i = (U_i \ X_{i,d_i}) ∪ A_i (the alpha
//     processes). The reservoir U_i \ V_i stays out of V_i.
//  5. For any later choice of a "discovered" set D with |D| ≤ δ·|∪V_i|, at
//     least half the groups retain an undiscovered z_i in their reservoir;
//     the hyperedge of F_i through z_i gives B_i = e_i \ {z_i} with
//     f_{y_{i-1}}(B_i ∪ {z_i}) = y_i — the hidden step.
//
// Paper constants: ℓ the register width in bits, k = 4ℓ, partSize =
// ⌊27δℓ⌋, groups of ≥ 108δℓ² processes. Those values satisfy this
// package's parameter checks exactly (ℓ = 1, δ = 1 ⇒ k = 4, partSize = 27,
// group size 108); smaller ad-hoc parameters are accepted whenever the
// derived guarantee |I_D| ≥ m/2 still holds, and rejected otherwise.
package hiding

import (
	"fmt"
	"math"
	"sort"

	"rme/internal/hypergraph"
	"rme/internal/word"
)

// Proc identifies a process (the lemma's elements of X).
type Proc = hypergraph.Vertex

// Apply is the register semantics f: Apply(y, ps) returns f_y(ps), the
// register value after the processes ps (in the given order) apply their
// operations to a register holding y. Implementations must be
// deterministic.
type Apply func(y word.Word, ps []Proc) word.Word

// Config parameterizes the construction.
type Config struct {
	// Groups are the disjoint process groups X_1..X_m; each must contain at
	// least K*PartSize processes.
	Groups [][]Proc
	// Y0 is the register's initial value.
	Y0 word.Word
	// ValueBits is ℓ: the register takes at most 2^ℓ distinct values.
	ValueBits int
	// Delta is δ ≥ 1: how many processes one alpha process can discover
	// while running to completion.
	Delta int
	// K is the number of hypergraph parts per group (the paper uses 4ℓ).
	K int
	// PartSize is the size of each part (the paper uses ⌊27δℓ⌋).
	PartSize int
	// Apply is the register semantics.
	Apply Apply
}

const (
	// eps is the Lemma 4/5 slack ε, the paper's choice.
	eps = 0.2
	// edgeLimit bounds the complete hypergraph enumeration per group.
	edgeLimit = 1 << 21
)

// PaperConfig returns the parameter set the paper's proof uses for a given
// register width ℓ and discovery budget δ: k = 4ℓ parts of ⌊27δℓ⌋ processes,
// i.e. groups of at least 108δℓ² processes.
func PaperConfig(valueBits, delta int) (k, partSize, groupSize int) {
	k = 4 * valueBits
	partSize = int(math.Floor(27 * float64(delta) * float64(valueBits)))
	return k, partSize, k * partSize
}

// Group is the per-group certificate.
type Group struct {
	// Index is the group's position i (1-based in the paper; 0-based here).
	Index int
	// Parts is the k-partition of the group prefix used by the hypergraph.
	Parts [][]Proc
	// YPrev and Y are y_{i-1} and y_i.
	YPrev, Y word.Word
	// A is the ordered set A_i with Apply(YPrev, A) == Y.
	A []Proc
	// V is the alpha set V_i (A ⊆ V ⊆ X_i).
	V []Proc
	// D is the distinguished part index d_i.
	D int
	// F is the hyperedge family from Lemma 5 (support small outside part D).
	F []hypergraph.Edge
	// Reservoir is U_i \ V_i: the interchangeable hidden-candidate
	// processes (all in part D).
	Reservoir []Proc
}

// Certificate is the full Lemma 2 certificate: the value chain and the
// per-group alpha structure, from which hidden processes can be extracted
// for any discovered set D.
type Certificate struct {
	cfg    Config
	Y      []word.Word // y_0..y_m
	Groups []Group
	// MaxD is δ·|∪V_i|: the largest discovered-set size the certificate
	// guarantees coverage for.
	MaxD int
}

// Hidden is the per-group answer for a specific discovered set D.
type Hidden struct {
	Group int
	// Z is the hidden process z_i ∈ X_i \ (V_i ∪ D).
	Z Proc
	// B is B_i ⊆ V_i with Apply(y_{i-1}, sort(B ∪ {Z})) == y_i.
	B []Proc
}

// Construct runs the Lemma 2 construction and returns its certificate.
func Construct(cfg Config) (*Certificate, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	m := len(cfg.Groups)
	s := float64(cfg.PartSize) / math.Exp2(float64(cfg.ValueBits)/float64(cfg.K))

	cert := &Certificate{cfg: cfg, Y: make([]word.Word, 0, m+1)}
	cert.Y = append(cert.Y, cfg.Y0)
	y := cfg.Y0

	for i, group := range cfg.Groups {
		parts := partition(group, cfg.K, cfg.PartSize)
		hgParts := make([][]hypergraph.Vertex, len(parts))
		for j := range parts {
			hgParts[j] = parts[j]
		}
		complete, err := hypergraph.Complete(hgParts, edgeLimit)
		if err != nil {
			return nil, fmt.Errorf("group %d: %w", i, err)
		}

		// Bucket hyperedges by resulting register value; keep the largest.
		buckets := make(map[word.Word][]hypergraph.Edge)
		for _, e := range complete.Edges {
			v := cfg.Apply(y, e)
			buckets[v] = append(buckets[v], e)
		}
		if len(buckets) > 1<<uint(cfg.ValueBits) {
			return nil, fmt.Errorf("group %d: register produced %d distinct values, exceeding 2^%d",
				i, len(buckets), cfg.ValueBits)
		}
		yi, best := pickLargestBucket(buckets)

		sub := &hypergraph.Partite{Parts: hgParts, Edges: best}
		res, err := hypergraph.Lemma5(sub, s, eps)
		if err != nil {
			return nil, fmt.Errorf("group %d: %w", i, err)
		}

		g := buildGroup(i, parts, y, yi, res)
		cert.Groups = append(cert.Groups, g)
		cert.Y = append(cert.Y, yi)
		y = yi
	}

	totalV := 0
	for _, g := range cert.Groups {
		totalV += len(g.V)
	}
	cert.MaxD = cfg.Delta * totalV

	// The m/2 guarantee: every fully-covered reservoir eats at least
	// minReservoir elements of D, so at most MaxD/minReservoir groups can
	// lose their hidden candidate.
	minRes := cert.Groups[0].reservoirSize()
	for _, g := range cert.Groups[1:] {
		if r := g.reservoirSize(); r < minRes {
			minRes = r
		}
	}
	if minRes == 0 || cert.MaxD/minRes > m/2 {
		return nil, fmt.Errorf(
			"hiding: parameters too small: reservoirs of %d cannot absorb |D| ≤ %d across %d groups (need ≥ m/2 survivors); use PaperConfig-scale parameters",
			minRes, cert.MaxD, m)
	}
	return cert, nil
}

func (g *Group) reservoirSize() int { return len(g.Reservoir) }

// ForD returns, for a discovered set D with |D| ≤ MaxD, hidden processes
// for at least half the groups: for each returned group, z_i avoids V_i and
// D, and B_i ∪ {z_i} reproduces y_i from y_{i-1}.
func (c *Certificate) ForD(d []Proc) ([]Hidden, error) {
	if len(d) > c.MaxD {
		return nil, fmt.Errorf("hiding: |D| = %d exceeds guaranteed budget %d", len(d), c.MaxD)
	}
	dset := make(map[Proc]bool, len(d))
	for _, p := range d {
		dset[p] = true
	}
	var out []Hidden
	for gi := range c.Groups {
		g := &c.Groups[gi]
		z, ok := pickHidden(g, dset)
		if !ok {
			continue
		}
		e := edgeThrough(g, z)
		if e == nil {
			return nil, fmt.Errorf("hiding: group %d: no hyperedge through reservoir process %d", gi, z)
		}
		b := make([]Proc, 0, len(e)-1)
		for _, v := range e {
			if v != z {
				b = append(b, v)
			}
		}
		out = append(out, Hidden{Group: gi, Z: z, B: b})
	}
	if len(out)*2 < len(c.Groups) {
		return nil, fmt.Errorf("hiding: only %d/%d groups retained a hidden process (guarantee violated)",
			len(out), len(c.Groups))
	}
	return out, nil
}

// Verify checks every guarantee of the certificate against the register
// semantics: the A-chain reproduces the value chain, the set inclusions
// hold, and for the worst-case adversarial D (greedily eating reservoirs)
// ForD still succeeds with valid hidden steps.
func (c *Certificate) Verify() error {
	cfg := c.cfg
	for i, g := range c.Groups {
		if got := cfg.Apply(g.YPrev, g.A); got != g.Y {
			return fmt.Errorf("group %d: f_y(A) = %d, want %d", i, got, g.Y)
		}
		if c.Y[i] != g.YPrev || c.Y[i+1] != g.Y {
			return fmt.Errorf("group %d: value chain broken", i)
		}
		vset := toSet(g.V)
		for _, p := range g.A {
			if !vset[p] {
				return fmt.Errorf("group %d: A ⊄ V (process %d)", i, p)
			}
		}
		gset := toSet(cfg.Groups[i])
		for _, p := range g.V {
			if !gset[p] {
				return fmt.Errorf("group %d: V ⊄ X (process %d)", i, p)
			}
		}
		for _, p := range g.Reservoir {
			if vset[p] {
				return fmt.Errorf("group %d: reservoir process %d inside V", i, p)
			}
		}
	}

	// Adversarial D: consume whole reservoirs group by group until the
	// budget runs out — the worst case for the m/2 bound.
	var d []Proc
	budget := c.MaxD
	for _, g := range c.Groups {
		if budget < len(g.Reservoir) {
			d = append(d, g.Reservoir[:budget]...)
			break
		}
		d = append(d, g.Reservoir...)
		budget -= len(g.Reservoir)
	}
	hidden, err := c.ForD(d)
	if err != nil {
		return fmt.Errorf("adversarial D: %w", err)
	}
	return c.VerifyHidden(d, hidden)
}

// VerifyHidden checks the ForD output against the lemma's conclusion.
func (c *Certificate) VerifyHidden(d []Proc, hidden []Hidden) error {
	dset := toSet(d)
	for _, h := range hidden {
		g := &c.Groups[h.Group]
		if dset[h.Z] {
			return fmt.Errorf("group %d: hidden process %d is in D", h.Group, h.Z)
		}
		if toSet(g.V)[h.Z] {
			return fmt.Errorf("group %d: hidden process %d is in V", h.Group, h.Z)
		}
		vset := toSet(g.V)
		for _, p := range h.B {
			if !vset[p] {
				return fmt.Errorf("group %d: B ⊄ V (process %d)", h.Group, p)
			}
		}
		steps := append(append([]Proc{}, h.B...), h.Z)
		sortProcs(steps)
		if got := c.cfg.Apply(g.YPrev, steps); got != g.Y {
			return fmt.Errorf("group %d: f_y(B ∪ {z}) = %d, want %d — z is not hidden", h.Group, got, g.Y)
		}
	}
	return nil
}

// --- internals ---------------------------------------------------------------

func validate(cfg Config) error {
	if len(cfg.Groups) == 0 {
		return fmt.Errorf("hiding: no groups")
	}
	if cfg.Apply == nil {
		return fmt.Errorf("hiding: nil Apply")
	}
	if cfg.Delta < 1 {
		return fmt.Errorf("hiding: delta must be >= 1, got %d", cfg.Delta)
	}
	if cfg.ValueBits < 0 || cfg.ValueBits > 62 {
		return fmt.Errorf("hiding: value bits %d out of range", cfg.ValueBits)
	}
	if cfg.K < 1 || cfg.PartSize < 1 {
		return fmt.Errorf("hiding: need K >= 1 and PartSize >= 1 (got %d, %d)", cfg.K, cfg.PartSize)
	}
	// Lemma 4/5 need parts within s(1+ε): partSize <= (partSize/2^(ℓ/k))(1+ε).
	if math.Exp2(float64(cfg.ValueBits)/float64(cfg.K)) > 1+eps+1e-9 {
		return fmt.Errorf("hiding: K = %d too small for ℓ = %d with ε = %v (need 2^(ℓ/K) <= 1+ε, e.g. K = 4ℓ with ε = 0.2)",
			cfg.K, cfg.ValueBits, eps)
	}
	need := cfg.K * cfg.PartSize
	seen := make(map[Proc]bool)
	for i, g := range cfg.Groups {
		if len(g) < need {
			return fmt.Errorf("hiding: group %d has %d processes, need >= K*PartSize = %d", i, len(g), need)
		}
		for _, p := range g {
			if seen[p] {
				return fmt.Errorf("hiding: process %d in multiple groups", p)
			}
			seen[p] = true
		}
	}
	return nil
}

// partition splits the first k*partSize processes of the group (ascending)
// into k contiguous parts.
func partition(group []Proc, k, partSize int) [][]Proc {
	sorted := append([]Proc{}, group...)
	sortProcs(sorted)
	parts := make([][]Proc, k)
	for j := 0; j < k; j++ {
		parts[j] = sorted[j*partSize : (j+1)*partSize]
	}
	return parts
}

// pickLargestBucket returns the value with the most hyperedges
// (deterministic tie-break on the value).
func pickLargestBucket(buckets map[word.Word][]hypergraph.Edge) (word.Word, []hypergraph.Edge) {
	var (
		bestVal  word.Word
		bestList []hypergraph.Edge
		first    = true
	)
	for v, list := range buckets {
		if first || len(list) > len(bestList) || (len(list) == len(bestList) && v < bestVal) {
			bestVal, bestList, first = v, list, false
		}
	}
	return bestVal, bestList
}

func buildGroup(i int, parts [][]Proc, yPrev, y word.Word, res *hypergraph.Lemma5Result) Group {
	support := res.Support(len(parts))
	a := append([]Proc{}, res.F[0]...)
	sortProcs(a)

	// V = (U \ X_d) ∪ A.
	vset := make(map[Proc]bool)
	for j, u := range support {
		if j == res.D {
			continue
		}
		for _, p := range u {
			vset[p] = true
		}
	}
	for _, p := range a {
		vset[p] = true
	}
	v := setToSlice(vset)

	// Reservoir = U ∩ X_d minus V (i.e. minus A's vertex in part d).
	var reservoir []Proc
	for _, p := range support[res.D] {
		if !vset[p] {
			reservoir = append(reservoir, p)
		}
	}
	sortProcs(reservoir)

	return Group{
		Index:     i,
		Parts:     parts,
		YPrev:     yPrev,
		Y:         y,
		A:         a,
		V:         v,
		D:         res.D,
		F:         res.F,
		Reservoir: reservoir,
	}
}

// pickHidden returns the first reservoir process outside D.
func pickHidden(g *Group, dset map[Proc]bool) (Proc, bool) {
	for _, p := range g.Reservoir {
		if !dset[p] {
			return p, true
		}
	}
	return 0, false
}

// edgeThrough finds a hyperedge of F whose part-D vertex is z.
func edgeThrough(g *Group, z Proc) hypergraph.Edge {
	for _, e := range g.F {
		if e[g.D] == z {
			return e
		}
	}
	return nil
}

func toSet(ps []Proc) map[Proc]bool {
	set := make(map[Proc]bool, len(ps))
	for _, p := range ps {
		set[p] = true
	}
	return set
}

func setToSlice(set map[Proc]bool) []Proc {
	out := make([]Proc, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sortProcs(out)
	return out
}

func sortProcs(ps []Proc) {
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
}
