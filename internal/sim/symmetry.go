package sim

import (
	"fmt"

	"rme/internal/memory"
	"rme/internal/word"
)

// Symmetry declares a process-renaming symmetry group for one machine
// construction. An algorithm that is equivariant under a set of process
// permutations registers, for each non-identity group element, how the
// permutation acts on its cell layout: which cell moves where and how cell
// values transform. The checker then collapses states that are equal up to a
// declared renaming by minimizing the fingerprint over the group (see
// Machine.VariantFingerprint and mutex.Session.CanonicalStateKey).
//
// Declaring a permutation is a soundness claim: renaming the processes of any
// execution by π must yield another legal execution reaching the π-image
// state. The claim is validated structurally at compile time (bijections,
// DSM-owner equivariance) and empirically by the checker's oracle tests,
// which compare canonical fingerprints against states reached by actually
// running renamed schedules.
type Symmetry struct {
	n        int
	perms    []*Perm
	pidCells map[int]bool
}

// NewSymmetry starts an empty declaration for an n-process machine. A
// declaration with no added permutations behaves exactly like no declaration.
func NewSymmetry(n int) *Symmetry {
	return &Symmetry{n: n, pidCells: make(map[int]bool)}
}

// PIDCell marks a cell as pid-coded: its value is either 0 ("none") or a
// process id plus one, the repo-wide discipline for ownership words. Every
// declared permutation remaps such values as 0 → 0, id+1 → π(id)+1 unless it
// installs an explicit MapValue for the cell.
func (s *Symmetry) PIDCell(id int) { s.pidCells[id] = true }

// Add appends one non-identity group element. The declared set plus the
// identity should form a group (closed under composition and inverse);
// missing elements only cost reduction, never soundness, since every declared
// element is checked individually.
func (s *Symmetry) Add(p *Perm) {
	if len(p.procs) != s.n {
		panic(fmt.Sprintf("sim: permutation over %d processes added to a %d-process symmetry", len(p.procs), s.n))
	}
	s.perms = append(s.perms, p)
}

// Order returns the declared group order, counting the identity.
func (s *Symmetry) Order() int {
	if s == nil {
		return 1
	}
	return 1 + len(s.perms)
}

// Perm is one declared group element: a process bijection plus its induced
// action on cells and cell values. Cells not mentioned are fixed; values of
// cells without a value map (and not pid-coded) are unchanged.
type Perm struct {
	procs []int
	cells map[int]int
	vals  map[int]func(word.Word) word.Word
}

// NewPerm declares a group element renaming process p to procs[p].
func NewPerm(procs []int) *Perm {
	cp := make([]int, len(procs))
	copy(cp, procs)
	return &Perm{procs: cp, cells: make(map[int]int), vals: make(map[int]func(word.Word) word.Word)}
}

// MapCell declares that the cell with allocation index from occupies index
// to's role after renaming (e.g. phase[i] → phase[π(i)]).
func (p *Perm) MapCell(from, to int) {
	if from == to {
		return
	}
	p.cells[from] = to
}

// MapValue declares how the value stored in the given cell transforms under
// the renaming (e.g. a tree node's victim word flipping sides). The map must
// be a bijection on the cell's reachable values and must also apply to the
// value arguments of pending Write/Swap/CAS operations targeting the cell.
func (p *Perm) MapValue(cell int, f func(word.Word) word.Word) { p.vals[cell] = f }

// Permutations returns all n! permutations of [0,n) in lexicographic order;
// the first entry is the identity. Intended for full-S_n declarations at
// model-checking scale (n ≤ 8 or so).
func Permutations(n int) [][]int {
	var out [][]int
	cur := make([]int, 0, n)
	used := make([]bool, n)
	var rec func()
	rec = func() {
		if len(cur) == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			used[v] = true
			cur = append(cur, v)
			rec()
			cur = cur[:len(cur)-1]
			used[v] = false
		}
	}
	rec()
	return out
}

// symPerm is a permutation compiled against one machine's cell layout:
// dense arrays instead of maps, with pid-coded value remaps materialized.
type symPerm struct {
	procTo   []int // procTo[p] = π(p)
	procFrom []int // procFrom[q] = π⁻¹(q)
	cellTo   []int // cellTo[c] = index whose role cell c takes
	cellFrom []int // cellFrom[j] = cell whose state lands at index j
	vals     []func(word.Word) word.Word
}

// symPerms compiles (and caches) the declaration against this machine. The
// cache is keyed by the *Symmetry identity: sessions hold one declaration for
// the machine's lifetime, so the compare is a pointer check.
func (m *Machine) symPerms(sym *Symmetry) []symPerm {
	if sym == nil || len(sym.perms) == 0 {
		return nil
	}
	if m.symFor == sym {
		return m.symCache
	}
	compiled := make([]symPerm, len(sym.perms))
	for i, p := range sym.perms {
		compiled[i] = m.compilePerm(sym, p)
	}
	m.symFor, m.symCache = sym, compiled
	return compiled
}

func (m *Machine) compilePerm(sym *Symmetry, p *Perm) symPerm {
	n := m.cfg.Procs
	if len(p.procs) != n {
		panic(fmt.Sprintf("sim: symmetry permutation covers %d processes, machine has %d", len(p.procs), n))
	}
	sp := symPerm{
		procTo:   append([]int(nil), p.procs...),
		procFrom: make([]int, n),
		cellTo:   make([]int, len(m.cells)),
		cellFrom: make([]int, len(m.cells)),
		vals:     make([]func(word.Word) word.Word, len(m.cells)),
	}
	seen := make([]bool, n)
	for q := range sp.procFrom {
		sp.procFrom[q] = -1
	}
	for pr, to := range sp.procTo {
		if to < 0 || to >= n || seen[to] {
			panic(fmt.Sprintf("sim: symmetry process map %v is not a bijection on [0,%d)", sp.procTo, n))
		}
		seen[to] = true
		sp.procFrom[to] = pr
	}
	for c := range sp.cellTo {
		sp.cellTo[c] = c
	}
	for from, to := range p.cells {
		if from < 0 || from >= len(m.cells) || to < 0 || to >= len(m.cells) {
			panic(fmt.Sprintf("sim: symmetry cell map %d→%d out of range (have %d cells)", from, to, len(m.cells)))
		}
		sp.cellTo[from] = to
	}
	for j := range sp.cellFrom {
		sp.cellFrom[j] = -1
	}
	for c, to := range sp.cellTo {
		if sp.cellFrom[to] != -1 {
			panic(fmt.Sprintf("sim: symmetry cell map sends both %q and %q to %q",
				m.cells[sp.cellFrom[to]].label, m.cells[c].label, m.cells[to].label))
		}
		sp.cellFrom[to] = c
		// DSM-owner equivariance: a cell owned by process p must land on a
		// cell owned by π(p), and shared cells stay shared, or RMR-visible
		// structure would differ between a state and its image.
		oldOwner, newOwner := m.cells[c].owner, m.cells[to].owner
		switch {
		case oldOwner == memory.Shared:
			if newOwner != memory.Shared {
				panic(fmt.Sprintf("sim: symmetry maps shared cell %q to owned cell %q", m.cells[c].label, m.cells[to].label))
			}
		case newOwner == memory.Shared || newOwner != sp.procTo[oldOwner]:
			panic(fmt.Sprintf("sim: symmetry maps cell %q (owner %d) to %q (owner %d); want owner %d",
				m.cells[c].label, oldOwner, m.cells[to].label, newOwner, sp.procTo[oldOwner]))
		}
	}
	procTo := sp.procTo
	for c := range sp.vals {
		if f, ok := p.vals[c]; ok {
			sp.vals[c] = f
			continue
		}
		if sym.pidCells[c] {
			label := m.cells[c].label
			sp.vals[c] = func(v word.Word) word.Word {
				if v == 0 {
					return 0
				}
				id := int(v) - 1
				if uint64(v) > uint64(len(procTo)) {
					panic(fmt.Sprintf("sim: pid-coded cell %q holds %d, not a process id + 1", label, v))
				}
				return word.Word(procTo[id] + 1)
			}
		}
	}
	return sp
}

// canonicalStateUnder appends the canonical encoding of the machine's state
// as seen through one group element (nil = identity, byte-identical to
// CanonicalState). The encoding of state s under π equals the plain encoding
// of the state reached by the π-renamed execution — that equivalence is what
// the checker's symmetry oracle tests pin per algorithm.
func (m *Machine) canonicalStateUnder(sp *symPerm, buf []byte) []byte {
	buf = appendWord(buf, fpVersionTag)
	buf = append(buf, fpTagCells)
	buf = appendWord(buf, uint64(len(m.cells)))
	for j := range m.cells {
		c := m.cells[j]
		if sp != nil {
			c = m.cells[sp.cellFrom[j]]
		}
		v := c.val
		if sp != nil {
			if f := sp.vals[c.id]; f != nil {
				v = f(v)
			}
		}
		buf = appendWord(buf, uint64(v))
	}
	for q := range m.procs {
		pr := m.procs[q]
		if sp != nil {
			pr = m.procs[sp.procFrom[q]]
		}
		buf = append(buf, fpTagProc)
		var flags uint64
		if pr.done {
			flags |= 1
		}
		if pr.parked {
			flags |= 2
		}
		buf = appendWord(buf, flags)
		buf = appendWord(buf, uint64(pr.crashes))
		buf = appendWord(buf, uint64(pr.steps))
		buf = appendWord(buf, uint64(int64(pr.tag)))
		switch {
		case pr.pending == nil:
			buf = append(buf, fpTagNone)
		case pr.pending.isWait():
			buf = append(buf, fpTagWait)
			buf = appendWord(buf, uint64(len(pr.pending.multi)))
			for _, wc := range pr.pending.multi {
				id := wc.id
				if sp != nil {
					id = sp.cellTo[id]
				}
				buf = appendWord(buf, uint64(id))
			}
		default:
			buf = append(buf, fpTagStep)
			op := pr.pending.op
			id := pr.pending.cell.id
			arg, arg2 := op.Arg, op.Arg2
			if sp != nil {
				// A pending operation's value arguments live in the target
				// cell's value domain, so they transform with the cell. Only
				// value-carrying opcodes remap: an Add delta or a custom op's
				// arguments are not cell values (declarations must not put
				// value maps on cells driven by those, beyond pid-preserving
				// uses like Add(0) keep-alives — guarded by the oracle tests).
				if f := sp.vals[id]; f != nil {
					switch op.Code {
					case memory.OpWrite, memory.OpSwap:
						arg = f(arg)
					case memory.OpCAS:
						arg, arg2 = f(arg), f(arg2)
					}
				}
				id = sp.cellTo[id]
			}
			buf = appendWord(buf, uint64(id))
			buf = appendWord(buf, uint64(op.Code))
			buf = appendWord(buf, uint64(arg))
			buf = appendWord(buf, uint64(arg2))
			if pr.pending.spin != nil {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
			if name := op.Name; name != "" {
				buf = append(buf, fpTagOpName)
				buf = appendWord(buf, uint64(len(name)))
				buf = append(buf, name...)
			}
		}
	}
	return buf
}

// NumVariants returns the number of group elements a declaration yields on
// this machine, counting the identity (1 when sym is nil or empty).
func (m *Machine) NumVariants(sym *Symmetry) int { return 1 + len(m.symPerms(sym)) }

// VariantProcMap returns the old→new process map of group element i (i = 0 is
// the identity and returns nil). The returned slice is shared with the
// machine's compiled cache and must not be modified.
func (m *Machine) VariantProcMap(sym *Symmetry, i int) []int {
	if i == 0 {
		return nil
	}
	return m.symPerms(sym)[i-1].procTo
}

// CanonicalStateVariant appends the canonical state encoding as seen through
// group element i (element 0 is the identity, byte-identical to
// CanonicalState). Exposed for the symmetry oracle tests.
func (m *Machine) CanonicalStateVariant(sym *Symmetry, i int, buf []byte) []byte {
	if i == 0 {
		return m.canonicalStateUnder(nil, buf)
	}
	sps := m.symPerms(sym)
	return m.canonicalStateUnder(&sps[i-1], buf)
}

// VariantFingerprint hashes the canonical state as seen through group element
// i under the given seed; element 0 equals Fingerprint. Like Fingerprint it
// reuses the machine's scratch buffer and must run on the controller
// goroutine.
func (m *Machine) VariantFingerprint(seed uint64, sym *Symmetry, i int) Fingerprint {
	if i == 0 {
		return m.Fingerprint(seed)
	}
	sps := m.symPerms(sym)
	m.fpScratch = m.canonicalStateUnder(&sps[i-1], m.fpScratch[:0])
	return hashBuf(seed, m.fpScratch)
}
