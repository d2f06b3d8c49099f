// Package watree implements the repository's headline upper bound: a
// recoverable mutual exclusion algorithm in the style of Katzan and Morrison
// [19] with O(log_w n) RMRs per passage on w-bit words.
//
// # Construction
//
// Processes climb an arbitration tree of fan-out f ≤ w. Each node carries:
//
//   - reg: a w-bit fetch-and-add register with one bit per child slot. A
//     process registers by FAA(2^slot) — the operation the paper highlights:
//     it simultaneously publishes the caller and returns the exact set of
//     prior registrants. Because only slot s's subtree ever touches bit s
//     (and the FAA is guarded by reading the bit first), a recovering
//     process re-reads reg to learn whether its registration happened:
//     FAA on your own bit is an ID-carrying, crash-recoverable operation.
//     This is precisely the mechanism that defeats the process-hiding
//     adversary when w is large (paper §1.1) — nothing can be hidden,
//     because every registrant leaves a distinct bit.
//   - own: the owner's slot+1 (0 = free). This cell is authoritative for
//     ownership and is what recovery reads; waiters do not spin on it in
//     the common case, so a handoff does not invalidate every waiter.
//   - grant[s]: a per-slot doorbell. A releasing owner deregisters with
//     FAA(-2^slot) — whose return value is an atomic snapshot of the
//     remaining registrants — writes own to the successor, and rings only
//     the successor's doorbell: wakeups are targeted, keeping the
//     per-level cost O(1). Doorbells are hints, not ownership: a woken
//     process validates against own, so stale or duplicate rings (which
//     crash recovery may produce) are harmless.
//
// With fan-out f = w the tree has depth ceil(log_w n), matching the paper's
// upper bound; with f = 2 it degrades to a Θ(log n) recoverable tournament;
// with w ≥ n the tree is a single node and every passage costs O(1) RMRs —
// the Katzan–Morrison headline.
//
// # Recoverability
//
// Per-process persistent state is a phase cell plus one unary exit-progress
// flag per level. Entry needs no progress record — a recovering climber
// re-runs the whole climb, and acquire is owner-idempotent because the
// climber still holds every level below the one in flight. Exit progress
// must persist (see descend). The remaining steps are idempotent or guarded
// by readable shared state:
//
//   - registration / deregistration FAAs are guarded by the caller's bit;
//   - ownership is re-derived from own; a first registrant that crashed
//     before recording ownership finds own == 0 and claims it by CAS
//     (no rival can hold the node: later registrants defer to the bits);
//   - an interrupted handoff is completed by the recovering releaser: if
//     own still names it, the successor choice is recomputed from reg;
//     if own already names a successor, the doorbell is re-rung — possibly
//     spuriously, which validation absorbs.
//
// A same-slot teammate can never be confused with the caller at a node:
// levels are acquired bottom-up and released top-down, so while a process
// is mid-protocol at a node it still holds the child node, which every
// teammate would have to own first.
package watree

import (
	"fmt"
	"math/bits"
	"strconv"

	"rme/internal/memory"
	"rme/internal/mutex"
	"rme/internal/word"
)

// Per-process persistent phase values.
const (
	phaseIdle word.Word = iota
	phaseTrying
	phaseExiting
	phaseFastTrying
	phaseFastExiting
)

// Lock is the w-ary recoverable arbitration tree algorithm.
type Lock struct {
	// fanout overrides the tree fan-out; 0 means min(w, n).
	fanout int
	// fast enables the adaptive root fast path (see WithFastPath).
	fast bool
}

var _ mutex.Algorithm = Lock{}

// Option configures the algorithm.
type Option interface {
	apply(*Lock)
}

type fanoutOption int

func (f fanoutOption) apply(l *Lock) { l.fanout = int(f) }

// WithFanout fixes the tree fan-out instead of the default min(w, n).
// Fan-out 2 yields the recoverable binary tournament (Θ(log n) RMRs).
func WithFanout(f int) Option { return fanoutOption(f) }

type fastPathOption struct{}

func (fastPathOption) apply(l *Lock) { l.fast = true }

// WithFastPath enables the adaptive fast path of Katzan–Morrison's
// algorithm (whose RMR complexity is O(min(k, log_w n)) for point
// contention k): the root node reserves one extra slot, serialized by an
// ID-carrying CAS on a fastOwner cell, through which an uncontended
// process acquires in O(1) RMRs instead of climbing the whole tree. If the
// fast CAS is contended, the process falls back to the ordinary climb.
// The extra slot consumes one register bit, so the effective fan-out is
// capped at w-1.
func WithFastPath() Option { return fastPathOption{} }

// New returns the algorithm.
func New(opts ...Option) Lock {
	var l Lock
	for _, o := range opts {
		o.apply(&l)
	}
	return l
}

// Name identifies the algorithm (including the fan-out and fast-path
// policies).
func (l Lock) Name() string {
	name := "watree"
	if l.fanout != 0 {
		name += "(f=" + strconv.Itoa(l.fanout) + ")"
	}
	if l.fast {
		name += "+fast"
	}
	return name
}

// Recoverable reports true.
func (Lock) Recoverable() bool { return true }

// Fanout returns the fan-out the algorithm will use on a machine with the
// given word width for n processes.
func (l Lock) Fanout(w word.Width, n int) int {
	f := l.fanout
	if f == 0 {
		f = int(w)
		if l.fast && f == int(w) {
			f = int(w) - 1 // reserve one register bit for the fast slot
		}
		if n < f {
			f = n
		}
		if f < 2 {
			f = 2
		}
	}
	return f
}

// Make builds the tree. Requirements: w ≥ 2 and fan-out f with 2 ≤ f ≤ w
// and slot ids f+1 representable in a word.
func (l Lock) Make(mem memory.Allocator, n int) (mutex.Instance, error) {
	if n < 1 {
		return nil, fmt.Errorf("watree: need at least 1 process, got %d", n)
	}
	w := mem.Width()
	if w < 2 {
		return nil, fmt.Errorf("watree: need word width >= 2, got %d", w)
	}
	f := l.Fanout(w, n)
	if f < 2 {
		f = 2
	}
	slots := f
	if l.fast {
		slots = f + 1 // the root carries the extra fast slot
	}
	if slots > int(w) {
		return nil, fmt.Errorf("watree: %d root slots exceed word width %d (one bit per slot)", slots, w)
	}
	if !w.Fits(word.Word(slots + 1)) {
		return nil, fmt.Errorf("watree: slot ids up to %d do not fit %d-bit words", slots, w)
	}
	if l.fast && !w.Fits(phaseFastExiting) {
		return nil, fmt.Errorf("watree: fast-path phases do not fit %d-bit words", w)
	}
	depth := word.CeilLog(f, n)

	in := &instance{n: n, fanout: f, depth: depth, fast: l.fast && depth > 0}
	// span[k] = f^k for addressing; f^depth >= n so spans fit int.
	in.span = make([]int, depth+1)
	in.span[0] = 1
	for k := 1; k <= depth; k++ {
		in.span[k] = in.span[k-1] * f
	}
	in.levels = make([][]node, depth)
	for lvl := 0; lvl < depth; lvl++ {
		// Level lvl (0 = root) has one node per f^(depth-lvl)-process block.
		blockSize := in.span[depth-lvl]
		count := (n + blockSize - 1) / blockSize
		in.levels[lvl] = make([]node, count)
		for i := 0; i < count; i++ {
			prefix := "watree.L" + strconv.Itoa(lvl) + "." + strconv.Itoa(i)
			grants := f
			if in.fast && lvl == 0 {
				grants = f + 1 // the root's extra fast-slot doorbell
			}
			nd := node{
				reg:   mem.NewCell(prefix+".reg", memory.Shared, 0),
				own:   mem.NewCell(prefix+".own", memory.Shared, 0),
				grant: make([]memory.Cell, grants),
			}
			// A doorbell belongs to a slot's subtree; when that subtree is a
			// single process, place the doorbell in its DSM segment so the
			// wait is a local spin.
			subtree := in.span[depth-lvl-1]
			for s := 0; s < grants; s++ {
				owner := memory.Shared
				if s < f && subtree == 1 && i*f+s < n {
					owner = i*f + s
				}
				nd.grant[s] = mem.NewCell(prefix+".grant."+strconv.Itoa(s), owner, 0)
			}
			in.levels[lvl][i] = nd
		}
	}
	in.phase = make([]memory.Cell, n)
	in.xlvl = make([][]memory.Cell, n)
	if in.fast {
		in.fastOwner = mem.NewCell("watree.fastOwner", memory.Shared, 0)
		in.xfast = make([]memory.Cell, n)
	}
	for i := 0; i < n; i++ {
		s := strconv.Itoa(i)
		in.phase[i] = mem.NewCell("watree.phase."+s, i, phaseIdle)
		in.xlvl[i] = make([]memory.Cell, depth)
		for k := 0; k < depth; k++ {
			in.xlvl[i][k] = mem.NewCell("watree.xlvl."+s+"."+strconv.Itoa(k), i, 0)
		}
		if in.fast {
			in.xfast[i] = mem.NewCell("watree.xfast."+s, i, 0)
		}
	}
	return in, nil
}

// node is one arbitration point.
type node struct {
	reg   memory.Cell   // one registration bit per child slot (FAA register)
	own   memory.Cell   // owner's slot+1, or 0 (authoritative; recovery reads it)
	grant []memory.Cell // per-slot handoff doorbells
}

type instance struct {
	n      int
	fanout int
	depth  int
	fast   bool
	span   []int // span[k] = fanout^k
	levels [][]node
	phase  []memory.Cell
	xlvl   [][]memory.Cell // unary exit progress flags, one per level
	// Fast path state (nil unless fast): the CAS-serialized owner of the
	// root's extra slot, and per-process fast-exit progress flags.
	fastOwner memory.Cell
	xfast     []memory.Cell
}

var _ mutex.Instance = (*instance)(nil)

// watree deliberately does NOT implement mutex.SymmetricInstance. Its
// registration words pack one bit per child slot and its own/grant handoff
// addresses successors by slot position: the FAA return value's bit ORDER is
// protocol state, so renaming two processes does not merely relocate cell
// contents — it would have to reorder bits inside a single word, and even a
// subtree swap changes which register bit a process's whole path touches
// while the handoff scan (lowest-set-bit first) is not equivariant under
// that reordering. The checker's differential suite instead pins that
// running watree with -symmetry on is byte-identical to off (no declared
// group means the canonical key degenerates to the plain key).

func (in *instance) Bind(env memory.Env) mutex.Handle {
	return &handle{env: env, in: in, id: env.ID()}
}

type handle struct {
	env memory.Env
	in  *instance
	id  int
}

var _ mutex.Handle = (*handle)(nil)

// nodeAt returns the node and child slot process h.id uses at tree level
// lvl (0 = root, depth-1 = leaves).
func (h *handle) nodeAt(lvl int) (*node, int) {
	below := h.in.span[h.in.depth-lvl-1] // processes per child subtree
	idx := h.id / (below * h.in.fanout)
	slot := (h.id / below) % h.in.fanout
	return &h.in.levels[lvl][idx], slot
}

// Lock persists intent and acquires the critical section: through the
// adaptive fast path when it is enabled and uncontended, otherwise by
// climbing the tree.
func (h *handle) Lock() {
	if h.in.fast {
		h.env.Write(h.in.phase[h.id], phaseFastTrying)
		if h.env.CAS(h.in.fastOwner, 0, word.Word(h.id+1)) == 0 {
			h.acquireNode(&h.in.levels[0][0], h.in.fanout)
			return
		}
		// Contended: fall back to the ordinary climb. The fast CAS left no
		// trace (it failed), so only the phase needs rewriting.
	}
	h.env.Write(h.in.phase[h.id], phaseTrying)
	h.climb()
}

// climb acquires levels leaf-to-root. It is re-entrant: acquire at an
// already-owned level returns after two reads, so recovery simply re-climbs
// from the leaves without needing per-level progress records.
func (h *handle) climb() {
	for k := 0; k < h.in.depth; k++ {
		h.acquire(h.in.depth - 1 - k)
	}
}

// acquire wins the node at a tree level.
func (h *handle) acquire(lvl int) {
	nd, slot := h.nodeAt(lvl)
	h.acquireNode(nd, slot)
}

// acquireNode wins one node from the given slot. The function is
// re-entrant: it is the single code path for fresh acquisition and crash
// recovery, for tree slots and for the root's fast slot alike.
func (h *handle) acquireNode(nd *node, slot int) {
	bit := word.Word(1) << uint(slot)
	mine := word.Word(slot + 1)

	// Guarded registration. The FAA return is an atomic snapshot: if no one
	// was registered, the node is (or is about to become) free and we claim
	// it below. The claim itself must be a CAS — a rival that registered
	// right after us also sees own == 0 until our claim lands, and a blind
	// write could clobber its successful claim.
	if h.env.Read(nd.reg)&bit == 0 {
		h.env.Add(nd.reg, bit)
	}
	for {
		switch cur := h.env.Read(nd.own); {
		case cur == mine:
			// Granted by a releaser (who wrote own before ringing), or our
			// own earlier claim.
			return
		case cur == 0:
			// Free node (either we registered first and crashed before
			// recording, or a releaser freed it after our registration).
			if h.env.CAS(nd.own, 0, mine) == 0 {
				return
			}
		case h.env.Read(nd.reg)&(word.Word(1)<<uint(cur-1)) != 0:
			// cur's registration bit is still set: a live owner that has not
			// started releasing. Its eventual deregistration FAA will see
			// our bit, so the handoff chain is guaranteed to ring our
			// doorbell: park on it alone (targeted wakeup).
			h.env.SpinUntil(nd.grant[slot], func(v word.Word) bool { return v == 1 })
			h.env.Write(nd.grant[slot], 0) // consume; validated by the loop
		default:
			// cur is mid-release (bit already cleared): its single pending
			// own write will settle the cell; wait just for that.
			cur := cur
			h.env.SpinUntil(nd.own, func(v word.Word) bool { return v != cur })
		}
	}
}

// Unlock releases whichever path Lock took and returns to idle.
func (h *handle) Unlock() {
	if h.in.fast && h.env.Read(h.in.phase[h.id]) == phaseFastTrying {
		h.unlockFast()
		return
	}
	for k := 0; k < h.in.depth; k++ {
		h.env.Write(h.in.xlvl[h.id][k], 0)
	}
	h.env.Write(h.in.phase[h.id], phaseExiting)
	h.descend(0)
	h.env.Write(h.in.phase[h.id], phaseIdle)
}

// unlockFast releases the root's fast slot. The fast-exit flag plays the
// same role as the per-level exit flags: the root release is only safe to
// re-run while fastOwner still names this process, and fastOwner is
// cleared only after the release completed.
func (h *handle) unlockFast() {
	h.env.Write(h.in.xfast[h.id], 0)
	h.env.Write(h.in.phase[h.id], phaseFastExiting)
	h.finishFastExit()
}

// finishFastExit completes the fast exit from the persistent flags;
// re-entrant (used by Unlock and by crash recovery).
func (h *handle) finishFastExit() {
	if h.env.Read(h.in.xfast[h.id]) == 0 {
		h.releaseNode(&h.in.levels[0][0], h.in.fanout)
		h.env.Write(h.in.xfast[h.id], 1)
	}
	// Only the fast owner clears the cell, and nobody else can write it
	// while it names us, so check-then-write is race-free.
	if h.env.Read(h.in.fastOwner) == word.Word(h.id+1) {
		h.env.Write(h.in.fastOwner, 0)
	}
	h.env.Write(h.in.phase[h.id], phaseIdle)
}

// descend releases levels top-down, recording unary progress after each
// release. Unlike the climb, the descent must persist per-level progress:
// release(k) is only safe to re-run while the level-k+1 node is still held
// (that is what rules out a same-slot teammate owning node k and being
// hijacked by our recovery), and that stops being true once level k+1 has
// been released. The flag is written after release(k) completes, so a crash
// between the two re-runs release(k) while its guard still holds.
func (h *handle) descend(from int) {
	for k := from; k < h.in.depth; k++ {
		h.release(k)
		h.env.Write(h.in.xlvl[h.id][k], 1)
	}
}

// release deregisters from the node at a tree level.
func (h *handle) release(lvl int) {
	nd, slot := h.nodeAt(lvl)
	h.releaseNode(nd, slot)
}

// releaseNode deregisters from one node and hands ownership to a
// registered successor (lowest set bit), or frees the node. Re-entrant.
func (h *handle) releaseNode(nd *node, slot int) {
	bit := word.Word(1) << uint(slot)
	mine := word.Word(slot + 1)

	if h.env.Read(nd.reg)&bit != 0 {
		// Deregister; the FAA return is an atomic snapshot of the remaining
		// registrants, exactly the successor set.
		neg := h.env.Width().Trunc(^bit + 1) // -bit mod 2^w
		old := h.env.Add(nd.reg, neg)
		h.handoff(nd, old&^bit)
		return
	}
	// Recovery: our bit is already clear.
	switch cur := h.env.Read(nd.own); {
	case cur == mine:
		// The handoff write is still pending; recompute the successor set
		// from the current registrants (all of whom are waiting: none can
		// advance while own still names us).
		h.handoff(nd, h.env.Read(nd.reg))
	case cur != 0:
		// Our own write may have landed without the doorbell ring. Re-ring
		// the named owner; if the ring is spurious (our release completed
		// long ago and the chain moved on), doorbell validation absorbs it.
		h.env.Write(nd.grant[cur-1], 1)
	default:
		// own == 0: the node was freed (by us, or later); nothing to do.
	}
}

// handoff passes node ownership to the lowest registered slot (writing own
// first, then ringing only that slot's doorbell), or frees the node.
func (h *handle) handoff(nd *node, rest word.Word) {
	if rest == 0 {
		h.env.Write(nd.own, 0)
		return
	}
	succ := bits.TrailingZeros64(rest)
	h.env.Write(nd.own, word.Word(succ+1))
	h.env.Write(nd.grant[succ], 1)
}

// Recover resumes the interrupted super-passage from the persistent phase
// cell: the climb is re-run in full (acquire is owner-idempotent), the
// descent resumes from the first level whose progress flag is clear, and
// the fast path re-derives its position from fastOwner (an ID-carrying
// CAS leaves ownership readable).
func (h *handle) Recover() mutex.RecoverStatus {
	switch h.env.Read(h.in.phase[h.id]) {
	case phaseTrying:
		h.climb()
		return mutex.RecoverAcquired
	case phaseExiting:
		h.descend(h.exitProgress())
		h.env.Write(h.in.phase[h.id], phaseIdle)
		return mutex.RecoverReleased
	case phaseFastTrying:
		if h.env.Read(h.in.fastOwner) == word.Word(h.id+1) {
			// Our fast CAS took effect: resume the (re-entrant) fast acquire.
			h.acquireNode(&h.in.levels[0][0], h.in.fanout)
			return mutex.RecoverAcquired
		}
		// The crash preempted the CAS (or it lost): retry the whole entry.
		h.Lock()
		return mutex.RecoverAcquired
	case phaseFastExiting:
		h.finishFastExit()
		return mutex.RecoverReleased
	default:
		return mutex.RecoverIdle
	}
}

// exitProgress counts the leading set exit flags (set in order, so the
// first clear flag is the resume level).
func (h *handle) exitProgress() int {
	for k := 0; k < h.in.depth; k++ {
		if h.env.Read(h.in.xlvl[h.id][k]) == 0 {
			return k
		}
	}
	return h.in.depth
}
