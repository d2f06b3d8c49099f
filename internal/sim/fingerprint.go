package sim

import (
	"encoding/binary"
	"fmt"
)

// Fingerprint is a seeded 128-bit hash of a machine's canonical state. Two
// machines with the same construction that reach the same canonical state
// (see CanonicalState) compare fingerprint-equal; the model checker uses
// fingerprints as visited-set keys so that interleavings converging on the
// same state are explored once.
type Fingerprint struct {
	Hi, Lo uint64
}

// String renders the fingerprint as 32 hex digits.
func (f Fingerprint) String() string { return fmt.Sprintf("%016x%016x", f.Hi, f.Lo) }

// Less orders fingerprints lexicographically by (Hi, Lo). The symmetry
// reduction keys the visited set by the Less-minimum over a state's variant
// fingerprints, so the order only needs to be total and deterministic.
func (f Fingerprint) Less(g Fingerprint) bool {
	if f.Hi != g.Hi {
		return f.Hi < g.Hi
	}
	return f.Lo < g.Lo
}

// Mix folds an extra value (e.g. monitor state kept outside the machine)
// into the fingerprint, returning a new fingerprint. Mixing is order
// sensitive and injective in v for a fixed receiver lane state.
func (f Fingerprint) Mix(v uint64) Fingerprint {
	var h stateHasher
	h.h1, h.h2 = f.Hi, f.Lo
	h.word(v)
	return h.sum()
}

// stateHasher is a two-lane incremental hash over 64-bit words. Lane 1 is an
// xor–multiply–xorshift chain, one multiply per word; lane 2 is a
// multiply–xorshift accumulator (splitmix-style finalizer). Each lane's
// step is a bijection of the word for a fixed lane state, so inputs that
// differ in one word always differ in both lanes. The lanes use unrelated
// constants, so a collision needs the same input to collide under two
// independent mixing functions; the package test checks ≥10^5 distinct
// canonical states hash without collision against a full-state map model.
type stateHasher struct {
	h1, h2 uint64
}

const (
	fnvOffset64 = 0xcbf29ce484222325
	lane1Mult   = 0xff51afd7ed558ccd
	mixMult1    = 0x9e3779b97f4a7c15
	mixMult2    = 0xbf58476d1ce4e5b9
)

func newStateHasher(seed uint64) stateHasher {
	return stateHasher{
		h1: fnvOffset64 ^ seed,
		h2: (seed+1)*mixMult1 ^ fnvOffset64>>1,
	}
}

// word absorbs one 64-bit word into both lanes.
func (h *stateHasher) word(v uint64) {
	// Lane 1: xor in, multiply, fold the high half down.
	x := (h.h1 ^ v) * lane1Mult
	x ^= x >> 32
	h.h1 = x
	// Lane 2: multiply–xorshift accumulate.
	y := h.h2 + v*mixMult1
	y ^= y >> 30
	y *= mixMult2
	y ^= y >> 27
	h.h2 = y
}

// sum finalizes the hash (the lanes are already well mixed).
func (h *stateHasher) sum() Fingerprint {
	a, b := h.h1, h.h2
	a ^= b >> 31
	a *= mixMult2
	b ^= a >> 29
	b *= mixMult1
	return Fingerprint{Hi: a, Lo: b}
}

// Canonical-state encoding tags, one per record kind, so that records of
// different kinds can never alias each other byte-for-byte.
const (
	fpTagCells   = 0x10
	fpTagProc    = 0x20
	fpTagStep    = 0x31
	fpTagWait    = 0x32
	fpTagNone    = 0x33
	fpTagOpName  = 0x40
	fpVersionTag = 0xf1ee_0001 // bump when the encoding changes
)

// CanonicalState appends a canonical encoding of the machine's
// verdict-relevant state to buf and returns the extended slice. Two machines
// with identical constructions have equal encodings iff they agree on:
//
//   - every cell's current value (allocation order);
//   - per process: finished/parked flags, crash count, shared-memory step
//     count, the body's annotation tag (the driver's protocol phase), and the
//     pending operation — for a step, its target cell, opcode, arguments and
//     custom-op name, plus whether it is a spin probe; for a multi-cell wait,
//     the watched cell set.
//
// Deliberately excluded: cache-copy sets, watcher sets, per-cell and
// per-process RMR counters, traces and schedules. None of those influence
// which schedules are enabled or what any future operation returns — they are
// accounting over the path taken, not state that constrains the future — so
// including them would only split states the checker could soundly merge.
// The per-process step count IS included: it distinguishes "same memory, same
// phase" points in different super-passages (the driver's pass counter is a
// body local), and it makes the explored state graph acyclic, since every
// action increments some process's count.
//
// The encoding assumes (and the crash contract of package mutex requires)
// that a process's continuation is determined by its program, its step and
// crash counts, its pending operation, and shared memory. Body locals that
// violate that assumption (a counter carried across identical-looking states)
// would make two distinct futures encode equally; the checker's differential
// tests guard this empirically for every algorithm in the repo.
func (m *Machine) CanonicalState(buf []byte) []byte {
	return m.canonicalStateUnder(nil, buf)
}

func appendWord(buf []byte, v uint64) []byte {
	return append(buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// Fingerprint hashes the canonical state (see CanonicalState) under the
// given seed. The encoding scratch buffer is retained on the machine, so
// steady-state calls do not allocate; like every Machine method it must be
// called from the controller goroutine only.
func (m *Machine) Fingerprint(seed uint64) Fingerprint {
	m.fpScratch = m.CanonicalState(m.fpScratch[:0])
	return hashBuf(seed, m.fpScratch)
}

// hashBuf hashes a canonical-state encoding under the given seed.
func hashBuf(seed uint64, buf []byte) Fingerprint {
	h := newStateHasher(seed)
	for len(buf) >= 8 {
		h.word(binary.LittleEndian.Uint64(buf))
		buf = buf[8:]
	}
	var tail uint64
	for i, b := range buf {
		tail |= uint64(b) << (8 * i)
	}
	// The tail word is length-tagged so "abc" and "abc\x00" differ.
	h.word(tail | uint64(len(buf)+1)<<56)
	return h.sum()
}
