package memory

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rme/internal/word"
)

// NativeMem is the real-hardware runtime: cells are sync/atomic words, and
// Env operations execute immediately on the calling goroutine. The same
// algorithm sources that run under the simulator run here for wall-clock
// throughput and latency measurement (cmd/rmenative, BenchmarkNativeLock*).
// RMRs are not (and cannot be) observed here — cache-line traffic is the
// hardware's business — which is exactly what makes the correlation against
// simulated CC-RMR counts (EXPERIMENTS.md E14) an experiment rather than a
// tautology. Crashes are injectable only via the mutex.NativeLock adapter's
// panic-based fault injector, not by the memory layer itself.
type NativeMem struct {
	width word.Width
	mu    sync.Mutex // guards cells during allocation
	cells []*nativeCell
}

var _ Allocator = (*NativeMem)(nil)

// NewNativeMem returns a native allocator with the given word width.
func NewNativeMem(w word.Width) (*NativeMem, error) {
	if !w.Valid() {
		return nil, fmt.Errorf("memory: invalid word width %d", w)
	}
	return &NativeMem{width: w}, nil
}

// Width returns the configured word size.
func (m *NativeMem) Width() word.Width { return m.width }

// NewCell allocates a native atomic cell.
func (m *NativeMem) NewCell(label string, owner int, init word.Word) Cell {
	if !m.width.Fits(init) {
		panic(fmt.Sprintf("memory: initial value %d does not fit in %d bits", init, m.width))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &nativeCell{id: len(m.cells), owner: owner, label: label}
	c.v.Store(init)
	m.cells = append(m.cells, c)
	return c
}

// Env returns the native environment for process id.
func (m *NativeMem) Env(id int) Env { return &nativeEnv{id: id, mem: m} }

// nativeCell is one base object on the native runtime. The atomic word sits
// first, followed by padding out to a full cache line: cells are allocated
// individually, and without the padding Go's size classes pack several cells
// into one 64-byte line, so contending processes spinning on *different*
// cells ping-pong the same line (false sharing). The cold metadata rides in
// the tail of the padded block.
type nativeCell struct {
	v     atomic.Uint64
	_     [cacheLineSize - 8]byte // the hot word owns its cache line
	id    int
	owner int
	label string
}

// cacheLineSize is the coherence granularity assumed for padding. 64 bytes
// covers x86-64 and most arm64 parts; oversizing merely wastes a few bytes
// per cell.
const cacheLineSize = 64

var _ Cell = (*nativeCell)(nil)

func (c *nativeCell) CellID() int   { return c.id }
func (c *nativeCell) Owner() int    { return c.owner }
func (c *nativeCell) Label() string { return c.label }

// Adaptive spin policy for SpinUntil/SpinUntilMulti: a short tight-poll
// phase (the value usually flips within a handoff), then cooperative yields
// (essential when goroutines outnumber GOMAXPROCS — a spinning waiter must
// let its waker run), then exponentially growing sleeps capped low enough
// that handoff latency stays in the tens of microseconds. Polling-based
// waiting cannot lose wakeups, so sleeping is always safe.
const (
	spinActive   = 64  // tight polls before the first yield
	spinYield    = 512 // polls (with Gosched) before sleeping
	spinSleepMax = 32 * time.Microsecond
)

// spinPause waits appropriately for the i-th failed poll.
func spinPause(i int) {
	switch {
	case i < spinActive:
		// tight poll
	case i < spinYield:
		runtime.Gosched()
	default:
		d := time.Microsecond << uint((i-spinYield)/64)
		if d > spinSleepMax {
			d = spinSleepMax
		}
		time.Sleep(d)
	}
}

type nativeEnv struct {
	id  int
	mem *NativeMem
}

var _ Env = (*nativeEnv)(nil)

func (e *nativeEnv) ID() int           { return e.id }
func (e *nativeEnv) Width() word.Width { return e.mem.width }

func (e *nativeEnv) cell(c Cell) *nativeCell {
	nc, ok := c.(*nativeCell)
	if !ok {
		panic(fmt.Sprintf("memory: cell %q does not belong to this native runtime", c.Label()))
	}
	return nc
}

func (e *nativeEnv) Read(c Cell) word.Word { return e.cell(c).v.Load() }

func (e *nativeEnv) Write(c Cell, v word.Word) {
	e.cell(c).v.Store(e.mem.width.Trunc(v))
}

func (e *nativeEnv) Swap(c Cell, v word.Word) word.Word {
	return e.cell(c).v.Swap(e.mem.width.Trunc(v))
}

// Add is the hardware fetch-and-add at the full 64 bits; below that the sum
// must wrap at w bits, which a CAS loop does.
func (e *nativeEnv) Add(c Cell, d word.Word) word.Word {
	nc := e.cell(c)
	w := e.mem.width
	if w == word.MaxBits {
		return nc.v.Add(d) - d
	}
	for {
		cur := nc.v.Load()
		if nc.v.CompareAndSwap(cur, w.Add(cur, d)) {
			return cur
		}
	}
}

func (e *nativeEnv) CAS(c Cell, expected, replacement word.Word) word.Word {
	nc := e.cell(c)
	w := e.mem.width
	expected, replacement = w.Trunc(expected), w.Trunc(replacement)
	for {
		cur := nc.v.Load()
		if cur != expected {
			return cur
		}
		if nc.v.CompareAndSwap(expected, replacement) {
			return expected
		}
	}
}

// Apply executes op in one linearizable step. Custom operations — the
// paper's "arbitrary atomic operations", which no real ISA offers — run
// through the CAS shim: read, compute the transition, install with
// compare-and-swap, retry on interference. The shim is lock-free and makes
// the whole qword algorithm (whose protocol lives entirely in custom ops)
// runnable on real silicon.
func (e *nativeEnv) Apply(c Cell, op Op) word.Word {
	switch op.Code {
	case OpRead:
		return e.Read(c)
	case OpWrite:
		e.Write(c, op.Arg)
		return 0
	case OpSwap:
		return e.Swap(c, op.Arg)
	case OpAdd:
		return e.Add(c, op.Arg)
	case OpCAS:
		return e.CAS(c, op.Arg, op.Arg2)
	case OpCustom:
		nc := e.cell(c)
		w := e.mem.width
		for {
			cur := nc.v.Load()
			next, ret := Apply(op, cur, w)
			if nc.v.CompareAndSwap(cur, next) {
				return ret
			}
		}
	default:
		panic(fmt.Sprintf("memory: invalid op code %d", op.Code))
	}
}

func (e *nativeEnv) SpinUntil(c Cell, pred func(word.Word) bool) word.Word {
	nc := e.cell(c)
	for i := 0; ; i++ {
		v := nc.v.Load()
		if pred(v) {
			return v
		}
		spinPause(i)
	}
}

func (e *nativeEnv) SpinUntilMulti(cells []Cell, pred func([]word.Word) bool) []word.Word {
	ncs := make([]*nativeCell, len(cells))
	for i, c := range cells {
		ncs[i] = e.cell(c)
	}
	vals := make([]word.Word, len(cells))
	for i := 0; ; i++ {
		for j, nc := range ncs {
			vals[j] = nc.v.Load()
		}
		if pred(vals) {
			return vals
		}
		spinPause(i)
	}
}
