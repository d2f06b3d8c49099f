package mutex

import (
	"fmt"
	"sync/atomic"

	"rme/internal/memory"
	"rme/internal/word"
)

// NativeLock instantiates an Algorithm on the native sync/atomic backend and
// hands out per-goroutine handles that satisfy sync.Locker. It is the bridge
// from the simulated world to real silicon: the same entry/exit/recover
// protocol code runs, but steps cost wall-clock time instead of simulated
// RMRs, and crashes are injected as panics instead of scheduler actions.
type NativeLock struct {
	alg  Algorithm
	mem  *memory.NativeMem
	inst Instance
	n    int
}

// NewNativeLock allocates the algorithm's shared objects for n processes on
// a native memory of the given word width. Width 0 selects the full 64-bit
// word.
func NewNativeLock(alg Algorithm, n int, w word.Width) (*NativeLock, error) {
	if alg == nil {
		return nil, fmt.Errorf("mutex: nil algorithm")
	}
	if n < 1 {
		return nil, fmt.Errorf("mutex: need at least 1 process, got %d", n)
	}
	if w == 0 {
		w = word.MaxBits
	}
	mem, err := memory.NewNativeMem(w)
	if err != nil {
		return nil, err
	}
	inst, err := alg.Make(mem, n)
	if err != nil {
		return nil, fmt.Errorf("mutex: %s: %w", alg.Name(), err)
	}
	return &NativeLock{alg: alg, mem: mem, inst: inst, n: n}, nil
}

// Algorithm returns the wrapped algorithm.
func (l *NativeLock) Algorithm() Algorithm { return l.alg }

// N returns the number of processes the lock was sized for.
func (l *NativeLock) N() int { return l.n }

// Width returns the word width of the underlying native memory.
func (l *NativeLock) Width() word.Width { return l.mem.Width() }

// Bind returns process id's handle. Bind performs no shared-memory
// operations, so it may be called from any goroutine — but the returned
// handle must then be used by one goroutine at a time, and at most one live
// handle per id may be in use. Re-binding the same id models a process
// restart (new stack, same persistent cells): the fresh handle's Recover
// resumes whatever super-passage the previous incarnation left behind.
func (l *NativeLock) Bind(id int) *NativeHandle {
	if id < 0 || id >= l.n {
		panic(fmt.Sprintf("mutex: process id %d out of range [0,%d)", id, l.n))
	}
	env := &crashEnv{inner: l.mem.Env(id)}
	env.fuse.Store(-1)
	return &NativeHandle{lock: l, id: id, env: env, h: l.inst.Bind(env)}
}

// NativeHandle is one process's native lock interface. Lock and Unlock make
// it a sync.Locker; Recover and CrashAfter expose the recoverable side.
type NativeHandle struct {
	lock *NativeLock
	id   int
	env  *crashEnv
	h    Handle

	crashes atomic.Int64
}

// ID returns the process id this handle is bound to.
func (h *NativeHandle) ID() int { return h.id }

// Lock runs the entry protocol. If an injected crash fires mid-entry the
// crash panic propagates to the caller — exactly as a real crash would
// destroy the call stack — and the caller resumes via Recover (or uses
// Super, which packages the whole protocol).
func (h *NativeHandle) Lock() { h.h.Lock() }

// Unlock runs the exit protocol.
func (h *NativeHandle) Unlock() { h.h.Unlock() }

// Recover runs the recover protocol after a crash.
func (h *NativeHandle) Recover() RecoverStatus { return h.h.Recover() }

// Ops returns the number of shared-memory operations this handle has
// performed (spin re-polls each count as one operation).
func (h *NativeHandle) Ops() int64 { return h.env.ops.Load() }

// Crashes returns the number of injected crashes Super has absorbed.
func (h *NativeHandle) Crashes() int64 { return h.crashes.Load() }

// CrashAfter arms the fault injector: after n more shared-memory operations
// by this handle, the operation in flight panics with an internal crash
// signal instead of executing — the native analogue of the simulator's
// crash step, which may preempt any step of entry, exit, or recovery.
// Because every spin re-poll counts as an operation, crashes land inside
// busy-wait loops too. The panic unwinds all local state of the in-flight
// call; only cells survive, which is precisely the algorithm crash
// contract. A negative n disarms the fuse. Arming panics if the algorithm
// is not recoverable (there is nothing that could be recovered afterwards);
// disarming is always allowed.
func (h *NativeHandle) CrashAfter(n int64) {
	if n < 0 {
		h.env.fuse.Store(-1)
		return
	}
	if !h.lock.alg.Recoverable() {
		panic(fmt.Sprintf("mutex: cannot inject crashes into non-recoverable algorithm %s", h.lock.alg.Name()))
	}
	h.env.fuse.Store(n)
}

// crashSignal is the panic payload of an injected crash.
type crashSignal struct{ id int }

func (c crashSignal) String() string { return fmt.Sprintf("injected crash (process %d)", c.id) }

// IsInjectedCrash reports whether a recovered panic value is an injected
// crash from CrashAfter, for callers driving Lock/Unlock/Recover manually.
func IsInjectedCrash(r any) bool {
	_, ok := r.(crashSignal)
	return ok
}

// Super runs one complete super-passage: entry, cs, exit — absorbing any
// injected crashes by running the recover protocol and resuming, mirroring
// the simulated driver's body. cs may execute more than once in a single
// super-passage: a crash during exit can leave the process still holding
// the lock (RecoverAcquired), and critical-section re-entry is the CSR
// behaviour the paper's model permits. cs always runs under mutual
// exclusion.
func (h *NativeHandle) Super(cs func()) {
	// Acquire, resolving crashes until the CS is held. RecoverIdle means the
	// crashed entry had no visible effect, so the super-passage starts over;
	// RecoverReleased (crash landed after the exit's point of no return)
	// means it completed.
	for {
		if h.call(h.h.Lock) {
			break
		}
		st, done := h.recoverUntilDecided()
		if done {
			return
		}
		if st == RecoverAcquired {
			break
		}
	}
	// Hold: run the CS and exit; a crash during exit re-enters the CS when
	// recovery reports the lock still held.
	for {
		cs()
		if h.call(h.h.Unlock) {
			return
		}
		st, done := h.recoverUntilDecided()
		if done {
			return
		}
		if st != RecoverAcquired {
			panic(fmt.Sprintf("mutex: %s: Recover returned %v during an interrupted exit", h.lock.alg.Name(), st))
		}
	}
}

// recoverUntilDecided runs Recover until one attempt completes without
// crashing (crashes during recovery restart it, as in the simulator). The
// boolean reports a finished super-passage (RecoverReleased).
func (h *NativeHandle) recoverUntilDecided() (RecoverStatus, bool) {
	for {
		var st RecoverStatus
		if !h.call(func() { st = h.h.Recover() }) {
			continue
		}
		return st, st == RecoverReleased
	}
}

// call runs f, converting an injected-crash panic into a false return.
func (h *NativeHandle) call(f func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if !IsInjectedCrash(r) {
				panic(r)
			}
			h.crashes.Add(1)
		}
	}()
	f()
	return true
}

// crashEnv wraps a native memory.Env with an operation counter and the
// crash fuse. Counting happens before the wrapped operation executes, so a
// firing fuse preempts the step entirely (the simulator's crash semantics:
// the interrupted step never takes effect).
type crashEnv struct {
	inner memory.Env
	ops   atomic.Int64
	fuse  atomic.Int64 // remaining ops before injected crash; negative = disarmed
}

var _ memory.Env = (*crashEnv)(nil)

func (e *crashEnv) tick() {
	e.ops.Add(1)
	if e.fuse.Load() < 0 {
		return
	}
	if e.fuse.Add(-1) < 0 {
		e.fuse.Store(-1)
		panic(crashSignal{id: e.inner.ID()})
	}
}

func (e *crashEnv) ID() int           { return e.inner.ID() }
func (e *crashEnv) Width() word.Width { return e.inner.Width() }

func (e *crashEnv) Read(c memory.Cell) word.Word {
	e.tick()
	return e.inner.Read(c)
}

func (e *crashEnv) Write(c memory.Cell, v word.Word) {
	e.tick()
	e.inner.Write(c, v)
}

func (e *crashEnv) Swap(c memory.Cell, v word.Word) word.Word {
	e.tick()
	return e.inner.Swap(c, v)
}

func (e *crashEnv) Add(c memory.Cell, d word.Word) word.Word {
	e.tick()
	return e.inner.Add(c, d)
}

func (e *crashEnv) CAS(c memory.Cell, expected, replacement word.Word) word.Word {
	e.tick()
	return e.inner.CAS(c, expected, replacement)
}

func (e *crashEnv) Apply(c memory.Cell, op memory.Op) word.Word {
	e.tick()
	return e.inner.Apply(c, op)
}

// SpinUntil charges one operation per poll by ticking inside the predicate,
// so an armed fuse can fire in the middle of a busy-wait, not just at its
// first read.
func (e *crashEnv) SpinUntil(c memory.Cell, pred func(word.Word) bool) word.Word {
	return e.inner.SpinUntil(c, func(v word.Word) bool {
		e.tick()
		return pred(v)
	})
}

func (e *crashEnv) SpinUntilMulti(cells []memory.Cell, pred func([]word.Word) bool) []word.Word {
	return e.inner.SpinUntilMulti(cells, func(vs []word.Word) bool {
		e.tick()
		return pred(vs)
	})
}
