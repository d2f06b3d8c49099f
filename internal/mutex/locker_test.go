package mutex_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"rme/internal/algorithms/mcs"
	"rme/internal/algorithms/rspin"
	"rme/internal/algorithms/watree"
	"rme/internal/mutex"
)

var _ sync.Locker = (*mutex.NativeHandle)(nil)

func TestNativeLockMutualExclusion(t *testing.T) {
	lock, err := mutex.NewNativeLock(mcs.New(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	const passes = 200
	var (
		tally  int // plain int: the race detector is the mutual exclusion witness
		holder atomic.Int32
		wg     sync.WaitGroup
	)
	for id := 0; id < lock.N(); id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := lock.Bind(id)
			for p := 0; p < passes; p++ {
				h.Lock()
				if !holder.CompareAndSwap(0, int32(id+1)) {
					t.Errorf("process %d entered the CS while %d held it", id, holder.Load()-1)
				}
				tally++
				holder.Store(0)
				h.Unlock()
			}
		}()
	}
	wg.Wait()
	if want := lock.N() * passes; tally != want {
		t.Fatalf("tally = %d, want %d", tally, want)
	}
}

func TestNativeLockBindValidation(t *testing.T) {
	lock, err := mutex.NewNativeLock(mcs.New(), 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if w := lock.Width(); w != 16 {
		t.Errorf("Width = %d, want 16", w)
	}
	for _, id := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bind(%d) did not panic", id)
				}
			}()
			lock.Bind(id)
		}()
	}
}

func TestNativeLockRejectsBadConfig(t *testing.T) {
	if _, err := mutex.NewNativeLock(nil, 2, 0); err == nil {
		t.Error("nil algorithm: want error")
	}
	if _, err := mutex.NewNativeLock(mcs.New(), 0, 0); err == nil {
		t.Error("0 processes: want error")
	}
	if _, err := mutex.NewNativeLock(mcs.New(), 2, 65); err == nil {
		t.Error("width 65: want error")
	}
}

func TestNativeLockCrashAfterRequiresRecoverable(t *testing.T) {
	lock, err := mutex.NewNativeLock(mcs.New(), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("CrashAfter on a non-recoverable algorithm did not panic")
		}
	}()
	lock.Bind(0).CrashAfter(5)
}

// TestNativeLockCrashPropagatesFromLock drives the manual (non-Super) API:
// an armed fuse makes Lock panic with an injected crash, and Recover then
// resumes the super-passage.
func TestNativeLockCrashPropagatesFromLock(t *testing.T) {
	lock, err := mutex.NewNativeLock(rspin.New(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := lock.Bind(0)
	h.CrashAfter(1)
	crashed := func() (crashed bool) {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if !mutex.IsInjectedCrash(r) {
				panic(r)
			}
			crashed = true
		}()
		h.Lock()
		return false
	}()
	if !crashed {
		t.Fatal("armed fuse did not fire during Lock")
	}
	switch st := h.Recover(); st {
	case mutex.RecoverAcquired:
		h.Unlock()
	case mutex.RecoverIdle:
		h.Lock()
		h.Unlock()
	default:
		t.Fatalf("Recover after entry crash = %v", st)
	}
	// The lock must be free again.
	h.Lock()
	h.Unlock()
}

// TestNativeLockSuperCrashSweep runs single-process super-passages with the
// fuse armed at every offset from the start of the passage, sweeping the
// crash point across entry, CS hand-back, and exit. Every passage must
// complete and leave the lock acquirable.
func TestNativeLockSuperCrashSweep(t *testing.T) {
	for _, alg := range []mutex.Algorithm{rspin.New(), watree.New()} {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			lock, err := mutex.NewNativeLock(alg, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			h := lock.Bind(0)
			ran := 0
			for off := int64(0); off < 40; off++ {
				h.CrashAfter(off)
				h.Super(func() { ran++ })
				h.CrashAfter(-1)
			}
			if h.Crashes() == 0 {
				t.Fatal("sweep never crashed")
			}
			if ran == 0 {
				t.Fatal("no critical section ever ran")
			}
			// Another process must still get in cleanly.
			other := lock.Bind(1)
			done := false
			other.Super(func() { done = true })
			if !done {
				t.Fatal("lock not acquirable after crash sweep")
			}
		})
	}
}

// TestNativeLockCrashStorm runs concurrent processes that each arm the fuse
// before most passages: mutual exclusion (race detector + holder CAS) and
// passage completion must survive arbitrary crash/recover interleavings.
func TestNativeLockCrashStorm(t *testing.T) {
	lock, err := mutex.NewNativeLock(watree.New(), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	const passes = 60
	var (
		tally  int
		holder atomic.Int32
		wg     sync.WaitGroup
	)
	for id := 0; id < lock.N(); id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := lock.Bind(id)
			for p := 0; p < passes; p++ {
				if p%3 != 0 {
					h.CrashAfter(int64((id*7 + p*13) % 50))
				}
				h.Super(func() {
					if !holder.CompareAndSwap(0, int32(id+1)) {
						t.Errorf("process %d entered the CS while %d held it", id, holder.Load()-1)
					}
					tally++
					holder.Store(0)
				})
				h.CrashAfter(-1)
			}
		}()
	}
	wg.Wait()
	// A crash during exit may legally re-enter the CS (CSR), so the tally is
	// at least one per super-passage but may exceed it.
	if tally < lock.N()*passes {
		t.Fatalf("tally = %d, want >= %d", tally, lock.N()*passes)
	}
}

// TestNativeLockRebindRestart models a full process restart: the first
// incarnation crashes mid-entry and is dropped; a fresh handle for the same
// id recovers from the persistent cells alone.
func TestNativeLockRebindRestart(t *testing.T) {
	lock, err := mutex.NewNativeLock(rspin.New(), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := lock.Bind(0)
	h.CrashAfter(2)
	func() {
		defer func() {
			if r := recover(); r != nil && !mutex.IsInjectedCrash(r) {
				panic(r)
			}
		}()
		h.Lock()
		h.Unlock()
	}()
	// First incarnation is gone; restart from a fresh Bind.
	h2 := lock.Bind(0)
	switch st := h2.Recover(); st {
	case mutex.RecoverAcquired:
		h2.Unlock()
	case mutex.RecoverIdle:
	case mutex.RecoverReleased:
	default:
		t.Fatalf("Recover = %v", st)
	}
	// Both processes proceed normally afterwards.
	done := make(chan struct{})
	go func() {
		other := lock.Bind(1)
		other.Lock()
		other.Unlock()
		close(done)
	}()
	h2.Lock()
	h2.Unlock()
	<-done
}
