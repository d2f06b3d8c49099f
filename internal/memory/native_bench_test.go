package memory

import (
	"sync"
	"sync/atomic"
	"testing"
)

// unpaddedCell reproduces the pre-padding layout of nativeCell: bare atomic
// words that the allocator packs eight-to-a-cache-line. It exists only as
// the "before" arm of the false-sharing benchmark.
type unpaddedCell struct {
	v atomic.Uint64
}

// benchIndependentCounters runs GOMAXPROCS goroutines, each hammering its
// own counter — zero logical contention, so any slowdown in the unpadded
// arm is pure cache-line ping-pong. The cells are allocated back-to-back in
// one slice to force adjacency, mirroring how NewCell allocations from one
// algorithm's setup loop tend to land consecutively in a size-class span.
func benchIndependentCounters(b *testing.B, addr func(i int) *atomic.Uint64, workers int) {
	b.ReportAllocs()
	var wg sync.WaitGroup
	per := b.N/workers + 1
	b.ResetTimer()
	for i := 0; i < workers; i++ {
		c := addr(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
}

func BenchmarkFalseSharing(b *testing.B) {
	const workers = 4
	b.Run("unpadded", func(b *testing.B) {
		cells := make([]unpaddedCell, workers)
		benchIndependentCounters(b, func(i int) *atomic.Uint64 { return &cells[i].v }, workers)
	})
	b.Run("padded", func(b *testing.B) {
		cells := make([]nativeCell, workers)
		benchIndependentCounters(b, func(i int) *atomic.Uint64 { return &cells[i].v }, workers)
	})
}

// BenchmarkNativeEnvOps measures the per-operation overhead of the env
// indirection itself (single goroutine, no contention).
func BenchmarkNativeEnvOps(b *testing.B) {
	m, err := NewNativeMem(64)
	if err != nil {
		b.Fatal(err)
	}
	c := m.NewCell("c", Shared, 0)
	env := m.Env(0)
	b.Run("read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env.Read(c)
		}
	})
	b.Run("add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env.Add(c, 1)
		}
	})
	b.Run("cas", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env.CAS(c, env.Read(c), 1)
		}
	})
}
