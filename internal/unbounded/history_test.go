package unbounded_test

import (
	"runtime"
	"sync"
	"testing"

	"auditreg/internal/unbounded"
)

func newHistory[V any](t *testing.T, m, capacity int) *unbounded.History[V] {
	t.Helper()
	h, err := unbounded.NewHistory[V](m, capacity)
	if err != nil {
		t.Fatalf("NewHistory(%d, %d): %v", m, capacity, err)
	}
	return h
}

// TestHistoryBoxedRows: a value type other than uint64 is boxed, and its
// block keeps the reader rows beside the values.
func TestHistoryBoxedRows(t *testing.T) {
	t.Parallel()
	h := newHistory[string](t, 3, 0)
	if err := h.Store(123456, "y"); err != nil {
		t.Fatalf("Store: %v", err)
	}
	if err := h.Or(123456, 0b101); err != nil {
		t.Fatalf("Or: %v", err)
	}
	if err := h.Or(123457, 0b010); err != nil {
		t.Fatalf("Or: %v", err)
	}
	if got := h.Row(123456); got != 0b101 {
		t.Fatalf("row = %#b, want 0b101", got)
	}
	if v, ok := h.Load(123456); !ok || v != "y" {
		t.Fatalf("Load after Or = (%q, %t)", v, ok)
	}
	if _, ok := h.Load(123457); ok {
		t.Fatal("a row with readers but no value reported written")
	}
}

// TestHistoryRowWidth: a row has room for its width w, the power of two
// >= m, and no more.
func TestHistoryRowWidth(t *testing.T) {
	t.Parallel()
	for _, c := range []struct{ m, w int }{{1, 1}, {3, 4}, {16, 16}, {17, 32}, {33, 64}, {64, 64}} {
		h := newHistory[uint64](t, c.m, 10)
		if err := h.Or(0, 1<<(c.w-1)); err != nil {
			t.Errorf("m=%d: bit %d refused: %v", c.m, c.w-1, err)
		}
		if c.w < 64 {
			if err := h.Or(0, 1<<c.w); err == nil {
				t.Errorf("m=%d: bit %d accepted", c.m, c.w)
			}
		}
		if got := h.Row(0); got != 1<<(c.w-1) {
			t.Errorf("m=%d: row = %#x, want %#x", c.m, got, uint64(1)<<(c.w-1))
		}
	}
}

// TestHistoryLaneIsolation ORs from several goroutines at once into adjacent
// rows, which share a word whenever the row width is below 64, while the
// same rows' values are stored: every row must end as the OR of its own
// inputs, with no bit in a neighbour's lane, and every value intact. Every
// fifth row no one writes sits between written ones and must stay empty.
func TestHistoryLaneIsolation(t *testing.T) {
	t.Parallel()
	for _, m := range []int{1, 2, 3, 5, 9, 16, 17, 33, 64} {
		h := newHistory[uint64](t, m, 0)
		// Rows 1,000-1,100 straddle the first block boundary.
		const lo, hi, procs = 1000, 1100, 4
		input := func(g int, s uint64) uint64 {
			if s%5 == 3 {
				return 0
			}
			x := s*0x9E3779B97F4A7C15 + uint64(g+1)*0xBF58476D1CE4E5B9
			return (x ^ x>>29) & (^uint64(0) >> (64 - m))
		}
		var wg sync.WaitGroup
		for g := 0; g < procs; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := uint64(lo); s < hi; s++ {
					if err := h.Or(s, input(g, s)); err != nil {
						t.Errorf("m=%d: Or(%d): %v", m, s, err)
						return
					}
					if g == 0 && s%5 != 3 {
						if err := h.Store(s, ^s); err != nil {
							t.Errorf("m=%d: Store(%d): %v", m, s, err)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		for s := uint64(lo - 1); s <= hi; s++ {
			written := s >= lo && s < hi && s%5 != 3
			var want uint64
			for g := 0; g < procs && written; g++ {
				want |= input(g, s)
			}
			if got := h.Row(s); got != want {
				t.Fatalf("m=%d: row %d = %#x, want %#x", m, s, got, want)
			}
			if v, ok := h.Load(s); ok != written || ok && v != ^s {
				t.Fatalf("m=%d: value %d = (%#x, %t), want written %t", m, s, v, ok, written)
			}
		}
	}
}

// TestHistoryAllocBytes pins a history's memory: a block of 1,024 rows at
// the store's 16 readers is one allocation of at most 10,880 bytes (Go's size
// class for its 10,368), and a store or an OR into an existing block
// allocates nothing.
func TestHistoryAllocBytes(t *testing.T) {
	const blocks = 64
	var h *unbounded.History[uint64]
	// The runtime may allocate beside the test now and then: the least of
	// three rounds is the blocks' own cost.
	mallocs, bytes := ^uint64(0), ^uint64(0)
	for range 3 {
		h = newHistory[uint64](t, 16, blocks*1024)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for b := uint64(0); b < blocks; b++ {
			if err := h.Store(b*1024, b); err != nil {
				t.Fatalf("Store: %v", err)
			}
		}
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if mallocs != blocks {
		t.Errorf("%d blocks took %d allocations, want one each", blocks, mallocs)
	}
	if bytes/blocks > 10880 {
		t.Errorf("a block takes %d bytes, want at most 10,880", bytes/blocks)
	}
	var i uint64
	if n := testing.AllocsPerRun(500, func() {
		i++
		if err := h.Store(i%(blocks*1024), i); err != nil {
			t.Fatal(err)
		}
		if err := h.Or(i%(blocks*1024), i&0xffff); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Store and Or into existing blocks allocated %v times per run", n)
	}
}
