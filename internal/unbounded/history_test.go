package unbounded_test

import (
	"runtime"
	"strconv"
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

// TestHistoryBlockEdges writes every row up to 2,100 — across the half
// blocks' edges at 512 and 1,024 — and every row within 1,100 of the
// directory's page edges at 65,536 and 131,072, with word values and boxed
// strings: each row must
// read back its own value and readers, a row never written must read empty,
// and a block must end where the row map says.
func TestHistoryBlockEdges(t *testing.T) {
	t.Parallel()
	for _, m := range []int{3, 16, 64} {
		checkBlockEdges(t, newHistory[uint64](t, m, 1<<18), m, func(s uint64) uint64 { return ^s })
		checkBlockEdges(t, newHistory[string](t, m, 1<<18), m, func(s uint64) string { return strconv.FormatUint(s, 10) })
	}
}

func checkBlockEdges[V comparable](t *testing.T, h *unbounded.History[V], m int, val func(uint64) V) {
	t.Helper()
	var rows []uint64
	for s := uint64(0); s < 2100; s++ {
		rows = append(rows, s)
	}
	for _, edge := range []uint64{1 << 16, 1 << 17} {
		for s := edge - 1100; s < edge+1100; s++ {
			rows = append(rows, s)
		}
	}
	readers := func(s uint64) uint64 { return (s*0x9E3779B97F4A7C15 | 1) & (^uint64(0) >> (64 - m)) }
	for _, s := range rows {
		if err := h.Store(s, val(s)); err != nil {
			t.Fatalf("Store(%d): %v", s, err)
		}
		if err := h.Or(s, readers(s)); err != nil {
			t.Fatalf("Or(%d): %v", s, err)
		}
	}
	for _, s := range rows {
		if v, ok := h.Load(s); !ok || v != val(s) {
			t.Fatalf("%T, m=%d: Load(%d) = (%v, %t), want %v", v, m, s, v, ok, val(s))
		}
		if got := h.Row(s); got != readers(s) {
			t.Fatalf("%T, m=%d: Row(%d) = %#x, want %#x", val(0), m, s, got, readers(s))
		}
		blk := h.Block(s)
		end := s | 1023 + 1
		if s < 512 {
			end = 512
		}
		if got := blk.End(s); got != end {
			t.Fatalf("%T: Block(%d).End = %d, want %d", val(0), s, got, end)
		}
		if v, ok := blk.Load(s); !ok || v != val(s) || blk.Row(s) != readers(s) {
			t.Fatalf("%T, m=%d: Block(%d) reads (%v, %t) and %#x", val(0), m, s, v, ok, blk.Row(s))
		}
	}
	for _, s := range []uint64{2100, 2101, 1<<16 - 1101, 1<<16 + 1100, 1<<17 + 1100} {
		if _, ok := h.Load(s); ok || h.Row(s) != 0 {
			t.Fatalf("%T: row %d, never written, reads written", val(0), s)
		}
	}
}

// TestHistoryAllocBytes pins a history's memory at the store's 16 readers:
// blocks 0 and 1, of 512 rows, are one allocation each of at most 5,376
// bytes (Go's size class for their 5,248); every later block, of 1,024 rows,
// one of at most 10,880 (the class for its 10,368); a store or an OR into an
// existing block allocates nothing.
func TestHistoryAllocBytes(t *testing.T) {
	const blocks = 64
	var h *unbounded.History[uint64]
	// The runtime may allocate beside the test now and then: the least of
	// three rounds is the blocks' own cost.
	measure := func(rows ...uint64) (mallocs, bytes uint64) {
		mallocs, bytes = ^uint64(0), ^uint64(0)
		for range 3 {
			h = newHistory[uint64](t, 16, blocks*1024)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, s := range rows {
				if err := h.Store(s, s); err != nil {
					t.Fatalf("Store: %v", err)
				}
			}
			runtime.ReadMemStats(&after)
			mallocs = min(mallocs, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return mallocs, bytes
	}
	if mallocs, bytes := measure(0, 511, 512, 1023); mallocs != 2 || bytes > 2*5376 {
		t.Errorf("blocks 0 and 1 took %d allocations of %d bytes, want 2 of at most 5,376", mallocs, bytes)
	}
	var later []uint64
	for b := uint64(1); b < blocks; b++ {
		later = append(later, b*1024, b*1024+1023)
	}
	if mallocs, bytes := measure(later...); mallocs != blocks-1 || bytes/(blocks-1) > 10880 {
		t.Errorf("%d blocks of 1,024 rows took %d allocations of %d bytes each, want one each of at most 10,880", blocks-1, mallocs, bytes/max(mallocs, 1))
	}
	for s := uint64(0); s < blocks*1024; s += 512 {
		if err := h.Store(s, s); err != nil {
			t.Fatal(err)
		}
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

// TestHistoryCostsNothingUpFront: a history's capacity bounds its rows, it
// does not size anything at creation. At the default 16 Mi rows a history
// allocates less than 8 KiB before its first write.
func TestHistoryCostsNothingUpFront(t *testing.T) {
	var h *unbounded.History[uint64]
	bytes := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h = newHistory[uint64](t, 16, unbounded.DefaultCapacity)
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if bytes >= 8<<10 {
		t.Fatalf("a default-capacity history took %d bytes before its first write, want < 8 KiB", bytes)
	}
	if h.Capacity() != unbounded.DefaultCapacity {
		t.Fatalf("capacity %d, want %d", h.Capacity(), unbounded.DefaultCapacity)
	}
}

// TestLogConcurrentPublish: goroutines race to publish into every row of a
// log across its block edges at 512 and 1,024 and within 1,100 of its first
// page edge at 65,536, each row by CAS from nil as Algorithm 3 publishes views. Every row
// must end holding one of the racers' pointers, the same one each racer
// found there, and rows outside the capacity must refuse a slot.
func TestLogConcurrentPublish(t *testing.T) {
	t.Parallel()
	const procs = 4
	l := unbounded.NewLog[int](1 << 17)
	var rows []uint64
	for s := uint64(400); s < 2100; s++ {
		rows = append(rows, s)
	}
	for s := uint64(1<<16 - 1100); s < 1<<16+1100; s++ {
		rows = append(rows, s)
	}
	found := make([][]*int, procs)
	var wg sync.WaitGroup
	for g := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range rows {
				p := l.Slot(s)
				if p == nil {
					t.Errorf("Slot(%d) refused below the capacity", s)
					return
				}
				p.CompareAndSwap(nil, new(int))
				found[g] = append(found[g], l.Load(s))
			}
		}()
	}
	wg.Wait()
	for i, s := range rows {
		v := l.Load(s)
		if v == nil {
			t.Fatalf("row %d is empty", s)
		}
		for g := range procs {
			if found[g][i] != v {
				t.Fatalf("racer %d found another pointer in row %d", g, s)
			}
		}
		if i > 0 && rows[i-1] == s-1 && l.Load(s-1) == v {
			t.Fatalf("rows %d and %d hold one pointer", s-1, s)
		}
	}
	if l.Load(399) != nil || l.Load(1<<16+1100) != nil {
		t.Fatal("a row no one published into holds a pointer")
	}
	if l.Slot(1<<17) != nil || l.Load(1<<17) != nil {
		t.Fatal("the row past the capacity took a slot")
	}
}

// TestLogAllocBytes pins a log's blocks: 512 pointers each for blocks 0 and
// 1, 1,024 for every later one, whichever of its rows is taken first. (Go
// puts a header on a block of pointers this large, so each lands in the size
// class above its 4 or 8 KiB.)
func TestLogAllocBytes(t *testing.T) {
	for _, c := range []struct {
		row      uint64
		pointers uint64
	}{{0, 512}, {511, 512}, {512, 512}, {1023, 512}, {1024, 1024}, {2047, 1024}, {1<<16 - 1, 1024}, {1 << 16, 0}} {
		bytes := ^uint64(0)
		for range 3 {
			l := unbounded.NewLog[int](1 << 16)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			l.Slot(c.row)
			runtime.ReadMemStats(&after)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		if bytes < c.pointers*8 || bytes > c.pointers*8*5/4 {
			t.Errorf("taking row %d first took %d bytes, want a block of %d pointers", c.row, bytes, c.pointers)
		}
	}
}
