package unbounded_test

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"auditreg/internal/unbounded"
)

func TestArrayStoreLoad(t *testing.T) {
	t.Parallel()
	a, err := unbounded.NewHistory[string](3, 0)
	if err != nil {
		t.Fatalf("NewHistory: %v", err)
	}
	if _, ok := a.Load(0); ok {
		t.Fatal("empty row reported written")
	}
	if err := a.Store(0, "x"); err != nil {
		t.Fatalf("Store: %v", err)
	}
	if v, ok := a.Load(0); !ok || v != "x" {
		t.Fatalf("Load = (%q, %t)", v, ok)
	}
	// Far row in a different block.
	if err := a.Store(123456, "y"); err != nil {
		t.Fatalf("Store far: %v", err)
	}
	if v, ok := a.Load(123456); !ok || v != "y" {
		t.Fatalf("Load far = (%q, %t)", v, ok)
	}
	// Neighbours untouched.
	if _, ok := a.Load(123455); ok {
		t.Fatal("neighbour row reported written")
	}
}

func TestArrayCapacityBound(t *testing.T) {
	t.Parallel()
	a, err := unbounded.NewHistory[int](16, 100)
	if err != nil {
		t.Fatalf("NewHistory: %v", err)
	}
	capSlots := a.Capacity()
	if err := a.Store(capSlots-1, 1); err != nil {
		t.Fatalf("Store at capacity-1: %v", err)
	}
	if err := a.Store(capSlots, 1); !errors.Is(err, unbounded.ErrCapacity) {
		t.Fatalf("Store beyond capacity: %v, want ErrCapacity", err)
	}
	if _, ok := a.Load(capSlots); ok {
		t.Fatal("Load beyond capacity reported written")
	}
}

func TestArrayNegativeCapacity(t *testing.T) {
	t.Parallel()
	if _, err := unbounded.NewHistory[int](16, -1); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestArrayQuickSparse(t *testing.T) {
	t.Parallel()
	a, err := unbounded.NewHistory[uint64](16, 1<<20)
	if err != nil {
		t.Fatalf("NewHistory: %v", err)
	}
	written := make(map[uint64]uint64)
	f := func(idx uint32, v uint64) bool {
		i := uint64(idx) % a.Capacity()
		if err := a.Store(i, v); err != nil {
			return false
		}
		written[i] = v
		got, ok := a.Load(i)
		return ok && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	for i, v := range written {
		if got, ok := a.Load(i); !ok || got != v {
			t.Fatalf("row %d = (%d, %t), want %d", i, got, ok, v)
		}
	}
}

func TestArrayConcurrentDistinctSlots(t *testing.T) {
	t.Parallel()
	a, err := unbounded.NewHistory[int](16, 0)
	if err != nil {
		t.Fatalf("NewHistory: %v", err)
	}
	const procs, per = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				idx := uint64(p*per + i)
				if err := a.Store(idx, p); err != nil {
					t.Errorf("Store(%d): %v", idx, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for p := 0; p < procs; p++ {
		for i := 0; i < per; i++ {
			if v, ok := a.Load(uint64(p*per + i)); !ok || v != p {
				t.Fatalf("row %d = (%d, %t), want %d", p*per+i, v, ok, p)
			}
		}
	}
}

func TestBitTableSetRow(t *testing.T) {
	t.Parallel()
	b, err := unbounded.NewHistory[uint64](8, 0)
	if err != nil {
		t.Fatalf("NewHistory: %v", err)
	}
	if got := b.Row(7); got != 0 {
		t.Fatalf("fresh row = %#x", got)
	}
	if err := b.Or(7, 1<<3); err != nil {
		t.Fatalf("Or: %v", err)
	}
	if err := b.Or(7, 1<<0); err != nil {
		t.Fatalf("Or: %v", err)
	}
	if got := b.Row(7); got != 0b1001 {
		t.Fatalf("row = %#x, want 0b1001", got)
	}
	// Or merges.
	if err := b.Or(7, 0b0110); err != nil {
		t.Fatalf("Or: %v", err)
	}
	if got := b.Row(7); got != 0b1111 {
		t.Fatalf("row after Or = %#x, want 0b1111", got)
	}
	// Or with zero is a no-op even out of range.
	if err := b.Or(1<<40, 0); err != nil {
		t.Fatalf("Or(.., 0) should be a no-op: %v", err)
	}
}

func TestBitTableValidation(t *testing.T) {
	t.Parallel()
	b, err := unbounded.NewHistory[uint64](64, 10)
	if err != nil {
		t.Fatalf("NewHistory: %v", err)
	}
	// Reader bits index a row of width 64 here; a reader count outside
	// [1, 64], which would need a bit beyond the row, is refused up front.
	for _, m := range []int{-1, 0, 65} {
		if _, err := unbounded.NewHistory[uint64](m, 10); err == nil {
			t.Errorf("reader count %d accepted", m)
		}
	}
	if err := b.Or(0, 1<<63); err != nil {
		t.Errorf("bit 63 refused: %v", err)
	}
	if err := b.Or(b.Capacity(), 1); !errors.Is(err, unbounded.ErrCapacity) {
		t.Errorf("row beyond capacity: %v, want ErrCapacity", err)
	}
	if _, err := unbounded.NewHistory[uint64](64, -5); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestBitTableConcurrentOrsMerge(t *testing.T) {
	t.Parallel()
	b, err := unbounded.NewHistory[uint64](32, 0)
	if err != nil {
		t.Fatalf("NewHistory: %v", err)
	}
	const procs = 32
	var wg sync.WaitGroup
	for j := 0; j < procs; j++ {
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := b.Or(5, 1<<j); err != nil {
				t.Errorf("Or(5, 1<<%d): %v", j, err)
			}
		}()
	}
	wg.Wait()
	if got := b.Row(5); got != 1<<procs-1 {
		t.Fatalf("row = %#x, want all %d bits", got, procs)
	}
}

func TestBitTableQuickIdempotentMonotone(t *testing.T) {
	t.Parallel()
	b, err := unbounded.NewHistory[uint64](64, 1<<16)
	if err != nil {
		t.Fatalf("NewHistory: %v", err)
	}
	f := func(row uint16, bit uint8) bool {
		j := int(bit) % 64
		before := b.Row(uint64(row))
		if err := b.Or(uint64(row), 1<<j); err != nil {
			return false
		}
		after := b.Row(uint64(row))
		// Monotone, contains the new bit, and changes nothing else.
		return after&before == before && after&(1<<j) != 0 && after&^(before|1<<j) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
