package unbounded_test

import (
	"errors"
	"sync"
	"testing"

	"auditreg/internal/unbounded"
)

func TestU64ArrayStoreLoad(t *testing.T) {
	t.Parallel()
	a, err := unbounded.NewHistory[uint64](16, 0)
	if err != nil {
		t.Fatalf("NewHistory: %v", err)
	}
	if _, ok := a.Load(0); ok {
		t.Fatal("empty row reported written")
	}
	// A stored zero must be distinguishable from an empty slot.
	if err := a.Store(0, 0); err != nil {
		t.Fatalf("Store: %v", err)
	}
	if v, ok := a.Load(0); !ok || v != 0 {
		t.Fatalf("Load = (%d, %t), want (0, true)", v, ok)
	}
	if err := a.Store(123456, 77); err != nil {
		t.Fatalf("Store far: %v", err)
	}
	if v, ok := a.Load(123456); !ok || v != 77 {
		t.Fatalf("Load far = (%d, %t)", v, ok)
	}
	if _, ok := a.Load(123455); ok {
		t.Fatal("neighbour row reported written")
	}
}

func TestU64ArrayCapacityBound(t *testing.T) {
	t.Parallel()
	a, err := unbounded.NewHistory[uint64](16, 100)
	if err != nil {
		t.Fatalf("NewHistory: %v", err)
	}
	if err := a.Store(a.Capacity(), 1); !errors.Is(err, unbounded.ErrCapacity) {
		t.Fatalf("store beyond capacity: %v, want ErrCapacity", err)
	}
	if _, ok := a.Load(a.Capacity() + 5); ok {
		t.Fatal("load beyond capacity reported written")
	}
	if _, err := unbounded.NewHistory[uint64](16, -1); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

// TestU64ArrayStoreAllocationFree: after a row's block exists, Store must
// not allocate — this is what makes the uint64 write path of the register
// allocation-free.
func TestU64ArrayStoreAllocationFree(t *testing.T) {
	a, err := unbounded.NewHistory[uint64](16, 0)
	if err != nil {
		t.Fatalf("NewHistory: %v", err)
	}
	if err := a.Store(0, 1); err != nil { // materialize block 0
		t.Fatalf("Store: %v", err)
	}
	var i uint64
	if n := testing.AllocsPerRun(500, func() {
		i++
		if err := a.Store(i%1000, i); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Store allocated %v times per run", n)
	}
}

func TestU64ArrayConcurrentSameValueStores(t *testing.T) {
	t.Parallel()
	a, err := unbounded.NewHistory[uint64](16, 0)
	if err != nil {
		t.Fatalf("NewHistory: %v", err)
	}
	// The register's usage: concurrent stores to one row carry one value.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < 2000; i++ {
				_ = a.Store(i, i*3)
			}
		}()
	}
	wg.Wait()
	for i := uint64(0); i < 2000; i++ {
		if v, ok := a.Load(i); !ok || v != i*3 {
			t.Fatalf("row %d = (%d, %t), want (%d, true)", i, v, ok, i*3)
		}
	}
}
