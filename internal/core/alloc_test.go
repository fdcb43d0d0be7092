package core_test

import (
	"testing"

	"auditreg/internal/core"
	"auditreg/internal/otp"
)

// TestSilentReadAllocationFree: a read that finds no new write answers from
// the handle cache — one atomic load, zero heap allocations, regardless of
// backend or value type.
func TestSilentReadAllocationFree(t *testing.T) {
	reg := newReg(t, "seqlock", 2, 7)
	rd := mustReader(t, reg, 0)
	if err := reg.Write(42); err != nil {
		t.Fatalf("Write: %v", err)
	}
	rd.Read() // populate the cache; every further read is silent
	if n := testing.AllocsPerRun(1000, func() {
		if rd.Read() != 42 {
			t.Fatal("silent read returned wrong value")
		}
	}); n != 0 {
		t.Fatalf("silent Read allocated %v times per run", n)
	}
}

// TestUint64WriteAllocationFree: on the auto-selected seqlock backend an
// uncontended uint64 write performs no heap allocation — the triple CAS, the
// value log store, and the bit-table OR all work in place. FixedPads isolate
// the register path from pad derivation (see
// TestUint64WriteBlockPadsAllocationFree).
func TestUint64WriteAllocationFree(t *testing.T) {
	pads, err := otp.NewFixedPads(0xA5A5, 0x5A5A, 0xFFFF, 0x0101)
	if err != nil {
		t.Fatalf("NewFixedPads: %v", err)
	}
	t.Run("seqlock", func(t *testing.T) {
		reg, err := core.New[uint64](4, 0, pads)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		w := reg.Writer()
		if err := w.Write(1); err != nil { // materialize history chunk 0
			t.Fatalf("Write: %v", err)
		}
		var i uint64
		// Stay below one unbounded chunk (1024 sequence numbers) so no
		// chunk materialization is charged to the measured writes.
		if n := testing.AllocsPerRun(500, func() {
			i++
			if err := w.Write(i); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("uint64 Write allocated %v times per run", n)
		}
	})
}

// TestUint64MaxRegisterAllocations: a uint64 max register runs on the same
// seqlock R and inline V as the plain register, keeps M's (value, nonce) pair
// in a seqlock register too, and draws its pads from BlockPads' in-place
// window, so neither its reads nor its writeMaxes allocate. A run is eight
// writeMaxes, two pad blocks' worth, so a block allocated per miss would
// show.
func TestUint64MaxRegisterAllocations(t *testing.T) {
	pads, err := otp.NewBlockPads(otp.KeyFromSeed(9), 4)
	if err != nil {
		t.Fatalf("NewBlockPads: %v", err)
	}
	reg, err := core.NewMaxRegister[uint64](4, 0, func(a, b uint64) bool { return a < b }, pads)
	if err != nil {
		t.Fatalf("NewMaxRegister: %v", err)
	}
	w, err := reg.Writer(otp.NewSeededNonces(1, 1))
	if err != nil {
		t.Fatalf("Writer: %v", err)
	}
	rd, err := reg.Reader(0)
	if err != nil {
		t.Fatalf("Reader: %v", err)
	}
	if err := w.WriteMax(1); err != nil { // materialize history chunk 0
		t.Fatalf("WriteMax: %v", err)
	}
	rd.Read()
	if n := testing.AllocsPerRun(500, func() { rd.Read() }); n != 0 {
		t.Fatalf("silent Read allocated %v times per run", n)
	}
	i := uint64(1)
	if n := testing.AllocsPerRun(50, func() {
		for range 8 {
			i++
			if err := w.WriteMax(i); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Fatalf("8 WriteMaxes allocated %v times per run, want 0", n)
	}
	// Every read below follows a new maximum, so each is effective.
	if n := testing.AllocsPerRun(50, func() {
		for range 8 {
			i++
			if err := w.WriteMax(i); err != nil {
				t.Fatal(err)
			}
			if rd.Read() != i {
				t.Fatal("effective read missed the new maximum")
			}
		}
	}); n != 0 {
		t.Fatalf("8 WriteMax + effective Read pairs allocated %v times per run, want 0", n)
	}
}

// TestUint64WriteBlockPadsAllocationFree: with the production BlockPads
// source a write still allocates nothing — a window miss derives its block
// by value and publishes it into the slot in place. A run is eight writes,
// two pad blocks' worth, so a block allocated per miss would show.
func TestUint64WriteBlockPadsAllocationFree(t *testing.T) {
	pads, err := otp.NewBlockPads(otp.KeyFromSeed(9), 4)
	if err != nil {
		t.Fatalf("NewBlockPads: %v", err)
	}
	reg, err := core.New[uint64](4, 0, pads)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w := reg.Writer()
	if err := w.Write(1); err != nil {
		t.Fatalf("Write: %v", err)
	}
	var i uint64
	if n := testing.AllocsPerRun(50, func() {
		for range 8 {
			i++
			if err := w.Write(i); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Fatalf("8 uint64 Writes under BlockPads allocated %v times per run, want 0", n)
	}
}

// TestIncrementalAuditAllocationFree: an audit that finds no new history rows
// and no new readers of the current value must not allocate — the lsa cursor
// skips the scan, the pad memo skips the digest, and the report is a
// zero-copy view.
func TestIncrementalAuditAllocationFree(t *testing.T) {
	reg := newReg(t, "seqlock", 2, 0)
	rd := mustReader(t, reg, 0)
	w := reg.Writer()
	for i := 0; i < 10; i++ {
		if err := w.Write(uint64(i + 1)); err != nil {
			t.Fatalf("Write: %v", err)
		}
		rd.Read()
	}
	auditor := reg.Auditor()
	if _, err := auditor.Audit(); err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := auditor.Audit(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("quiescent incremental Audit allocated %v times per run", n)
	}
}
