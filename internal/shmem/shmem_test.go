package shmem_test

import (
	"sync"
	"testing"
	"testing/quick"

	"auditreg/internal/shmem"
)

// backendNames lists every TripleReg backend, first entry the reference.
var backendNames = []string{"locked", "ptr", "seqlock"}

// newBackends returns one of each TripleReg backend holding init, for
// cross-checking tests.
func newBackends(init shmem.Triple[uint64]) map[string]shmem.TripleReg[uint64] {
	return map[string]shmem.TripleReg[uint64]{
		"locked":  shmem.NewLockedTriple(init),
		"ptr":     shmem.NewPtrTriple(init),
		"seqlock": shmem.NewSeqlockTriple(init),
	}
}

func TestTripleRegBasics(t *testing.T) {
	t.Parallel()
	init := shmem.Triple[uint64]{Seq: 0, Val: 5, Nonce: 3, Bits: 0b1010}
	for name, r := range newBackends(init) {
		r := r
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if got := r.Load(); got != init {
				t.Fatalf("Load = %+v, want %+v", got, init)
			}
			// Failed CAS: wrong old.
			if r.CompareAndSwap(shmem.Triple[uint64]{Seq: 9}, shmem.Triple[uint64]{Seq: 1}) {
				t.Fatal("CAS with wrong old succeeded")
			}
			// Failed CAS: old differs in the nonce alone.
			if r.CompareAndSwap(shmem.Triple[uint64]{Seq: 0, Val: 5, Nonce: 4, Bits: 0b1010}, shmem.Triple[uint64]{Seq: 1}) {
				t.Fatal("CAS with wrong nonce succeeded")
			}
			// Successful CAS.
			next := shmem.Triple[uint64]{Seq: 1, Val: 7, Nonce: 11, Bits: 0b0101}
			if !r.CompareAndSwap(init, next) {
				t.Fatal("CAS with correct old failed")
			}
			if got := r.Load(); got != next {
				t.Fatalf("Load after CAS = %+v, want %+v", got, next)
			}
			// FetchXor returns the pre-state and flips only bits.
			prev := r.FetchXor(0b0011)
			if prev != next {
				t.Fatalf("FetchXor returned %+v, want %+v", prev, next)
			}
			want := next
			want.Bits ^= 0b0011
			if got := r.Load(); got != want {
				t.Fatalf("Load after xor = %+v, want %+v", got, want)
			}
		})
	}
}

// TestTripleRegCrossCheck drives the same random primitive sequence against
// all backends and requires identical observable behaviour.
func TestTripleRegCrossCheck(t *testing.T) {
	t.Parallel()
	type step struct {
		Op   uint8 // mod 3: 0 load, 1 cas, 2 xor
		Seq  uint8
		Val  uint16
		Bits uint16
	}
	f := func(steps []step) bool {
		init := shmem.Triple[uint64]{Seq: 0, Val: 1, Bits: 0}
		regs := newBackends(init)
		names := backendNames
		for _, s := range steps {
			switch s.Op % 3 {
			case 0:
				want := regs[names[0]].Load()
				for _, n := range names[1:] {
					if regs[n].Load() != want {
						return false
					}
				}
			case 1:
				// Propose a CAS from the current content of the
				// first backend; all must agree on the outcome.
				old := regs[names[0]].Load()
				if s.Seq%2 == 0 {
					old.Seq++ // make it fail half the time
				}
				next := shmem.Triple[uint64]{Seq: old.Seq + 1, Val: uint64(s.Val), Nonce: uint64(s.Seq), Bits: uint64(s.Bits)}
				want := regs[names[0]].CompareAndSwap(old, next)
				for _, n := range names[1:] {
					if regs[n].CompareAndSwap(old, next) != want {
						return false
					}
				}
			case 2:
				mask := uint64(s.Bits)
				want := regs[names[0]].FetchXor(mask)
				for _, n := range names[1:] {
					if regs[n].FetchXor(mask) != want {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTripleRegConcurrentXorsCommute: n goroutines each xor a distinct bit
// once; afterwards all bits must be flipped regardless of interleaving, and
// every goroutine must have observed a distinct pre-state (atomicity).
func TestTripleRegConcurrentXorsCommute(t *testing.T) {
	t.Parallel()
	init := shmem.Triple[uint64]{Seq: 3, Val: 9, Bits: 0}
	for name, r := range newBackends(init) {
		r := r
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const n = 16
			prevs := make([]shmem.Triple[uint64], n)
			var wg sync.WaitGroup
			for j := 0; j < n; j++ {
				j := j
				wg.Add(1)
				go func() {
					defer wg.Done()
					prevs[j] = r.FetchXor(1 << uint(j))
				}()
			}
			wg.Wait()
			if got := r.Load().Bits; got != 1<<n-1 {
				t.Fatalf("final bits %#x, want %#x", got, uint64(1<<n-1))
			}
			seen := make(map[uint64]bool, n)
			for _, p := range prevs {
				if seen[p.Bits] {
					t.Fatalf("two xors observed the same pre-state %#x: not atomic", p.Bits)
				}
				seen[p.Bits] = true
			}
		})
	}
}

func TestSeqRegs(t *testing.T) {
	t.Parallel()
	for name, r := range map[string]shmem.SeqReg{
		"atomic": &shmem.AtomicSeq{},
		"locked": &shmem.LockedSeq{},
	} {
		r := r
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if r.Load() != 0 {
				t.Fatal("zero value not 0")
			}
			if r.CompareAndSwap(1, 2) {
				t.Fatal("CAS with wrong old succeeded")
			}
			if !r.CompareAndSwap(0, 5) {
				t.Fatal("CAS with correct old failed")
			}
			if r.Load() != 5 {
				t.Fatal("CAS did not store")
			}
		})
	}
}

func TestAtomicSeqConcurrentMonotone(t *testing.T) {
	t.Parallel()
	var r shmem.AtomicSeq
	const procs = 8
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				cur := r.Load()
				r.CompareAndSwap(cur, cur+1)
			}
		}()
	}
	wg.Wait()
	if got := r.Load(); got == 0 || got > procs*1000 {
		t.Fatalf("implausible final count %d", got)
	}
}
