package shmem_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"auditreg/internal/shmem"
)

// TestFastBackendsAllocationFree: the whole point of the seqlock backend is
// that no primitive heap-allocates.
func TestFastBackendsAllocationFree(t *testing.T) {
	r := shmem.NewSeqlockTriple(shmem.Triple[uint64]{Seq: 0, Val: 1, Bits: 0})
	t.Run("seqlock", func(t *testing.T) {
		var seq uint64
		if n := testing.AllocsPerRun(200, func() {
			cur := r.Load()
			next := shmem.Triple[uint64]{Seq: seq + 1, Val: cur.Val + 1, Nonce: seq, Bits: cur.Bits}
			if !r.CompareAndSwap(cur, next) {
				t.Fatal("sequential CAS failed")
			}
			seq++
			r.FetchXor(0b11)
			r.Load()
		}); n != 0 {
			t.Fatalf("load/cas/xor cycle allocated %v times per run", n)
		}
	})
}

// TestFastBackendsWriterReaderStress runs the register's actual access
// pattern — one writer CASing monotone (seq, val, nonce) triples, readers
// loading and xoring — and checks every observed triple is internally
// consistent (val == seq+base and nonce == ^seq, relations the writer
// maintains). Run with -race this doubles as the memory-model check for the
// seqlock protocol.
func TestFastBackendsWriterReaderStress(t *testing.T) {
	t.Parallel()
	const base = 1000
	r := shmem.NewSeqlockTriple(shmem.Triple[uint64]{Seq: 0, Val: base, Nonce: ^uint64(0), Bits: 0})
	t.Run("seqlock", func(t *testing.T) {
		t.Parallel()
		const writes = 20000
		var bad atomic.Uint64
		var wg sync.WaitGroup
		stop := make(chan struct{})
		check := func(tr shmem.Triple[uint64]) {
			if tr.Val != tr.Seq+base || tr.Nonce != ^tr.Seq {
				bad.Add(1)
			}
		}
		for g := 0; g < 3; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if i%4 == 0 {
						check(r.FetchXor(1 << uint(g)))
					} else {
						check(r.Load())
					}
				}
			}()
		}
		for i := uint64(0); i < writes; {
			cur := r.Load()
			check(cur)
			next := shmem.Triple[uint64]{Seq: cur.Seq + 1, Val: cur.Seq + 1 + base, Nonce: ^(cur.Seq + 1), Bits: cur.Bits}
			if r.CompareAndSwap(cur, next) {
				i++
			}
		}
		close(stop)
		wg.Wait()
		if n := bad.Load(); n != 0 {
			t.Fatalf("%d torn (seq, val, nonce) triples observed", n)
		}
		if got := r.Load(); got.Seq != writes {
			t.Fatalf("final seq %d, want %d", got.Seq, writes)
		}
	})
}
