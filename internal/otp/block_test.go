package otp_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"auditreg/internal/otp"
)

// naiveBlockMask re-derives rand_s from scratch, independently of BlockPads'
// window cache: one SHA-256 over (key ‖ s/4 ‖ 0xB1), sliced at offset 8*(s%4).
func naiveBlockMask(key otp.Key, m int, s uint64) uint64 {
	var buf [41]byte
	copy(buf[:32], key[:])
	binary.LittleEndian.PutUint64(buf[32:40], s/4)
	buf[40] = 0xB1
	sum := sha256.Sum256(buf[:])
	return binary.LittleEndian.Uint64(sum[8*(s%4):]) & otp.MaskBits(m)
}

// TestBlockPadsDerivationEquivalence: the windowed, cached fast path must
// agree with a from-scratch re-derivation on every sequence number, under
// sequential, strided, and random access patterns (which exercise window hits,
// misses, and evictions).
func TestBlockPadsDerivationEquivalence(t *testing.T) {
	t.Parallel()
	key := otp.KeyFromSeed(11)
	const m = 48
	p, err := otp.NewBlockPadsWindow(key, m, 8) // tiny window: force evictions
	if err != nil {
		t.Fatalf("NewBlockPadsWindow: %v", err)
	}
	// Sequential.
	for s := uint64(0); s < 500; s++ {
		if got, want := p.Mask(s), naiveBlockMask(key, m, s); got != want {
			t.Fatalf("sequential: Mask(%d) = %#x, want %#x", s, got, want)
		}
	}
	// Random access, including revisits of evicted blocks.
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 2000; i++ {
		s := rng.Uint64N(1 << 20)
		if got, want := p.Mask(s), naiveBlockMask(key, m, s); got != want {
			t.Fatalf("random: Mask(%d) = %#x, want %#x", s, got, want)
		}
	}
}

func TestBlockPadsDeterministicAndKeyed(t *testing.T) {
	t.Parallel()
	key := otp.KeyFromSeed(7)
	p1, err := otp.NewBlockPads(key, 16)
	if err != nil {
		t.Fatalf("NewBlockPads: %v", err)
	}
	p2, err := otp.NewBlockPads(key, 16)
	if err != nil {
		t.Fatalf("NewBlockPads: %v", err)
	}
	other, err := otp.NewBlockPads(otp.KeyFromSeed(8), 16)
	if err != nil {
		t.Fatalf("NewBlockPads: %v", err)
	}
	differs := false
	for s := uint64(0); s < 256; s++ {
		if p1.Mask(s) != p2.Mask(s) {
			t.Fatalf("pad sequence not deterministic at s=%d", s)
		}
		if p1.Mask(s) != other.Mask(s) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("distinct keys produced identical pad sequences")
	}
}

func TestBlockPadsRespectWidth(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, mRaw uint8, s uint64) bool {
		m := int(mRaw)%otp.MaxReaders + 1
		p, err := otp.NewBlockPads(otp.KeyFromSeed(seed), m)
		if err != nil {
			return false
		}
		return p.Mask(s)&^otp.MaskBits(m) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBlockIsFourMasks: Block(b), the uncached whole-block read, is exactly
// Mask(4b) .. Mask(4b+3), at any reader width.
func TestBlockIsFourMasks(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, mRaw uint8, b uint32) bool {
		p, err := otp.NewBlockPads(otp.KeyFromSeed(seed), int(mRaw)%otp.MaxReaders+1)
		if err != nil {
			return false
		}
		for i, mask := range p.Block(uint64(b)) {
			if mask != p.Mask(uint64(b)*otp.MasksPerBlock+uint64(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBlockPadsDisjointFromKeyedPads: under the same key, the block-derived
// sequence must be unrelated to the legacy per-sequence-number sequence — the
// domain byte keeps their digest inputs disjoint.
func TestBlockPadsDisjointFromKeyedPads(t *testing.T) {
	t.Parallel()
	key := otp.KeyFromSeed(3)
	block, err := otp.NewBlockPads(key, 64)
	if err != nil {
		t.Fatalf("NewBlockPads: %v", err)
	}
	keyed, err := otp.NewKeyedPads(key, 64)
	if err != nil {
		t.Fatalf("NewKeyedPads: %v", err)
	}
	collisions := 0
	for s := uint64(0); s < 256; s++ {
		if block.Mask(s) == keyed.Mask(s) {
			collisions++
		}
	}
	if collisions > 0 {
		t.Fatalf("block and keyed sequences collide on %d/256 masks", collisions)
	}
}

// TestBlockPadsAmortizedDerivations: a sequential scan of S sequence numbers
// must cost about S/4 digests — the 4x compression-count win over KeyedPads.
func TestBlockPadsAmortizedDerivations(t *testing.T) {
	t.Parallel()
	p, err := otp.NewBlockPads(otp.KeyFromSeed(5), 32)
	if err != nil {
		t.Fatalf("NewBlockPads: %v", err)
	}
	const span = 4096
	for s := uint64(0); s < span; s++ {
		p.Mask(s)
		p.Mask(s) // repeat lookups must be free
	}
	if got := p.Derivations(); got != span/otp.MasksPerBlock {
		t.Fatalf("scan of %d seqs cost %d derivations, want %d", span, got, span/otp.MasksPerBlock)
	}

	keyed, err := otp.NewKeyedPads(otp.KeyFromSeed(5), 32)
	if err != nil {
		t.Fatalf("NewKeyedPads: %v", err)
	}
	for s := uint64(0); s < span; s++ {
		keyed.Mask(s)
	}
	if got := keyed.Derivations(); got != span {
		t.Fatalf("KeyedPads cost %d derivations over %d masks", got, span)
	}
}

// TestBlockPadsConcurrent hammers one source from many goroutines through a
// window of one and of two slots, so nearly every lookup fights over a slot
// another goroutine is rewriting. Each mask is compared against the naive
// derivation: a slot whose index is published outside the version's odd
// window, or a hit that skips the version re-check, serves a torn block.
func TestBlockPadsConcurrent(t *testing.T) {
	t.Parallel()
	key := otp.KeyFromSeed(21)
	const m = 64
	for _, window := range []int{1, 2} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			t.Parallel()
			p, err := otp.NewBlockPadsWindow(key, m, window)
			if err != nil {
				t.Fatalf("NewBlockPadsWindow: %v", err)
			}
			var want [16]uint64 // four blocks
			for s := range want {
				want[s] = naiveBlockMask(key, m, uint64(s))
			}
			var wg sync.WaitGroup
			var bad atomic.Uint64
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(uint64(g), 9))
					for i := 0; i < 3000; i++ {
						s := rng.Uint64N(uint64(len(want)))
						if p.Mask(s) != want[s] {
							bad.Add(1)
						}
					}
				}()
			}
			wg.Wait()
			if n := bad.Load(); n != 0 {
				t.Fatalf("%d of 24000 masks wrong under concurrency", n)
			}
		})
	}
}

// TestBlockPadsAllocationFree: a window miss derives its block by value and
// publishes it into the slot in place, so neither a scan that misses once per
// block nor the hits between allocate.
func TestBlockPadsAllocationFree(t *testing.T) {
	p, err := otp.NewBlockPads(otp.KeyFromSeed(5), 32)
	if err != nil {
		t.Fatalf("NewBlockPads: %v", err)
	}
	var s uint64
	if n := testing.AllocsPerRun(100, func() {
		for range 8 { // two blocks: two misses, six hits
			p.Mask(s)
			s++
		}
	}); n != 0 {
		t.Fatalf("8 Mask lookups allocated %v times per run, want 0", n)
	}
}

func TestBlockPadsValidation(t *testing.T) {
	t.Parallel()
	if _, err := otp.NewBlockPads(otp.Key{}, 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := otp.NewBlockPads(otp.Key{}, 65); err == nil {
		t.Error("m=65 accepted")
	}
	if _, err := otp.NewBlockPadsWindow(otp.Key{}, 4, 3); err == nil {
		t.Error("non-power-of-two window accepted")
	}
	if _, err := otp.NewBlockPadsWindow(otp.Key{}, 4, 0); err == nil {
		t.Error("zero window accepted")
	}
}

// TestPadCache: repeats hit the memo (no derivations), the writer's (lsn, sn)
// working set coexists, and values always match the underlying source.
func TestPadCache(t *testing.T) {
	t.Parallel()
	src, err := otp.NewKeyedPads(otp.KeyFromSeed(13), 16)
	if err != nil {
		t.Fatalf("NewKeyedPads: %v", err)
	}
	ref, err := otp.NewKeyedPads(otp.KeyFromSeed(13), 16)
	if err != nil {
		t.Fatalf("NewKeyedPads: %v", err)
	}
	c := otp.NewPadCache(src)

	// Writer working set: pads lsn and sn=lsn+1, repeated per retry.
	for retry := 0; retry < 10; retry++ {
		if c.Mask(41) != ref.Mask(41) || c.Mask(42) != ref.Mask(42) {
			t.Fatal("cached mask diverged from source")
		}
	}
	if got := src.Derivations(); got != 2 {
		t.Fatalf("10 retries over {41, 42} cost %d derivations, want 2", got)
	}

	// Random probes stay correct through evictions.
	rng := rand.New(rand.NewPCG(4, 4))
	for i := 0; i < 500; i++ {
		s := rng.Uint64N(64)
		if c.Mask(s) != ref.Mask(s) {
			t.Fatalf("PadCache.Mask(%d) diverged", s)
		}
	}
}
