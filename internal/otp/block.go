package otp

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// MasksPerBlock is how many consecutive pads one SHA-256 digest yields: the
// 32-byte digest is cut into four little-endian 64-bit masks
// rand_{4b} .. rand_{4b+3}.
const MasksPerBlock = 4

// blockDomain separates the block derivation from the per-sequence-number
// derivation of KeyedPads, so the two sources never share digest inputs even
// under the same key.
const blockDomain = 0xB1

// DefaultPadWindow is the default number of pad blocks the lock-free window
// cache of BlockPads retains (a power of two). It covers
// DefaultPadWindow*MasksPerBlock consecutive sequence numbers, comfortably
// more than the spread between the register's current sequence number and the
// trailing writers and auditors that still decode it.
const DefaultPadWindow = 64

// DerivationCounter is implemented by pad sources that count how many SHA-256
// digest computations they have performed. Benchmarks use it to report
// hash compressions per operation.
type DerivationCounter interface {
	// Derivations returns the cumulative number of SHA-256 digests computed.
	Derivations() uint64
}

// padBlock is one derived block: the four masks for sequence numbers
// [4*idx, 4*idx+3].
type padBlock struct {
	idx   uint64
	masks [MasksPerBlock]uint64
}

// BlockPads derives pads in blocks: one SHA-256 digest over
// (key ‖ blockIndex ‖ domain) yields the four masks rand_{4b}..rand_{4b+3}.
// Blocks are served through a lock-free power-of-two window cache, so the
// write path of Algorithm 1 — which looks up the outgoing pad rand_{lsn} and
// the incoming pad rand_{sn} on every CAS attempt — amortizes to a quarter of
// a digest per fresh sequence number instead of two digests per attempt.
//
// To a computationally bounded observer without the key the sequence is
// indistinguishable from independent uniform masks, exactly as for KeyedPads;
// the two sources draw from disjoint digest inputs (see blockDomain) and
// therefore produce independent pad sequences even under the same key.
//
// Safe for concurrent use. Construct with NewBlockPads; the zero value is not
// usable.
type BlockPads struct {
	key   Key
	m     int
	maskM uint64

	windowMask  uint64
	window      []atomic.Pointer[padBlock]
	derivations atomic.Uint64
}

var _ PadSource = (*BlockPads)(nil)
var _ DerivationCounter = (*BlockPads)(nil)

// NewBlockPads returns a block-derived pad source for m readers
// (1 <= m <= MaxReaders) backed by the given shared key, with the default
// window size.
func NewBlockPads(key Key, m int) (*BlockPads, error) {
	return NewBlockPadsWindow(key, m, DefaultPadWindow)
}

// NewBlockPadsWindow is NewBlockPads with an explicit window size, which must
// be a power of two. Smaller windows stress eviction in tests; larger windows
// serve deeper incremental-audit backlogs without re-hashing.
func NewBlockPadsWindow(key Key, m, window int) (*BlockPads, error) {
	if m < 1 || m > MaxReaders {
		return nil, fmt.Errorf("otp: m must be in [1, %d], got %d", MaxReaders, m)
	}
	if window < 1 || window&(window-1) != 0 {
		return nil, fmt.Errorf("otp: window must be a positive power of two, got %d", window)
	}
	return &BlockPads{
		key:        key,
		m:          m,
		maskM:      MaskBits(m),
		windowMask: uint64(window - 1),
		window:     make([]atomic.Pointer[padBlock], window),
	}, nil
}

// Readers returns the number of readers m the pads cover.
func (p *BlockPads) Readers() int { return p.m }

// Derivations implements DerivationCounter.
func (p *BlockPads) Derivations() uint64 { return p.derivations.Load() }

// Mask implements PadSource. A hit in the window cache is two atomic loads;
// a miss derives the whole four-mask block and publishes it. Concurrent
// misses on the same block may derive it more than once; the derivation is
// deterministic, so every copy is identical and last-publish-wins is safe.
func (p *BlockPads) Mask(s uint64) uint64 {
	b := s / MasksPerBlock
	slot := &p.window[b&p.windowMask]
	if blk := slot.Load(); blk != nil && blk.idx == b {
		return blk.masks[s%MasksPerBlock] & p.maskM
	}
	blk := p.derive(b)
	slot.Store(blk)
	return blk.masks[s%MasksPerBlock] & p.maskM
}

// derive computes the block for index b, to be cached in the window.
func (p *BlockPads) derive(b uint64) *padBlock {
	return &padBlock{idx: b, masks: p.Block(b)}
}

// Block returns the four masks of block b — Mask(4b) .. Mask(4b+3) — by
// value, past the window: one SHA-256 over 41 bytes (a single
// compression-function call), cut into four little-endian words. A
// sequential pass that visits every block once (a recovery scan) gains
// nothing from a cached block and would pay one allocation for each.
func (p *BlockPads) Block(b uint64) [MasksPerBlock]uint64 {
	p.derivations.Add(1)
	var buf [41]byte
	copy(buf[:32], p.key[:])
	binary.LittleEndian.PutUint64(buf[32:40], b)
	buf[40] = blockDomain
	sum := sha256.Sum256(buf[:])
	var masks [MasksPerBlock]uint64
	for i := range masks {
		masks[i] = binary.LittleEndian.Uint64(sum[8*i:]) & p.maskM
	}
	return masks
}

// PadCache is a small direct-mapped per-handle memo in front of a PadSource.
// Writer handles look up the same two pads — rand_{lsn} for the value they
// copy out and rand_{sn} for the value they install — on every iteration of
// their CAS retry loop, and incremental auditors re-decode rand_{rsn} on
// every audit; the cache turns those repeats into four comparisons and no
// shared-memory traffic at all.
//
// Not safe for concurrent use: embed one per process handle. The zero value
// is not usable; construct with NewPadCache.
type PadCache struct {
	src  PadSource
	seq  [4]uint64
	mask [4]uint64
	ok   [4]bool
}

// NewPadCache returns a cache in front of src.
func NewPadCache(src PadSource) PadCache {
	return PadCache{src: src}
}

// Mask returns src.Mask(s), memoized. Four direct-mapped entries cover the
// writer's (lsn, sn) working set, which occupies distinct slots in the common
// case sn = lsn+1.
func (c *PadCache) Mask(s uint64) uint64 {
	i := s & 3
	if c.ok[i] && c.seq[i] == s {
		return c.mask[i]
	}
	m := c.src.Mask(s)
	c.seq[i], c.mask[i], c.ok[i] = s, m, true
	return m
}
