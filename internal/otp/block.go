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

// DefaultPadWindow is the number of pad blocks BlockPads' window retains (a
// power of two): 32 sequence numbers in 384 bytes. Pads are looked up only
// near R's current sequence number — by writers for lsn and sn, by an auditor
// for rsn alone, its history rows coming from B in plaintext — so the window
// spans that spread, not an audit backlog.
const DefaultPadWindow = 8

// DerivationCounter is implemented by pad sources that count how many SHA-256
// digest computations they have performed. Benchmarks use it to report
// hash compressions per operation.
type DerivationCounter interface {
	// Derivations returns the cumulative number of SHA-256 digests computed.
	Derivations() uint64
}

// padSlot is one window entry, a 48-byte seqlock record: ver is odd while a
// publisher rewrites the slot, idx holds the cached block index plus one (0
// while empty), and masks holds that block's four pads.
type padSlot struct {
	ver   atomic.Uint64
	idx   atomic.Uint64
	masks [MasksPerBlock]atomic.Uint64
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
	window      []padSlot
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
// be a power of two. Smaller windows stress eviction in tests; one wider than
// DefaultPadWindow saves no digest (see there).
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
		window:     make([]padSlot, window),
	}, nil
}

// Readers returns the number of readers m the pads cover.
func (p *BlockPads) Readers() int { return p.m }

// Derivations implements DerivationCounter.
func (p *BlockPads) Derivations() uint64 { return p.derivations.Load() }

// Mask implements PadSource, allocation-free. A hit reads the slot's version
// and index, then the mask, then the version again. A miss derives the whole
// block by value and publishes it only if it wins the slot's version CAS; a
// loser, like a racing miss on the same block, serves its identical copy.
func (p *BlockPads) Mask(s uint64) uint64 {
	b := s / MasksPerBlock
	slot := &p.window[b&p.windowMask]
	if v := slot.ver.Load(); v&1 == 0 && slot.idx.Load() == b+1 {
		m := slot.masks[s%MasksPerBlock].Load()
		if slot.ver.Load() == v {
			return m
		}
	}
	masks := p.Block(b)
	if v := slot.ver.Load(); v&1 == 0 && slot.ver.CompareAndSwap(v, v+1) {
		for i, m := range masks {
			slot.masks[i].Store(m)
		}
		slot.idx.Store(b + 1)
		slot.ver.Store(v + 2)
	}
	return masks[s%MasksPerBlock]
}

// Block returns the four masks of block b — Mask(4b) .. Mask(4b+3) — by
// value, past the window: one SHA-256 over 41 bytes (a single
// compression-function call), cut into four little-endian words. A
// sequential pass that visits every block once (a recovery scan) gains
// nothing from the window.
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
