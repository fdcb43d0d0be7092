// Package otp implements the one-time-pad and nonce infrastructure of
// "Auditing without Leaks Despite Curiosity" (Attiya et al., PODC 2025).
//
// The paper assumes an infinite sequence of random m-bit strings
// rand_0, rand_1, ... shared by writers and auditors but unknown to readers
// (Section 2, "One-time pads"). Each rand_s encrypts the reader set of the
// value with sequence number s: the empty set is encrypted as rand_s itself,
// and reader j inserts itself by XOR-ing tracking bit j, exploiting the
// additive malleability of the pad.
//
// We realize the shared sequence as a PRF over a 256-bit shared secret:
// rand_s = SHA-256(key ‖ s) truncated to m bits. To a computationally bounded
// observer without the key this is indistinguishable from the paper's
// sequence of independent uniform strings, and it makes runs reproducible.
package otp

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	mathrand "math/rand/v2"
	"sync"
	"sync/atomic"
)

// MaxReaders is the largest number of readers m supported by a single pad:
// the m tracking bits are packed into one 64-bit word, as the paper packs
// them into the low bits of the register R.
const MaxReaders = 64

// PadSource yields the per-sequence-number masks rand_s shared by writers and
// auditors. Implementations must be safe for concurrent use and must return
// the same mask for the same sequence number on every call.
type PadSource interface {
	// Mask returns the m-bit pad rand_s for sequence number s, in the low
	// m bits of the result. Bits at positions >= m are zero.
	Mask(s uint64) uint64
}

// Key is the 256-bit shared secret from which a pad sequence is derived.
// It must be known to writers and auditors only; a reader holding the key can
// decrypt tracking bits and compromise other readers' accesses.
type Key [32]byte

// NewKey returns a fresh random key using the operating system's entropy
// source.
func NewKey() (Key, error) {
	var k Key
	if _, err := rand.Read(k[:]); err != nil {
		return Key{}, fmt.Errorf("otp: generating key: %w", err)
	}
	return k, nil
}

// KeyFromSeed derives a key deterministically from a 64-bit seed. It is
// intended for tests and reproducible experiments; production code should use
// NewKey.
func KeyFromSeed(seed uint64) Key {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], seed)
	return sha256.Sum256(buf[:])
}

// KeyedPads derives rand_s = SHA-256(key ‖ s) truncated to m bits.
// The zero value is not usable; construct with NewKeyedPads.
type KeyedPads struct {
	key         Key
	m           int
	derivations atomic.Uint64
}

var _ PadSource = (*KeyedPads)(nil)
var _ DerivationCounter = (*KeyedPads)(nil)

// NewKeyedPads returns a pad source for m readers (1 <= m <= MaxReaders)
// backed by the given shared key.
func NewKeyedPads(key Key, m int) (*KeyedPads, error) {
	if m < 1 || m > MaxReaders {
		return nil, fmt.Errorf("otp: m must be in [1, %d], got %d", MaxReaders, m)
	}
	return &KeyedPads{key: key, m: m}, nil
}

// Readers returns the number of readers m the pads cover.
func (p *KeyedPads) Readers() int { return p.m }

// Mask implements PadSource: one SHA-256 digest per call. BlockPads derives
// the same-strength pads at a quarter digest per fresh sequence number.
func (p *KeyedPads) Mask(s uint64) uint64 {
	p.derivations.Add(1)
	var buf [40]byte
	copy(buf[:32], p.key[:])
	binary.LittleEndian.PutUint64(buf[32:], s)
	sum := sha256.Sum256(buf[:])
	return binary.LittleEndian.Uint64(sum[:8]) & MaskBits(p.m)
}

// Derivations implements DerivationCounter.
func (p *KeyedPads) Derivations() uint64 { return p.derivations.Load() }

// FixedPads serves masks from an explicit table, cycling past the end.
// It is intended for tests that need hand-picked pads.
type FixedPads struct {
	masks []uint64
}

var _ PadSource = (*FixedPads)(nil)

// NewFixedPads returns a pad source serving masks[s % len(masks)].
func NewFixedPads(masks ...uint64) (*FixedPads, error) {
	if len(masks) == 0 {
		return nil, fmt.Errorf("otp: fixed pads need at least one mask")
	}
	cp := make([]uint64, len(masks))
	copy(cp, masks)
	return &FixedPads{masks: cp}, nil
}

// Mask implements PadSource.
func (p *FixedPads) Mask(s uint64) uint64 {
	return p.masks[s%uint64(len(p.masks))]
}

// ZeroPads disables encryption: every mask is zero, so tracking bits are
// stored in the clear. It exists to reproduce the paper's Section 3.1
// observation that plaintext reader sets compromise reads, and as the
// "encryption off" ablation in benchmarks. Never use it where the leak-
// freedom guarantees matter.
type ZeroPads struct{}

var _ PadSource = ZeroPads{}

// Mask implements PadSource: always zero.
func (ZeroPads) Mask(uint64) uint64 { return 0 }

// MaskBits returns a word with the low m bits set (m in [0, 64]).
func MaskBits(m int) uint64 {
	if m >= 64 {
		return ^uint64(0)
	}
	if m <= 0 {
		return 0
	}
	return (uint64(1) << uint(m)) - 1
}

// NonceSource yields the random nonces appended to max-register inputs
// (Algorithm 2). Nonces from a single source must be unique.
type NonceSource interface {
	// Next returns a fresh nonce.
	Next() uint64
}

// SeededNonces is a deterministic nonce source: 56 random bits from a seeded
// PCG generator concatenated with an 8-bit owner id. Embedding the owner id
// guarantees global uniqueness across sources with distinct owners, which the
// paper obtains probabilistically from "fresh random nonces". Safe for
// concurrent use.
type SeededNonces struct {
	mu    sync.Mutex
	pcg   mathrand.PCG // by value: no Rand or Source to chase to it
	owner uint8
}

var _ NonceSource = (*SeededNonces)(nil)

// NewSeededNonces returns a nonce source owned by the given 8-bit id.
func NewSeededNonces(seed uint64, owner uint8) *SeededNonces {
	return &SeededNonces{pcg: *mathrand.NewPCG(seed, uint64(owner)+0x9e3779b97f4a7c15), owner: owner}
}

// Next implements NonceSource.
func (n *SeededNonces) Next() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pcg.Uint64()<<8 | uint64(n.owner)
}

// FixedNonce always returns the same nonce. It is the "nonces off" ablation
// for Algorithm 2: with a constant nonce, re-writing the same value never
// raises the max register, so sequence-number gaps reveal exactly how many
// distinct values were written — the leak the paper's nonces close
// (Lemma 38). Never use it where leak-freedom matters.
type FixedNonce uint64

var _ NonceSource = FixedNonce(0)

// Next implements NonceSource: always the fixed value.
func (n FixedNonce) Next() uint64 { return uint64(n) }

// CryptoNonces draws nonces from the operating system's entropy source,
// with the owner id in the low byte as for SeededNonces.
type CryptoNonces struct {
	owner uint8
}

var _ NonceSource = (*CryptoNonces)(nil)

// NewCryptoNonces returns a cryptographically random nonce source.
func NewCryptoNonces(owner uint8) *CryptoNonces { return &CryptoNonces{owner: owner} }

// Next implements NonceSource.
func (n *CryptoNonces) Next() uint64 {
	var buf [8]byte
	// rand.Read on the crypto source never fails on supported platforms;
	// if it ever does, a zero nonce is still unique thanks to the owner id
	// but loses unpredictability, so surface loudly.
	if _, err := rand.Read(buf[:]); err != nil {
		panic(fmt.Sprintf("otp: crypto nonce source failed: %v", err))
	}
	return binary.LittleEndian.Uint64(buf[:])<<8 | uint64(n.owner)
}
