package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"io"

	"auditreg"
)

// sharePadTag domain-separates the cluster share pads from every other pad
// family in the system (the wire masks, the store's tracking pads).
const sharePadTag = "auditreg/cluster/share-pad/v1\x00"

// SharePad derives the pad XOR-applied to node's share of the named
// object's write wid, truncated to the low 8*shareLen bits: the first bytes
// of SHA-256(tag, secret, node, wid, name). One pad per (node, object, wid)
// — each node's share of each write sits under an independent pad, so even
// n colluding daemons pooling their shares reconstruct only pad-XORed
// noise. The wid bits of the packed value are deliberately NOT covered: the
// node orders writes by them (writeMax), so they are metadata the node
// inherently observes, like sequence numbers.
//
// Pad reuse is safe for the same reason wire.ValueMask's is: the plaintext
// under a given (node, object, wid) pad is fixed — the single writer
// derives wid w's shares once, and redeliveries repeat the identical
// ciphertext.
//
// It sits on the per-share path of every cluster write, n times a write, and
// of every read answer whose wid differs from the node's last (padMemo): the digest input is assembled in a stack buffer of three
// SHA-256 blocks, which holds any ordinary name (118 bytes) and costs little
// to clear, and the call allocates nothing (the CI alloc gate pins this).
// A longer name streams through a hasher instead; the digest is the same.
func SharePad(secret auditreg.Key, node uint32, name string, wid uint64, shareLen int) uint64 {
	var in [3 * sha256.BlockSize]byte
	n := copy(in[:], sharePadTag)
	n += copy(in[n:], secret[:])
	binary.BigEndian.PutUint32(in[n:], node)
	binary.BigEndian.PutUint64(in[n+4:], wid)
	n += 12
	var sum [sha256.Size]byte
	if len(name) <= len(in)-n {
		n += copy(in[n:], name)
		sum = sha256.Sum256(in[:n])
	} else {
		h := sha256.New()
		h.Write(in[:n])
		io.WriteString(h, name)
		h.Sum(sum[:0])
	}
	return binary.BigEndian.Uint64(sum[:8]) & shareMask(shareLen)
}

// padMemo is the share pad a reader last derived for one node of one object:
// a node repeats its last wid whenever nothing was written in between, and
// within one (object, position) only the wid can change. next is that wid
// plus one, so the zero memo is empty.
type padMemo struct{ next, pad uint64 }

// get is SharePad for the (secret, node, name) the memo belongs to, skipping
// the hash when wid is the one it was last asked.
func (m *padMemo) get(secret auditreg.Key, node uint32, name string, wid uint64, shareLen int) uint64 {
	if m.next != wid+1 {
		m.next, m.pad = wid+1, SharePad(secret, node, name, wid, shareLen)
	}
	return m.pad
}

// shareMask returns the mask of the low 8*shareLen bits.
func shareMask(shareLen int) uint64 {
	return 1<<(8*uint(shareLen)) - 1
}

// Pack assembles a share-object value: wid in the high bits, the (already
// masked) share in the low 8*shareLen bits. The MaxRegister orders packed
// values as plain uint64s, so wid's position makes ordering by write id.
func Pack(wid, maskedShare uint64, shareLen int) uint64 {
	return wid<<(8*uint(shareLen)) | maskedShare
}

// Unpack splits a share-object value into wid and masked share.
func Unpack(packed uint64, shareLen int) (wid, maskedShare uint64) {
	return packed >> (8 * uint(shareLen)), packed & shareMask(shareLen)
}

// ShareToUint packs shareLen share bytes (big-endian) into a uint64.
func ShareToUint(b []byte) uint64 {
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}

// uintToShare writes v as shareLen big-endian bytes into dst.
func uintToShare(dst []byte, v uint64) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = byte(v)
		v >>= 8
	}
}
