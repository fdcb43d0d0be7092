package persist

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"auditreg"
	"auditreg/store"
)

// Op identifies a durable record type. The type byte is part of the
// encrypted body: a curious party with disk access cannot even distinguish
// a fetch from a write.
type Op uint8

// The record types. OpOpen..OpAudit mirror store.JournalOp one-to-one;
// OpSeal is persist's own: the last record of every cleanly finished file.
const (
	OpOpen Op = iota + 1
	OpWrite
	OpFetch
	OpAnnounce
	OpAudit
	OpSeal
)

// String returns the op's name.
func (op Op) String() string {
	switch op {
	case OpOpen:
		return "open"
	case OpWrite:
		return "write"
	case OpFetch:
		return "fetch"
	case OpAnnounce:
		return "announce"
	case OpAudit:
		return "audit"
	case OpSeal:
		return "seal"
	default:
		return fmt.Sprintf("Op(%d)", uint8(op))
	}
}

// Record is the decoded form of one WAL or snapshot record. Which fields are
// meaningful depends on Op, exactly as in store.JournalRecord.
type Record struct {
	Op       Op
	Name     string
	Kind     uint8 // store.Kind byte
	Capacity uint32
	Reader   uint8
	Seq      uint64
	Value    uint64
	Pairs    uint32
}

// Limits. maxName matches the store's practical name sizes (the wire bounds
// names at 1024); maxPlain bounds any record body, so a reader can always
// bound its buffer.
const (
	maxName  = 1024
	maxPlain = maxName + 64
)

// appendPlain serializes the record body (unencrypted) onto dst.
func (r *Record) appendPlain(dst []byte) []byte {
	dst = append(dst, byte(r.Op))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Name)))
	dst = append(dst, r.Name...)
	switch r.Op {
	case OpOpen:
		dst = append(dst, r.Kind)
		dst = binary.BigEndian.AppendUint32(dst, r.Capacity)
	case OpWrite:
		dst = append(dst, r.Kind)
		dst = binary.BigEndian.AppendUint64(dst, r.Seq)
		dst = binary.BigEndian.AppendUint64(dst, r.Value)
	case OpFetch:
		dst = append(dst, r.Kind, r.Reader)
		dst = binary.BigEndian.AppendUint64(dst, r.Seq)
		dst = binary.BigEndian.AppendUint64(dst, r.Value)
	case OpAnnounce:
		dst = append(dst, r.Kind, r.Reader)
		dst = binary.BigEndian.AppendUint64(dst, r.Seq)
	case OpAudit:
		dst = append(dst, r.Kind)
		dst = binary.BigEndian.AppendUint32(dst, r.Pairs)
	case OpSeal:
	}
	return dst
}

// decodePlain parses a record body, which must be fully consumed. intern
// makes the name's string (it may hold one for those bytes already); b is
// not retained.
func decodePlain(b []byte, intern func([]byte) string) (Record, error) {
	var r Record
	if len(b) < 3 {
		return r, fmt.Errorf("persist: record body of %d bytes", len(b))
	}
	r.Op = Op(b[0])
	n := int(binary.BigEndian.Uint16(b[1:]))
	b = b[3:]
	if n > maxName {
		return r, fmt.Errorf("persist: record name of %d bytes exceeds %d", n, maxName)
	}
	if len(b) < n {
		return r, fmt.Errorf("persist: record name truncated")
	}
	r.Name = intern(b[:n])
	b = b[n:]
	need := func(k int) bool { return len(b) >= k }
	switch r.Op {
	case OpOpen:
		if !need(5) {
			return r, fmt.Errorf("persist: open record truncated")
		}
		r.Kind = b[0]
		r.Capacity = binary.BigEndian.Uint32(b[1:])
		b = b[5:]
	case OpWrite:
		if !need(17) {
			return r, fmt.Errorf("persist: write record truncated")
		}
		r.Kind = b[0]
		r.Seq = binary.BigEndian.Uint64(b[1:])
		r.Value = binary.BigEndian.Uint64(b[9:])
		b = b[17:]
	case OpFetch:
		if !need(18) {
			return r, fmt.Errorf("persist: fetch record truncated")
		}
		r.Kind = b[0]
		r.Reader = b[1]
		r.Seq = binary.BigEndian.Uint64(b[2:])
		r.Value = binary.BigEndian.Uint64(b[10:])
		b = b[18:]
	case OpAnnounce:
		if !need(10) {
			return r, fmt.Errorf("persist: announce record truncated")
		}
		r.Kind = b[0]
		r.Reader = b[1]
		r.Seq = binary.BigEndian.Uint64(b[2:])
		b = b[10:]
	case OpAudit:
		if !need(5) {
			return r, fmt.Errorf("persist: audit record truncated")
		}
		r.Kind = b[0]
		r.Pairs = binary.BigEndian.Uint32(b[1:])
		b = b[5:]
	case OpSeal:
	default:
		return r, fmt.Errorf("persist: unknown record op %d", uint8(r.Op))
	}
	if len(b) != 0 {
		return r, fmt.Errorf("persist: %d trailing bytes after record body", len(b))
	}
	return r, nil
}

// Frame layout. Every record is framed as
//
//	u32 frameLen | u32 crc32c | u64 lsn | ciphertext
//
// with frameLen covering everything after the crc field (so a frame occupies
// frameLen+8 bytes on disk) and crc32c (Castagnoli) covering the lsn and the
// ciphertext — corruption is detected without decrypting.
//
// The ciphertext is the record body XORed with the file's keystream:
// AES-256 in counter mode under a per-file key SHA-256(tag, key, file
// nonce), indexed by the byte offset of the ciphertext within the file —
// byte q is byte q mod 16 of AES(q/16), the counter block being eight zero
// bytes and q/16 big-endian. A group commit therefore encrypts its whole
// batch against one dense, shared keystream: the file's cursor (padStream)
// holds the 32-byte pad block the last record ended in, so adjacent records
// share it without re-encrypting it.
//
// Pads never repeat: offsets are unique within a file (frames are written
// sequentially, and a crashed active segment is never appended to — see
// open.go), and the per-file random nonce makes keys disjoint across files.
// Relocating a frame breaks its decryption twice over: to a different
// offset (the counter moves) and to a different file (the key moves).
const (
	frameOverhead = 16 // len + crc + lsn
	maxFrame      = frameOverhead + maxPlain
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fileNonceLen is the size of the random per-file nonce in every file
// header.
const fileNonceLen = 16

const padTag = "auditreg/persist/pads/v3\x00"

// padBlockLen is the keystream a cursor encrypts at a time: two AES blocks.
const padBlockLen = 2 * aes.BlockSize

// padStream is a cursor over the keystream of one record file: the file's
// cipher and the pad block it encrypted last, held by value with the two
// counter blocks behind it (a counter on the stack would escape through the
// cipher.Block interface, one allocation per block). Encoding and decoding
// walk a file front to back, so each block is encrypted once and nothing is
// allocated; a copied cursor stays correct. Not safe for concurrent use: a
// cursor has one owner (the commit lock for the active segment, one scan per
// file in recovery).
type padStream struct {
	aes   cipher.Block
	block uint64 // index+1 of the pad block held in pad; 0 = none yet
	pad   [padBlockLen]byte
	ctr   [padBlockLen]byte
}

// newPadStream derives the file's keystream from the persist key and the
// file's nonce.
func newPadStream(key auditreg.Key, nonce *[fileNonceLen]byte) padStream {
	h := sha256.New()
	h.Write([]byte(padTag))
	h.Write(key[:])
	h.Write(nonce[:])
	var fileKey auditreg.Key
	c, err := aes.NewCipher(h.Sum(fileKey[:0]))
	if err != nil {
		// Unreachable: a SHA-256 digest is a valid AES-256 key.
		panic(fmt.Sprintf("persist: pad stream: %v", err))
	}
	return padStream{aes: c}
}

// xor writes src, the bytes at file offset off, XORed with the keystream
// into dst (which may be src itself).
func (p *padStream) xor(dst, src []byte, off int64) {
	q := uint64(off)
	for len(src) > 0 {
		if b := q/padBlockLen + 1; b != p.block {
			binary.BigEndian.PutUint64(p.ctr[8:], 2*(b-1))
			binary.BigEndian.PutUint64(p.ctr[aes.BlockSize+8:], 2*(b-1)+1)
			p.aes.Encrypt(p.pad[:aes.BlockSize], p.ctr[:aes.BlockSize])
			p.aes.Encrypt(p.pad[aes.BlockSize:], p.ctr[aes.BlockSize:])
			p.block = b
		}
		n := subtle.XORBytes(dst, src, p.pad[q%padBlockLen:])
		dst, src, q = dst[n:], src[n:], q+uint64(n)
	}
}

// appendFrame appends the complete encrypted frame for rec at lsn onto dst,
// where off is the file offset the frame starts at (that is, where
// dst[len(dst)] will land on disk).
func appendFrame(dst []byte, ps *padStream, off int64, lsn uint64, rec *Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frameLen + crc placeholders
	dst = binary.BigEndian.AppendUint64(dst, lsn)
	body := len(dst)
	dst = rec.appendPlain(dst)
	ps.xor(dst[body:], dst[body:], off+frameOverhead)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-8))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.Checksum(dst[start+8:], castagnoli))
	return dst
}

// errTornFrame reports a frame cut short by the end of the input — the
// damage recovery tolerates at the very tail of the active segment — and
// errFrameCRC one that is all there but fails its checksum: corruption,
// unless scanRecords finds it cut short by preallocated zeros instead.
var (
	errTornFrame = fmt.Errorf("persist: torn frame")
	errFrameCRC  = fmt.Errorf("persist: frame crc mismatch")
)

// frameDecoder decodes the frames of one record file, front to back: the
// file's keystream cursor, the one plaintext buffer every frame is decrypted
// into, and where names are interned.
type frameDecoder struct {
	ps     padStream
	intern func([]byte) string
	plain  [maxPlain]byte
}

// parseFrame decodes the first frame of b — located at file offset off —
// returning the record, its lsn, and the unconsumed remainder. errTornFrame
// (wrapped) reports that the input ends mid-frame and errFrameCRC (wrapped)
// a checksum mismatch; any other error is corruption.
func (d *frameDecoder) parseFrame(b []byte, off int64) (rec Record, lsn uint64, rest []byte, err error) {
	if len(b) < 8 {
		return rec, 0, b, fmt.Errorf("%w: %d header bytes", errTornFrame, len(b))
	}
	n := binary.BigEndian.Uint32(b)
	if n < 8 || n > maxFrame-8 {
		return rec, 0, b, fmt.Errorf("persist: frame length %d out of range", n)
	}
	if len(b) < int(8+n) {
		return rec, 0, b, fmt.Errorf("%w: frame of %d bytes, %d available", errTornFrame, 8+n, len(b))
	}
	payload := b[8 : 8+n]
	if got, want := crc32.Checksum(payload, castagnoli), binary.BigEndian.Uint32(b[4:]); got != want {
		return rec, 0, b, fmt.Errorf("%w (%08x != %08x)", errFrameCRC, got, want)
	}
	lsn = binary.BigEndian.Uint64(payload)
	// Decrypt into the decoder's buffer: b stays as it is on disk.
	plain := d.plain[:n-8]
	d.ps.xor(plain, payload[8:], off+frameOverhead)
	rec, err = decodePlain(plain, d.intern)
	if err != nil {
		return rec, lsn, b, err
	}
	return rec, lsn, b[8+n:], nil
}

// fromJournal converts a store journal record into a durable record.
func fromJournal(r *store.JournalRecord[uint64]) Record {
	rec := Record{
		Name:     r.Name,
		Kind:     uint8(r.Kind),
		Capacity: uint32(r.Capacity),
		Reader:   uint8(r.Reader),
		Seq:      r.Seq,
		Value:    r.Value,
		Pairs:    uint32(r.Pairs),
	}
	switch r.Op {
	case store.JournalOpen:
		rec.Op = OpOpen
	case store.JournalWrite:
		rec.Op = OpWrite
	case store.JournalFetch:
		rec.Op = OpFetch
	case store.JournalAnnounce:
		rec.Op = OpAnnounce
	case store.JournalAudit:
		rec.Op = OpAudit
	}
	return rec
}
