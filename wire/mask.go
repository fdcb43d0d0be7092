package wire

import (
	"crypto/sha256"
	"encoding/binary"
)

// Masking pads. Both sides of the protocol derive 64-bit pads from SHA-256
// over a domain tag and the inputs that bind the pad to its plaintext,
// exactly like the pad sources of internal/otp derive the register's
// tracking pads:
//
//   - ValueMask pads the value of a READ-FETCH response. A connection may
//     apply the same (session, name, reader, seq) pad more than once — a
//     client whose cache lags the server's handle receives the value again
//     without a fresh fetch — but the plaintext it covers is fixed: the
//     register value installed at a given sequence number never changes
//     (one CAS installs each seq), so reuse produces an identical
//     ciphertext and reveals nothing. Distinct values always sit under
//     distinct pads because seq (and name, reader, session) is part of the
//     derivation. Any protocol extension that breaks value-determined-by-
//     seq must switch to a nonce-fresh pad, as MaskAuditRows does.
//   - MaskAuditRows pads both words of every AUDIT response row. The current row
//     changes between responses (its reader set grows) and is re-sent on
//     every one, so here freshness is mandatory: the nonce is fresh per
//     response.
//
// Domain tags keep the two pad families — and the store's own pad streams —
// disjoint.

const (
	valueMaskTag = "auditreg/wire/value-mask/v1\x00"
	auditMaskTag = "auditreg/wire/audit-mask/v1\x00"
)

// ValueMask derives the pad XOR-applied to the value of a READ-FETCH
// response: the first 8 bytes of SHA-256(tag, session, name, reader, seq).
// The server masks with it; the reading client unmasks with it. The digest
// input is assembled in one stack buffer (MaxName bounds the name), so the
// derivation performs no heap allocation — it sits on the server's
// per-fetch fast path.
func ValueMask(session [SessionLen]byte, name string, reader uint8, seq uint64) uint64 {
	if len(name) > MaxName {
		// Out-of-protocol input (decoders reject such names); fall back to
		// the streaming equivalent rather than silently truncate the digest.
		h := sha256.New()
		h.Write([]byte(valueMaskTag))
		h.Write(session[:])
		var num [9]byte
		num[0] = reader
		binary.BigEndian.PutUint64(num[1:], seq)
		h.Write(num[:])
		h.Write([]byte(name))
		var sum [sha256.Size]byte
		h.Sum(sum[:0])
		return binary.BigEndian.Uint64(sum[:8])
	}
	var in [len(valueMaskTag) + SessionLen + 9 + MaxName]byte
	n := copy(in[:], valueMaskTag)
	n += copy(in[n:], session[:])
	in[n] = reader
	binary.BigEndian.PutUint64(in[n+1:], seq)
	n += 9
	n += copy(in[n:], name)
	sum := sha256.Sum256(in[:n])
	return binary.BigEndian.Uint64(sum[:8])
}

// MaskAuditRows XORs every row of one AUDIT response with its pads, in
// place: 16 bytes of SHA-256(tag, key, nonce, i/2) per row i — a digest
// covers two rows — one word for the row's reader-set bitmask and one for its
// value. XOR is its own inverse: the server masks with the store key and the
// same call, under the same key and nonce, unmasks — which only a key-holding
// auditor client can do; readers, by the paper's trust model, cannot.
// Allocation-free, like ValueMask.
func MaskAuditRows(key [32]byte, nonce [NonceLen]byte, rows []AuditRow) {
	var in [len(auditMaskTag) + 32 + NonceLen + 8]byte
	n := copy(in[:], auditMaskTag)
	n += copy(in[n:], key[:])
	n += copy(in[n:], nonce[:])
	var sum [sha256.Size]byte
	for i := range rows {
		if i%2 == 0 {
			binary.BigEndian.PutUint64(in[n:], uint64(i/2))
			sum = sha256.Sum256(in[:n+8])
		}
		pad := sum[16*(i%2):]
		rows[i].Readers ^= binary.BigEndian.Uint64(pad)
		rows[i].Value ^= binary.BigEndian.Uint64(pad[8:])
	}
}
