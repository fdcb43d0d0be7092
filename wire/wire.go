// Package wire defines the binary protocol of auditd, the network service
// over the sharded store (package auditreg/store): compact length-prefixed
// frames carrying request-id-tagged messages, so clients can pipeline many
// requests down one connection and match responses out of band.
//
// # Framing
//
// Every frame is
//
//	u32 length | u64 request id | u8 verb | body
//
// with all integers big-endian and length covering everything after itself
// (so a frame occupies length+4 bytes on the wire, and length is at least
// HeaderLen). Frames larger than MaxFrame are a protocol error: a reader can
// always bound its buffer. Responses carry the verb of the request they
// answer, or VerbErr with an ErrResp body.
//
// # Verbs
//
// OPEN, WRITE, READ-FETCH, AUDIT, STATS, SHARE-WRITE, SHARE-FETCH. The
// paper's read is two shared-memory steps (Algorithm 1 lines 4 and 5) and
// one wire verb:
//
//   - READ-FETCH performs the silent-read check and (at most) one atomic
//     fetch&xor on the object's register R, through the server's persistent
//     per-(object, reader) handle — the at-most-one-fetch&xor-per-write
//     invariant of store/object.go is enforced server-side, whatever a
//     remote client does. After a fetch the server performs the helping CAS
//     on SN itself, on the same shard executor, exactly as store.Object.Read
//     does locally: an effective read is one round trip. (Verb number 4 once
//     carried that CAS as a second, pipelined request; it stays reserved and
//     is answered like any unknown verb.)
//
// AUDIT carries the paper's audit cursor (Algorithm 1 lines 16-22: lsa and
// the cumulative set A) with A kept by the party that asks. The request names
// the sequence number the caller's last audit stopped at (AuditReq.Since);
// the response is one row per sequence number from there to the current one
// — the current row always re-sent, as line 21 always re-decodes it — plus
// the sequence number to ask from next. A tailing auditor pays for what was
// written since it last looked, one row when nothing was. What a response
// contains is a function of the sequence range alone, never of which readers
// read since the cursor; a cursor is valid within one server boot (the epoch
// of OpenResp) and not beyond; a range too long for one frame is paged.
//
// SHARE-WRITE and SHARE-FETCH are the cluster dispersal verbs (package
// auditreg/cluster): one node's slice of an information-dispersed write. A
// share object is a MaxRegister whose uint64 value packs a client-assigned
// write id above the share bytes (newest write id wins, duplicates are
// idempotent), so the share path rides the same store machinery — WAL
// journaling, fetch&xor audit trail, silent-read cache — as a plain write.
// The share bits arrive already XOR-masked under a per-node pad derived from
// a cluster secret the node never holds; see cluster.SharePad.
//
// SHARE-FETCH carries READ-FETCH's request and response bodies
// (ShareFetchReq and ShareFetchResp are aliases): the max register reads as
// the register does, so a share fetch is READ-FETCH on a share object, with
// no per-response node echo — the connection's node is checked once, at
// OPEN. The verb stays distinct so the server can refuse a non-MaxRegister
// (CodeShareMode) and count share reads apart from register reads.
//
// # What crosses the wire encrypted
//
// Reader sets never cross the wire in the clear — not in either direction,
// not in any verb:
//
//   - READ-FETCH responses carry no reader-set bits at all (a reader needs
//     only seq and value), and the value itself is XOR-masked with a pad
//     derived from the connection's session secret (ValueMask), so one
//     principal's traffic is opaque to every other curious principal.
//     The client unmasks locally.
//   - AUDIT responses carry each row — reader set and value, since a row is
//     sent for values nobody read too — XOR-masked with pads derived from the
//     store key and a fresh per-response nonce (MaskAuditRows). Only auditors
//     hold the key — that is the paper's trust model — so only the auditor
//     client can unmask, locally.
//
// See the "Network layer" section of DESIGN.md for the full invariant.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Protocol limits. MaxFrame bounds reader buffers; MaxName keeps object
// names (which recur in every request) short.
const (
	// HeaderLen is the number of bytes covered by the length prefix before
	// the body: request id (8) + verb (1).
	HeaderLen = 9
	// MaxFrame is the largest legal value of the length prefix.
	MaxFrame = 1 << 20
	// MaxName is the largest legal object name length.
	MaxName = 1024
)

// Verb identifies a message type. Responses reuse the request's verb;
// failures answer with VerbErr.
type Verb uint8

// The protocol's verbs.
const (
	VerbErr        Verb = 0
	VerbOpen       Verb = 1
	VerbWrite      Verb = 2
	VerbReadFetch  Verb = 3
	_              Verb = 4 // reserved: the retired READ-ANNOUNCE
	VerbAudit      Verb = 5
	VerbStats      Verb = 6
	VerbShareWrite Verb = 7
	VerbShareFetch Verb = 8
)

// String returns the verb's protocol name.
func (v Verb) String() string {
	switch v {
	case VerbErr:
		return "ERR"
	case VerbOpen:
		return "OPEN"
	case VerbWrite:
		return "WRITE"
	case VerbReadFetch:
		return "READ-FETCH"
	case VerbAudit:
		return "AUDIT"
	case VerbStats:
		return "STATS"
	case VerbShareWrite:
		return "SHARE-WRITE"
	case VerbShareFetch:
		return "SHARE-FETCH"
	default:
		return fmt.Sprintf("Verb(%d)", uint8(v))
	}
}

// Frame is one decoded frame: the request id, the verb, and the undecoded
// message body (sliced from the input, not copied).
type Frame struct {
	ID   uint64
	Verb Verb
	Body []byte
}

// AppendFrame appends a complete frame to dst and returns the extended
// slice.
func AppendFrame(dst []byte, id uint64, verb Verb, body []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(HeaderLen+len(body)))
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = append(dst, byte(verb))
	return append(dst, body...)
}

// FramePrefix is the number of bytes BeginFrame reserves in front of the
// body: the length prefix plus the frame header.
const FramePrefix = 4 + HeaderLen

// BeginFrame reserves the frame prefix on dst and returns the extended
// slice; the caller appends the message body and then patches the prefix
// with EndFrame. The two calls let an encoder build a frame front to back in
// one caller-owned buffer — no body staging, no copy.
func BeginFrame(dst []byte) []byte {
	var prefix [FramePrefix]byte
	return append(dst, prefix[:]...)
}

// EndFrame patches the prefix of a frame started at offset start in buf with
// the id and verb, completing it. It fails when the finished frame would
// exceed MaxFrame.
func EndFrame(buf []byte, start int, id uint64, verb Verb) error {
	n := len(buf) - start - 4
	if n < HeaderLen {
		return fmt.Errorf("wire: EndFrame on a frame of %d bytes", len(buf)-start)
	}
	if n > MaxFrame {
		return fmt.Errorf("wire: frame length %d exceeds MaxFrame %d", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(n))
	binary.BigEndian.PutUint64(buf[start+4:], id)
	buf[start+12] = byte(verb)
	return nil
}

// ParseFrame decodes the first frame of b, returning it and the unconsumed
// remainder. io.ErrUnexpectedEOF reports a truncated frame (read more and
// retry); any other error is a protocol violation.
func ParseFrame(b []byte) (Frame, []byte, error) {
	if len(b) < 4 {
		return Frame{}, b, io.ErrUnexpectedEOF
	}
	n := binary.BigEndian.Uint32(b)
	if n < HeaderLen {
		return Frame{}, b, fmt.Errorf("wire: frame length %d shorter than header", n)
	}
	if n > MaxFrame {
		return Frame{}, b, fmt.Errorf("wire: frame length %d exceeds MaxFrame %d", n, MaxFrame)
	}
	if len(b) < int(4+n) {
		return Frame{}, b, io.ErrUnexpectedEOF
	}
	return Frame{
		ID:   binary.BigEndian.Uint64(b[4:]),
		Verb: Verb(b[12]),
		Body: b[13 : 4+n],
	}, b[4+n:], nil
}

// FrameScanner reads frames from a stream through one growable, reusable
// buffer, allocation-free at steady state. Next returns frames whose Body
// aliases the internal buffer — a decode view, valid only until the next
// Next call; a caller that hands the body to another goroutine must copy it
// first (into a pooled Buf).
//
// Next always drains buffered complete frames before touching the
// underlying reader, so a connection being drained — its socket reads
// failing after a deadline kick — still yields every frame that had fully
// arrived before surfacing the read error.
type FrameScanner struct {
	r          io.Reader
	buf        []byte
	start, end int
}

// NewFrameScanner returns a scanner over r with the given initial buffer
// size (minimum 4 KiB; the buffer grows as needed up to one maximal frame).
func NewFrameScanner(r io.Reader, size int) *FrameScanner {
	if size < 4<<10 {
		size = 4 << 10
	}
	return &FrameScanner{r: r, buf: make([]byte, size)}
}

// Next returns the next frame. The frame's Body aliases the scanner's
// buffer and is valid only until the next call. io.EOF reports a clean end
// of stream at a frame boundary; io.ErrUnexpectedEOF a stream cut short
// mid-frame; any other error is a protocol violation or a read failure.
func (s *FrameScanner) Next() (Frame, error) {
	for {
		if s.end > s.start {
			f, rest, err := ParseFrame(s.buf[s.start:s.end])
			if err == nil {
				s.start = s.end - len(rest)
				return f, nil
			}
			if err != io.ErrUnexpectedEOF {
				return Frame{}, err
			}
		}
		if err := s.fill(); err != nil {
			if err == io.EOF && s.end > s.start {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, err
		}
	}
}

// Buffered reports whether the next Next returns without touching the
// underlying reader: a complete frame — or a length prefix Next will reject
// — is already in the buffer. A reader that answers what it has before it
// blocks (the server's corked flush) asks this between frames.
func (s *FrameScanner) Buffered() bool {
	_, _, err := ParseFrame(s.buf[s.start:s.end])
	return err != io.ErrUnexpectedEOF
}

// fill reads more bytes after compacting or growing the buffer as needed.
func (s *FrameScanner) fill() error {
	if s.start == s.end {
		s.start, s.end = 0, 0
	}
	if s.end == len(s.buf) {
		if s.start > 0 {
			// Slide the partial frame to the front; its views are dead (the
			// previous Next returned long ago).
			s.end = copy(s.buf, s.buf[s.start:s.end])
			s.start = 0
		} else {
			// One frame larger than the whole buffer: grow toward the frame's
			// own size when known, bounded by the protocol limit.
			need := 2 * len(s.buf)
			if s.end >= 4 {
				if n := binary.BigEndian.Uint32(s.buf); n <= MaxFrame && int(4+n) > need {
					need = int(4 + n)
				}
			}
			if need > MaxFrame+4 {
				need = MaxFrame + 4
			}
			if need <= len(s.buf) {
				return fmt.Errorf("wire: frame exceeds scanner limit %d", len(s.buf))
			}
			grown := make([]byte, need)
			s.end = copy(grown, s.buf[s.start:s.end])
			s.start = 0
			s.buf = grown
		}
	}
	n, err := s.r.Read(s.buf[s.end:])
	s.end += n
	if n > 0 {
		return nil // surface err on the next fill, after the bytes are parsed
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// cursor is a little-state decoder over a message body. Every getter
// degrades to zero values once the input is exhausted or malformed; the
// caller checks done() exactly once at the end. This keeps message Decode
// methods linear and makes truncated input a single error path, which is
// what the fuzzer exercises hardest.
type cursor struct {
	b   []byte
	bad bool
}

func (c *cursor) fail() {
	c.bad = true
	c.b = nil
}

func (c *cursor) take(n int) []byte {
	if c.bad || len(c.b) < n {
		c.fail()
		return nil
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

func (c *cursor) u8() uint8 {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *cursor) bool() bool { return c.u8() != 0 }

func (c *cursor) u16() uint16 {
	b := c.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (c *cursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (c *cursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// str decodes a u16-length-prefixed string of at most max bytes.
func (c *cursor) str(max int) string {
	n := int(c.u16())
	if n > max {
		c.fail()
		return ""
	}
	b := c.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// done returns an error if the body was malformed or not fully consumed.
func (c *cursor) done() error {
	if c.bad {
		return fmt.Errorf("wire: truncated or malformed body")
	}
	if len(c.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after body", len(c.b))
	}
	return nil
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}
