package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Object kinds on the wire. The values coincide with auditreg/store.Kind
// (the server pins the correspondence with compile-time assertions);
// Snapshot objects are not remotable (their scans have no fetch/announce
// split), so the protocol only ever carries these two.
const (
	KindRegister    uint8 = 1
	KindMaxRegister uint8 = 2
)

// RemotableKind reports whether k is a kind byte the protocol serves. It is
// the single source of truth for remotability — server and client both
// consult it, so they cannot drift apart.
func RemotableKind(k uint8) bool {
	return k == KindRegister || k == KindMaxRegister
}

// ErrCode classifies an ErrResp, so clients can map protocol failures back
// to the store's sentinel errors.
type ErrCode uint16

// Error codes carried by ErrResp.
const (
	CodeBadRequest   ErrCode = 1  // malformed or out-of-range request
	CodeNotFound     ErrCode = 2  // maps to store.ErrNotFound
	CodeKindMismatch ErrCode = 3  // maps to store.ErrKindMismatch
	CodeUnsupported  ErrCode = 4  // e.g. opening a Snapshot remotely
	CodeTooLarge     ErrCode = 5  // response exceeds frame limits
	CodeInternal     ErrCode = 6  // server-side failure
	CodeShutdown     ErrCode = 7  // server is draining
	CodeBusy         ErrCode = 8  // shard queue at its high watermark; retry
	CodeNodeMismatch ErrCode = 9  // OPEN named a node id this server is not
	CodeShareMode    ErrCode = 10 // share-mode violation (len or kind drift)
)

// ErrBusy is the sentinel a client surfaces (wrapped) when the server shed
// the request under admission control: the target shard's queue was at its
// high watermark, the operation was NOT performed, and a retry after a
// jittered backoff is the intended response. Detect it with
// errors.Is(err, wire.ErrBusy).
var ErrBusy = errors.New("server busy: shard queue full")

// SessionLen is the size of the per-connection session secret carried in
// OpenResp; NonceLen the size of the per-AUDIT-response nonce.
const (
	SessionLen = 32
	NonceLen   = 24
)

// MaxErrMsg bounds the message of an ErrResp: long enough for any server
// error embedding a MaxName-sized object name plus context, short enough to
// bound hostile frames. Servers truncate, clients reject beyond it.
const MaxErrMsg = 4096

// MaxAuditRows bounds the rows of one AuditResp such that the frame always
// fits MaxFrame: the length prefix covers HeaderLen plus the fixed body
// bytes (kind 1 + nonce NonceLen + next 8 + more 1 + row count 4 = 38) plus
// 16 per row; the divisor reserves 64 — the 38 plus slack for future fixed
// fields — so the bound never needs to move in lockstep with small body
// changes. One row per sequence number of the range asked for; a range with
// more rows is answered in pages (AuditResp.More), never refused.
const MaxAuditRows = (MaxFrame - HeaderLen - 64) / 16

// OpenReq asks the server to open (creating if absent) the named object.
// Capacity 0 selects the server's default history capacity.
//
// Node is the node-id half of the cluster handshake: a dispersing client
// derives each node's share pads from the node id it believes an address
// belongs to, so a misrouted connection (an address pointing at the wrong
// daemon) would silently produce garbage shares. A non-zero Node therefore
// asserts the server's configured node id; a server whose id differs answers
// CodeNodeMismatch. Zero (the standalone default) asserts nothing.
type OpenReq struct {
	Name     string
	Kind     uint8
	Capacity uint32
	Node     uint32
}

// Append serializes the message body onto dst.
func (m *OpenReq) Append(dst []byte) []byte {
	dst = appendStr(dst, m.Name)
	dst = append(dst, m.Kind)
	dst = binary.BigEndian.AppendUint32(dst, m.Capacity)
	return binary.BigEndian.AppendUint32(dst, m.Node)
}

// Decode parses a message body; the body must be fully consumed.
func (m *OpenReq) Decode(body []byte) error {
	c := cursor{b: body}
	m.Name = c.str(MaxName)
	m.Kind = c.u8()
	m.Capacity = c.u32()
	m.Node = c.u32()
	return c.done()
}

// OpenResp acknowledges an open: the object's actual kind and reader count,
// the server's boot epoch, plus the connection's session secret — the seed
// of every ValueMask pad the server will apply on this connection. The
// secret is fixed per connection; every OpenResp on a connection repeats the
// same one. In production the handshake (like the rest of the stream) runs
// inside an authenticated encrypted channel; the session secret separates
// principals from each other within the protocol itself.
//
// Epoch is a random value drawn once per server process. A server restarted
// from a data dir replays its history with renumbered sequence numbers, so
// a client's cached (prev_sn, prev_val) from the previous epoch could
// collide with a fresh seq and silently serve a stale value; clients reset
// their per-reader caches whenever the epoch changes.
// Node is the server's configured node id (0: standalone, not part of a
// cluster), echoed so a dispersing client can pin share-pad derivation to
// the daemon it actually reached.
type OpenResp struct {
	Kind    uint8
	Readers uint8
	Epoch   uint64
	Session [SessionLen]byte
	Node    uint32
}

// Append serializes the message body onto dst.
func (m *OpenResp) Append(dst []byte) []byte {
	dst = append(dst, m.Kind, m.Readers)
	dst = binary.BigEndian.AppendUint64(dst, m.Epoch)
	dst = append(dst, m.Session[:]...)
	return binary.BigEndian.AppendUint32(dst, m.Node)
}

// Decode parses a message body; the body must be fully consumed.
func (m *OpenResp) Decode(body []byte) error {
	c := cursor{b: body}
	m.Kind = c.u8()
	m.Readers = c.u8()
	m.Epoch = c.u64()
	copy(m.Session[:], c.take(SessionLen))
	m.Node = c.u32()
	return c.done()
}

// WriteReq writes a value: an overwrite for a register, a writeMax for a max
// register. The response is an empty body under VerbWrite.
type WriteReq struct {
	Name  string
	Value uint64
}

// Append serializes the message body onto dst.
func (m *WriteReq) Append(dst []byte) []byte {
	dst = appendStr(dst, m.Name)
	return binary.BigEndian.AppendUint64(dst, m.Value)
}

// Decode parses a message body; the body must be fully consumed.
func (m *WriteReq) Decode(body []byte) error {
	c := cursor{b: body}
	m.Name = c.str(MaxName)
	m.Value = c.u64()
	return c.done()
}

// ReadFetchReq performs the fetch half of a read for reader index Reader.
// PrevSeq is the sequence number of the client's cached value (the paper's
// prev_sn; ^uint64(0) when the client has never read), so the server can
// omit the value from the response when the client is already current.
type ReadFetchReq struct {
	Name    string
	Reader  uint8
	PrevSeq uint64
}

// Append serializes the message body onto dst.
func (m *ReadFetchReq) Append(dst []byte) []byte {
	dst = appendStr(dst, m.Name)
	dst = append(dst, m.Reader)
	return binary.BigEndian.AppendUint64(dst, m.PrevSeq)
}

// Decode parses a message body; the body must be fully consumed.
func (m *ReadFetchReq) Decode(body []byte) error {
	c := cursor{b: body}
	m.Name = c.str(MaxName)
	m.Reader = c.u8()
	m.PrevSeq = c.u64()
	return c.done()
}

// ReadFetchResp answers a READ-FETCH. Fetched reports whether a fetch&xor
// was applied to R (false: the read was silent server-side). When Seq equals
// the request's PrevSeq the client's cache is current and Value is zero;
// otherwise Value is the register value XOR-masked with
// ValueMask(session, name, reader, Seq) — the client unmasks locally. The
// response never carries reader-set bits.
type ReadFetchResp struct {
	Fetched bool
	Seq     uint64
	Value   uint64
}

// Append serializes the message body onto dst.
func (m *ReadFetchResp) Append(dst []byte) []byte {
	dst = appendBool(dst, m.Fetched)
	dst = binary.BigEndian.AppendUint64(dst, m.Seq)
	return binary.BigEndian.AppendUint64(dst, m.Value)
}

// Decode parses a message body; the body must be fully consumed.
func (m *ReadFetchResp) Decode(body []byte) error {
	c := cursor{b: body}
	m.Fetched = c.bool()
	m.Seq = c.u64()
	m.Value = c.u64()
	return c.done()
}

// AuditReq asks for the named object's audit rows from the caller's cursor
// on. Since is the paper's lsa, kept by the auditor client: the sequence
// number its last audit of this object, within this server boot, stopped at
// (AuditResp.Next); 0 asks for the whole history. It is a sequence number,
// not a count of entries received — what comes back must not depend on who
// read since. Fresh forces a synchronous incremental audit through the
// server's shared pool cursor first (the rows then cover everything
// linearized before the call); otherwise the server replays what the pool
// last published, auditing only if it never audited the object.
type AuditReq struct {
	Name  string
	Fresh bool
	Since uint64
}

// Append serializes the message body onto dst.
func (m *AuditReq) Append(dst []byte) []byte {
	dst = appendStr(dst, m.Name)
	dst = appendBool(dst, m.Fresh)
	return binary.BigEndian.AppendUint64(dst, m.Since)
}

// Decode parses a message body; the body must be fully consumed.
func (m *AuditReq) Decode(body []byte) error {
	c := cursor{b: body}
	m.Name = c.str(MaxName)
	m.Fresh = c.bool()
	m.Since = c.u64()
	return c.done()
}

// AuditRow is one row of the audit history: the value installed at one
// sequence number and the set of readers that effectively read it there, as
// an m-bit bitmask — empty for a value nobody read; the row is sent all the
// same. On the wire both words are XOR-masked (MaskAuditRows): a reader set
// is never transmitted in the clear, and neither is a value, which may be one
// no reader ever obtained.
type AuditRow struct {
	Value   uint64
	Readers uint64
}

// AuditResp answers an AUDIT: the object's kind and one masked row per
// sequence number of [Since, Next), in order — history rows, final — followed,
// unless More, by the row of Next itself: the current value and its readers
// so far, which is re-sent whole on every audit (Algorithm 1 line 21
// re-decodes it every time) under a nonce fresh per response, so audit pads
// are never reused and a row that gained a reader looks like one that did
// not. The caller folds the rows into its cumulative set and asks from Next
// next time. More reports that MaxAuditRows cut the range short: Next is then
// where the rows stop, and the caller asks again at once.
type AuditResp struct {
	Kind  uint8
	Nonce [NonceLen]byte
	Next  uint64
	More  bool
	Rows  []AuditRow
}

// Append serializes the message body onto dst.
func (m *AuditResp) Append(dst []byte) []byte {
	dst = append(dst, m.Kind)
	dst = append(dst, m.Nonce[:]...)
	dst = binary.BigEndian.AppendUint64(dst, m.Next)
	dst = appendBool(dst, m.More)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Rows)))
	for _, r := range m.Rows {
		dst = binary.BigEndian.AppendUint64(dst, r.Value)
		dst = binary.BigEndian.AppendUint64(dst, r.Readers)
	}
	return dst
}

// Decode parses a message body; the body must be fully consumed. Rows is
// decoded into the slice m already holds, so a message reused across
// responses allocates only when a response outgrows every earlier one.
func (m *AuditResp) Decode(body []byte) error {
	c := cursor{b: body}
	m.Kind = c.u8()
	copy(m.Nonce[:], c.take(NonceLen))
	m.Next = c.u64()
	m.More = c.bool()
	n := c.u32()
	if n > MaxAuditRows {
		return fmt.Errorf("wire: audit response with %d rows exceeds MaxAuditRows %d", n, MaxAuditRows)
	}
	m.Rows = m.Rows[:0]
	if int(n) > cap(m.Rows) && !c.bad {
		m.Rows = make([]AuditRow, 0, min(int(n), len(c.b)/16))
	}
	for i := uint32(0); i < n && !c.bad; i++ {
		m.Rows = append(m.Rows, AuditRow{Value: c.u64(), Readers: c.u64()})
	}
	return c.done()
}

// StatsReq requests the server's counters. The body is empty.
type StatsReq struct{}

// Append serializes the message body onto dst.
func (m *StatsReq) Append(dst []byte) []byte { return dst }

// Decode parses a message body; the body must be fully consumed.
func (m *StatsReq) Decode(body []byte) error {
	c := cursor{b: body}
	return c.done()
}

// StatPair is one named counter.
type StatPair struct {
	Name  string
	Value uint64
}

// StatsResp carries the server's counters, sorted by name, plus typed
// build/identity fields: uptime, Go build info, and a monotonic stats-epoch
// counter (incremented per snapshot within one daemon boot) — a scraper that
// sees the epoch decrease knows the daemon restarted without having to parse
// recovery log lines.
type StatsResp struct {
	GoVersion  string // runtime.Version() of the daemon
	GoMaxProcs uint32 // runtime.GOMAXPROCS(0) of the daemon
	UptimeMs   uint64 // milliseconds since daemon boot
	StatsEpoch uint64 // strictly increasing per STATS snapshot within a boot
	Pairs      []StatPair
}

// Append serializes the message body onto dst.
func (m *StatsResp) Append(dst []byte) []byte {
	dst = appendStr(dst, m.GoVersion)
	dst = binary.BigEndian.AppendUint32(dst, m.GoMaxProcs)
	dst = binary.BigEndian.AppendUint64(dst, m.UptimeMs)
	dst = binary.BigEndian.AppendUint64(dst, m.StatsEpoch)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Pairs)))
	for _, p := range m.Pairs {
		dst = appendStr(dst, p.Name)
		dst = binary.BigEndian.AppendUint64(dst, p.Value)
	}
	return dst
}

// Decode parses a message body; the body must be fully consumed.
func (m *StatsResp) Decode(body []byte) error {
	c := cursor{b: body}
	m.GoVersion = c.str(MaxName)
	m.GoMaxProcs = c.u32()
	m.UptimeMs = c.u64()
	m.StatsEpoch = c.u64()
	n := c.u16()
	m.Pairs = nil
	for i := uint16(0); i < n && !c.bad; i++ {
		m.Pairs = append(m.Pairs, StatPair{Name: c.str(MaxName), Value: c.u64()})
	}
	return c.done()
}

// MaxShareLen bounds the share-byte width of a share-mode object: shares are
// packed into the low bits of a uint64 value with the write id above them,
// and the write id needs at least 32 bits to be collision-free for any
// realistic run, so shares are one to four bytes (IDA threshold k >= 2).
const MaxShareLen = 4

// ShareWriteReq installs one node's slice of a dispersed write: Share is the
// node's IDA share, already XOR-masked under the writer's per-node share pad
// (cluster.SharePad — the server cannot unmask it), packed with the
// client-assigned write id as Wid<<(8*ShareLen)|Share. The server applies it
// to the named share object as a writeMax of the packed value, so a newer
// write id always wins and re-sent duplicates are no-ops; ShareLen pins the
// packing width, which must be consistent across every write to the object.
type ShareWriteReq struct {
	Name     string
	Wid      uint64
	Share    uint64
	ShareLen uint8
}

// Append serializes the message body onto dst.
func (m *ShareWriteReq) Append(dst []byte) []byte {
	dst = appendStr(dst, m.Name)
	dst = binary.BigEndian.AppendUint64(dst, m.Wid)
	dst = binary.BigEndian.AppendUint64(dst, m.Share)
	return append(dst, m.ShareLen)
}

// Decode parses a message body; the body must be fully consumed.
func (m *ShareWriteReq) Decode(body []byte) error {
	c := cursor{b: body}
	m.Name = c.str(MaxName)
	m.Wid = c.u64()
	m.Share = c.u64()
	m.ShareLen = c.u8()
	return c.done()
}

// ShareWriteResp acknowledges a SHARE-WRITE. Wid is the object's current
// write id after the request took effect — the request's own when it won,
// the newer resident one when it was absorbed. A writer that must not reuse
// ids across restarts probes with Wid 0 (never applied; the packed value 0
// cannot exceed a resident one) and resumes above the answer.
type ShareWriteResp struct {
	Wid uint64
}

// Append serializes the message body onto dst.
func (m *ShareWriteResp) Append(dst []byte) []byte {
	return binary.BigEndian.AppendUint64(dst, m.Wid)
}

// Decode parses a message body; the body must be fully consumed.
func (m *ShareWriteResp) Decode(body []byte) error {
	c := cursor{b: body}
	m.Wid = c.u64()
	return c.done()
}

// ShareFetchReq and ShareFetchResp are SHARE-FETCH's bodies: READ-FETCH's
// own, under VerbShareFetch. A share object is a max register, and a max
// register reads as a register does (Algorithm 2 reads by Algorithm 1), so a
// share fetch is the same audited fetch&xor over the packed values. PrevSeq
// is the node-local sequence number of the client's cached share (each node
// numbers its own writes; write ids align shares across nodes, sequence
// numbers never leave their node), and Value is the packed share under
// ValueMask. No response echoes the node id: a connection's node is checked
// once, at OPEN.
type (
	ShareFetchReq  = ReadFetchReq
	ShareFetchResp = ReadFetchResp
)

// ErrResp reports a failed request under VerbErr.
type ErrResp struct {
	Code ErrCode
	Msg  string
}

// Append serializes the message body onto dst.
func (m *ErrResp) Append(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(m.Code))
	return appendStr(dst, m.Msg)
}

// Decode parses a message body; the body must be fully consumed.
func (m *ErrResp) Decode(body []byte) error {
	c := cursor{b: body}
	m.Code = ErrCode(c.u16())
	m.Msg = c.str(MaxErrMsg)
	return c.done()
}

// Error renders the remote failure; ErrResp is returned as a Go error by
// clients.
func (m *ErrResp) Error() string {
	return fmt.Sprintf("wire: remote error %d: %s", m.Code, m.Msg)
}
