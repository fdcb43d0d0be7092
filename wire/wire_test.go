package wire_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"auditreg/wire"
)

// message is the common shape of every wire message, for table-driven
// round-trip tests.
type message interface {
	Append(dst []byte) []byte
	Decode(body []byte) error
}

// sampleMessages returns one populated instance of every message type.
func sampleMessages() []message {
	session := [wire.SessionLen]byte{}
	for i := range session {
		session[i] = byte(i * 7)
	}
	nonce := [wire.NonceLen]byte{}
	for i := range nonce {
		nonce[i] = byte(255 - i)
	}
	return []message{
		&wire.OpenReq{Name: "acct/42", Kind: wire.KindRegister, Capacity: 1 << 16, Node: 3},
		&wire.OpenResp{Kind: wire.KindMaxRegister, Readers: 64, Epoch: 0xFEED_BEEF_0042_1111, Session: session, Node: 3},
		&wire.WriteReq{Name: "acct/42", Value: 0xdeadbeefcafe},
		&wire.ReadFetchReq{Name: "acct/42", Reader: 63, PrevSeq: ^uint64(0)},
		&wire.ReadFetchResp{Fetched: true, Seq: 12, Value: 0x1234},
		&wire.AuditReq{Name: "acct/42", Fresh: true, Since: 41},
		&wire.AuditResp{Kind: wire.KindRegister, Nonce: nonce, Next: 43, More: true, Rows: []wire.AuditRow{
			{Value: 7, Readers: 0b101}, {Value: 9, Readers: 1 << 63},
		}},
		&wire.StatsReq{},
		&wire.StatsResp{GoVersion: "go1.22.1", GoMaxProcs: 8, UptimeMs: 123456, StatsEpoch: 7, Pairs: []wire.StatPair{{Name: "writes", Value: 3}, {Name: "reads-fetched", Value: 9}}},
		&wire.ShareWriteReq{Name: "acct/42", Wid: 99, Share: 0xBEEF12, ShareLen: 3},
		&wire.ShareWriteResp{Wid: 99},
		&wire.ShareFetchReq{Name: "acct/42", Reader: 5, PrevSeq: ^uint64(0)},
		&wire.ShareFetchResp{Fetched: true, Seq: 4, Value: 0x63_0000BEEF12, Node: 2},
		&wire.ErrResp{Code: wire.CodeKindMismatch, Msg: "open \"x\" as register: object is a maxregister"},
	}
}

func TestMessageRoundTrip(t *testing.T) {
	for _, msg := range sampleMessages() {
		body := msg.Append(nil)
		fresh := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(message)
		if err := fresh.Decode(body); err != nil {
			t.Fatalf("%T: Decode: %v", msg, err)
		}
		if !reflect.DeepEqual(msg, fresh) {
			t.Fatalf("%T: round trip %+v -> %+v", msg, msg, fresh)
		}
		// Strictness: any trailing byte must be rejected.
		if err := fresh.Decode(append(append([]byte{}, body...), 0)); err == nil {
			t.Fatalf("%T: decode accepted a trailing byte", msg)
		}
		// Truncations must error, never panic.
		for cut := 0; cut < len(body); cut++ {
			if err := fresh.Decode(body[:cut]); err == nil &&
				// An empty StatsResp/AuditResp prefix can be a valid
				// shorter message only if it consumes everything; the
				// cursor's done() guarantees that, so err == nil means a
				// genuinely self-delimiting prefix — only legal when the
				// re-encoding matches the prefix.
				!bytes.Equal(fresh.(message).Append(nil), body[:cut]) {
				t.Fatalf("%T: decode accepted a non-canonical %d-byte truncation", msg, cut)
			}
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	msgs := sampleMessages()
	verbs := []wire.Verb{
		wire.VerbOpen, wire.VerbOpen, wire.VerbWrite, wire.VerbReadFetch,
		wire.VerbReadFetch, wire.VerbAudit,
		wire.VerbAudit, wire.VerbStats, wire.VerbStats, wire.VerbShareWrite,
		wire.VerbShareWrite, wire.VerbShareFetch, wire.VerbShareFetch,
		wire.VerbErr,
	}
	for i, msg := range msgs {
		stream = wire.AppendFrame(stream, uint64(i+1), verbs[i], msg.Append(nil))
	}

	// ParseFrame walks the concatenation.
	rest := stream
	for i := range msgs {
		var f wire.Frame
		var err error
		f, rest, err = wire.ParseFrame(rest)
		if err != nil {
			t.Fatalf("ParseFrame %d: %v", i, err)
		}
		if f.ID != uint64(i+1) || f.Verb != verbs[i] {
			t.Fatalf("frame %d: id=%d verb=%v", i, f.ID, f.Verb)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after parsing all frames", len(rest))
	}

	// ReadFrame sees the same frames through a reader.
	br := bufio.NewReader(bytes.NewReader(stream))
	for i, msg := range msgs {
		f, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if f.ID != uint64(i+1) || f.Verb != verbs[i] {
			t.Fatalf("frame %d: id=%d verb=%v", i, f.ID, f.Verb)
		}
		fresh := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(message)
		if err := fresh.Decode(f.Body); err != nil {
			t.Fatalf("frame %d body: %v", i, err)
		}
		if !reflect.DeepEqual(msg, fresh) {
			t.Fatalf("frame %d: %+v -> %+v", i, msg, fresh)
		}
	}
	if _, err := wire.ReadFrame(br); err != io.EOF {
		t.Fatalf("ReadFrame at end = %v, want io.EOF", err)
	}
}

func TestFrameLimits(t *testing.T) {
	// Truncated prefix: need more bytes.
	frame := wire.AppendFrame(nil, 1, wire.VerbStats, nil)
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := wire.ParseFrame(frame[:cut]); err != io.ErrUnexpectedEOF {
			t.Fatalf("ParseFrame(%d-byte prefix) err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
	// Mid-frame EOF through a reader is ErrUnexpectedEOF, not EOF.
	br := bufio.NewReader(bytes.NewReader(frame[:len(frame)-1]))
	if _, err := wire.ReadFrame(br); err != io.ErrUnexpectedEOF {
		t.Fatalf("ReadFrame(truncated) err = %v, want ErrUnexpectedEOF", err)
	}
	// Undersized and oversized length prefixes are protocol errors.
	under := []byte{0, 0, 0, wire.HeaderLen - 1}
	if _, _, err := wire.ParseFrame(under); err == nil || err == io.ErrUnexpectedEOF {
		t.Fatalf("undersized length err = %v", err)
	}
	over := []byte{0xff, 0xff, 0xff, 0xff}
	if _, _, err := wire.ParseFrame(over); err == nil || err == io.ErrUnexpectedEOF {
		t.Fatalf("oversized length err = %v", err)
	}
	if _, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader(over))); err == nil {
		t.Fatal("ReadFrame accepted an oversized length")
	}
	// Overlong names are rejected.
	long := &wire.OpenReq{Name: strings.Repeat("x", wire.MaxName+1), Kind: wire.KindRegister}
	var dec wire.OpenReq
	if err := dec.Decode(long.Append(nil)); err == nil {
		t.Fatal("Decode accepted an overlong name")
	}
}

func TestMasksAreDeterministicAndDistinct(t *testing.T) {
	var session [wire.SessionLen]byte
	session[0] = 1
	var key [32]byte
	key[0] = 2
	var nonce [wire.NonceLen]byte

	if wire.ValueMask(session, "a", 3, 7) != wire.ValueMask(session, "a", 3, 7) {
		t.Fatal("ValueMask is not deterministic")
	}
	// The pads of a response's first seven rows: what masking zero rows
	// leaves behind.
	auditPads := func(nonce [wire.NonceLen]byte) [7]wire.AuditRow {
		var rows [7]wire.AuditRow
		wire.MaskAuditRows(key, nonce, rows[:])
		return rows
	}
	if auditPads(nonce) != auditPads(nonce) {
		t.Fatal("MaskAuditRows is not deterministic")
	}
	rows := []wire.AuditRow{{Value: 7, Readers: 0b101}, {Value: 9}, {Value: 11, Readers: 1 << 63}}
	twice := append([]wire.AuditRow(nil), rows...)
	wire.MaskAuditRows(key, nonce, twice)
	for i := range rows {
		if twice[i].Value == rows[i].Value || twice[i].Readers == rows[i].Readers {
			t.Fatalf("row %d left a word in the clear: %+v", i, twice[i])
		}
	}
	if wire.MaskAuditRows(key, nonce, twice); !reflect.DeepEqual(twice, rows) {
		t.Fatalf("masking twice gives %v, want %v back", twice, rows)
	}
	seen := map[uint64]string{}
	put := func(tag string, v uint64) {
		if prev, dup := seen[v]; dup {
			t.Fatalf("mask collision between %s and %s", prev, tag)
		}
		seen[v] = tag
	}
	put("base", wire.ValueMask(session, "a", 3, 7))
	put("name", wire.ValueMask(session, "b", 3, 7))
	put("reader", wire.ValueMask(session, "a", 4, 7))
	put("seq", wire.ValueMask(session, "a", 3, 8))
	var session2 [wire.SessionLen]byte
	put("session", wire.ValueMask(session2, "a", 3, 7))
	// A name/reader boundary shift must not alias ("ab", r=3 vs "b" with
	// different framing): numbers are hashed before the name.
	put("shift", wire.ValueMask(session, "ab", 3, 7))
	// A row's two words sit under different pads, and so do different rows
	// and different responses.
	var nonce2 [wire.NonceLen]byte
	nonce2[0] = 9
	for tag, pads := range map[string][7]wire.AuditRow{"audit": auditPads(nonce), "audit-nonce": auditPads(nonce2)} {
		for i, pad := range pads {
			put(fmt.Sprintf("%s/row %d/value", tag, i), pad.Value)
			put(fmt.Sprintf("%s/row %d/readers", tag, i), pad.Readers)
		}
	}
}
