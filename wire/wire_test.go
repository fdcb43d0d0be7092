package wire_test

import (
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

// sample is one populated message and the verb it travels under.
type sample struct {
	verb wire.Verb
	msg  message
}

// sampleMessages returns one populated instance of every message body, each
// under its verb: the round-trip tests walk it, and the fuzzer seeds from it
// and decodes each verb as the bodies listed under it here.
func sampleMessages() []sample {
	session := [wire.SessionLen]byte{}
	for i := range session {
		session[i] = byte(i * 7)
	}
	nonce := [wire.NonceLen]byte{}
	for i := range nonce {
		nonce[i] = byte(255 - i)
	}
	return []sample{
		{wire.VerbOpen, &wire.OpenReq{Name: "acct/42", Kind: wire.KindRegister, Capacity: 1 << 16, Node: 3}},
		{wire.VerbOpen, &wire.OpenResp{Kind: wire.KindMaxRegister, Readers: 64, Epoch: 0xFEED_BEEF_0042_1111, Session: session, Node: 3}},
		{wire.VerbWrite, &wire.WriteReq{Name: "acct/42", Value: 0xdeadbeefcafe}},
		{wire.VerbReadFetch, &wire.ReadFetchReq{Name: "acct/42", Reader: 63, PrevSeq: ^uint64(0)}},
		{wire.VerbReadFetch, &wire.ReadFetchResp{Fetched: true, Seq: 12, Value: 0x1234}},
		{wire.VerbAudit, &wire.AuditReq{Name: "acct/42", Fresh: true, Since: 41}},
		{wire.VerbAudit, &wire.AuditResp{Kind: wire.KindRegister, Nonce: nonce, Next: 43, More: true, Rows: []wire.AuditRow{
			{Value: 7, Readers: 0b101}, {Value: 9, Readers: 1 << 63},
		}}},
		{wire.VerbStats, &wire.StatsReq{}},
		{wire.VerbStats, &wire.StatsResp{GoVersion: "go1.22.1", GoMaxProcs: 8, UptimeMs: 123456, StatsEpoch: 7, Pairs: []wire.StatPair{{Name: "writes", Value: 3}, {Name: "reads-fetched", Value: 9}}}},
		{wire.VerbShareWrite, &wire.ShareWriteReq{Name: "acct/42", Wid: 99, Share: 0xBEEF12, ShareLen: 3}},
		{wire.VerbShareWrite, &wire.ShareWriteResp{Wid: 99}},
		{wire.VerbShareFetch, &wire.ShareFetchReq{Name: "acct/42", Reader: 5, PrevSeq: ^uint64(0)}},
		{wire.VerbShareFetch, &wire.ShareFetchResp{Fetched: true, Seq: 4, Value: 0x63_0000BEEF12}},
		{wire.VerbErr, &wire.ErrResp{Code: wire.CodeKindMismatch, Msg: "open \"x\" as register: object is a maxregister"}},
	}
}

// zeroOf returns a zero message of msg's type.
func zeroOf(msg message) message {
	return reflect.New(reflect.TypeOf(msg).Elem()).Interface().(message)
}

func TestMessageRoundTrip(t *testing.T) {
	for _, s := range sampleMessages() {
		msg := s.msg
		body := msg.Append(nil)
		fresh := zeroOf(msg)
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
	samples := sampleMessages()
	for i, s := range samples {
		stream = wire.AppendFrame(stream, uint64(i+1), s.verb, s.msg.Append(nil))
	}

	// ParseFrame walks the concatenation.
	rest := stream
	for i, s := range samples {
		var f wire.Frame
		var err error
		f, rest, err = wire.ParseFrame(rest)
		if err != nil {
			t.Fatalf("ParseFrame %d: %v", i, err)
		}
		if f.ID != uint64(i+1) || f.Verb != s.verb {
			t.Fatalf("frame %d: id=%d verb=%v", i, f.ID, f.Verb)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after parsing all frames", len(rest))
	}

	// A FrameScanner sees the same frames through a reader.
	sc := wire.NewFrameScanner(bytes.NewReader(stream), 0)
	for i, s := range samples {
		f, err := sc.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if f.ID != uint64(i+1) || f.Verb != s.verb {
			t.Fatalf("frame %d: id=%d verb=%v", i, f.ID, f.Verb)
		}
		msg := zeroOf(s.msg)
		if err := msg.Decode(f.Body); err != nil {
			t.Fatalf("frame %d body: %v", i, err)
		}
		if !reflect.DeepEqual(s.msg, msg) {
			t.Fatalf("frame %d: %+v -> %+v", i, s.msg, msg)
		}
	}
	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("Next at end = %v, want io.EOF", err)
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
	if _, err := wire.NewFrameScanner(bytes.NewReader(frame[:len(frame)-1]), 0).Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("Next(truncated) err = %v, want ErrUnexpectedEOF", err)
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
	if _, err := wire.NewFrameScanner(bytes.NewReader(over), 0).Next(); err == nil {
		t.Fatal("FrameScanner accepted an oversized length")
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
