package server

import (
	"encoding/binary"
	"strings"
	"testing"

	"auditreg/wire"
)

// TestPeekNameAdversarial extends the happy-path peek↔decode pin to
// malformed and boundary bodies: for routing to be sound, every body a verb
// decoder accepts with a non-empty name must peek to exactly that name, and
// every body the peek rejects must be one no decoder extracts a non-empty
// name from (the router falls through to inline execution, where the decoder
// rejects it — or, for the one legal divergence, the zero-length name,
// handles it unrouted). peekName deliberately checks less than the decoders
// (no MaxName bound, no tail validation): over-accepting only routes a
// doomed request to a shard, while over-rejecting would execute a valid
// request on the wrong goroutine.
func TestPeekNameAdversarial(t *testing.T) {
	// rawBody builds a u16-length-prefixed name (with an arbitrary claimed
	// length) followed by a tail.
	rawBody := func(claim int, name string, tail []byte) []byte {
		b := binary.BigEndian.AppendUint16(nil, uint16(claim))
		b = append(b, name...)
		return append(b, tail...)
	}
	u64tail := make([]byte, 8) // a valid WriteReq value tail
	maxName := strings.Repeat("n", wire.MaxName)
	longName := strings.Repeat("n", wire.MaxName+1)

	cases := []struct {
		desc     string
		body     []byte
		wantPeek string // "" = peek must reject
	}{
		{"nil body", nil, ""},
		{"truncated length prefix", []byte{0}, ""},
		{"zero-length name, empty tail", rawBody(0, "", nil), ""},
		{"zero-length name, valid write tail", rawBody(0, "", u64tail), ""},
		{"name length exceeds body", rawBody(5, "ab", nil), ""},
		{"name length exceeds body by one", rawBody(3, "ab", nil), ""},
		{"valid name, truncated tail", rawBody(3, "obj", u64tail[:7]), "obj"},
		{"valid name, trailing garbage", rawBody(3, "obj", append(append([]byte(nil), u64tail...), 0xFF)), "obj"},
		{"max-length name, valid tail", rawBody(wire.MaxName, maxName, u64tail), maxName},
		{"over-max name (decoders reject, peek routes)", rawBody(wire.MaxName+1, longName, u64tail), longName},
	}

	// Every name-carrying verb's real decoder, as the handlers invoke them.
	decoders := map[string]func(body []byte) (string, error){
		"open": func(b []byte) (string, error) {
			var m wire.OpenReq
			err := m.Decode(b)
			return m.Name, err
		},
		"write": func(b []byte) (string, error) {
			var m wire.WriteReq
			err := m.DecodeView(b)
			return m.Name, err
		},
		"fetch": func(b []byte) (string, error) {
			var m wire.ReadFetchReq
			err := m.DecodeView(b)
			return m.Name, err
		},
		"share-write": func(b []byte) (string, error) {
			var m wire.ShareWriteReq
			err := m.DecodeView(b)
			return m.Name, err
		},
		"share-fetch": func(b []byte) (string, error) {
			var m wire.ShareFetchReq
			err := m.DecodeView(b)
			return m.Name, err
		},
		"audit": func(b []byte) (string, error) {
			var m wire.AuditReq
			err := m.Decode(b)
			return m.Name, err
		},
	}

	for _, tc := range cases {
		peeked, ok := peekName(tc.body)
		if tc.wantPeek == "" {
			if ok {
				t.Errorf("%s: peekName accepted, name %q", tc.desc, peeked)
			}
		} else if !ok || string(peeked) != tc.wantPeek {
			t.Errorf("%s: peekName = %q, %v; want %q", tc.desc, peeked, ok, tc.wantPeek)
		}
		for verb, decode := range decoders {
			name, err := decode(tc.body)
			if err != nil {
				continue // decoder rejected: nothing to disagree about
			}
			if name == "" {
				// The one legal divergence: a decodable zero-length name is
				// unroutable (peek rejects) and handled inline.
				if ok {
					t.Errorf("%s/%s: decoder returned empty name but peek accepted %q", tc.desc, verb, peeked)
				}
				continue
			}
			if !ok || string(peeked) != name {
				t.Errorf("%s/%s: decoder accepted name %q but peek = %q, %v — shard routing would disagree with execution",
					tc.desc, verb, name, peeked, ok)
			}
		}
	}

	// The over-max case must stay doomed: if a decoder ever starts accepting
	// names beyond MaxName, the peek's missing bound becomes a routing bug
	// and this pin should force the conversation.
	for verb, decode := range decoders {
		if name, err := decode(rawBody(wire.MaxName+1, longName, u64tail)); err == nil && name != "" {
			t.Errorf("%s: decoder accepted a %d-byte name; peekName has no MaxName bound and relies on decoders rejecting these", verb, len(name))
		}
	}
}
