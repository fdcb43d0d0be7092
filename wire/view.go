package wire

import "unsafe"

// Zero-copy decoding. The allocating Decode methods copy every
// variable-length field out of the body; the DecodeView methods below alias
// it instead, eliminating the per-request string allocation on the server's
// hot verbs (WRITE, READ-FETCH, SHARE-WRITE, SHARE-FETCH).
//
// A view-decoded message borrows the body's backing buffer: its string
// fields are valid exactly as long as the body is — for a frame from a
// FrameScanner, until the next Next call. The borrower must not retain a
// view field past that point; anything that outlives the request (an object
// name being registered in a store) must be copied first (strings.Clone).
// Cold verbs (OPEN, AUDIT, STATS) keep the allocating Decode for exactly
// that reason: their names may be retained.

// viewString returns a string aliasing b — no copy, shared lifetime.
func viewString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// strView decodes a u16-length-prefixed string of at most max bytes as a
// view into the body.
func (c *cursor) strView(max int) string {
	n := int(c.u16())
	if n > max {
		c.fail()
		return ""
	}
	b := c.take(n)
	if b == nil {
		return ""
	}
	return viewString(b)
}

// DecodeView parses a message body with Name aliasing body; see the
// package's zero-copy decoding rules. The body must be fully consumed.
func (m *WriteReq) DecodeView(body []byte) error {
	c := cursor{b: body}
	m.Name = c.strView(MaxName)
	m.Value = c.u64()
	return c.done()
}

// DecodeView parses a message body with Name aliasing body; see the
// package's zero-copy decoding rules. The body must be fully consumed.
func (m *ReadFetchReq) DecodeView(body []byte) error {
	c := cursor{b: body}
	m.Name = c.strView(MaxName)
	m.Reader = c.u8()
	m.PrevSeq = c.u64()
	return c.done()
}

// DecodeView parses a message body with Name aliasing body; see the
// package's zero-copy decoding rules. The body must be fully consumed.
func (m *ShareWriteReq) DecodeView(body []byte) error {
	c := cursor{b: body}
	m.Name = c.strView(MaxName)
	m.Wid = c.u64()
	m.Share = c.u64()
	m.ShareLen = c.u8()
	return c.done()
}

// DecodeView parses a message body with Name aliasing body; see the
// package's zero-copy decoding rules. The body must be fully consumed.
func (m *ShareFetchReq) DecodeView(body []byte) error {
	c := cursor{b: body}
	m.Name = c.strView(MaxName)
	m.Reader = c.u8()
	m.PrevSeq = c.u64()
	return c.done()
}
