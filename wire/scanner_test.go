package wire

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// chunkReader delivers its content in fixed-size chunks, exercising frames
// split across arbitrary read boundaries.
type chunkReader struct {
	b    []byte
	step int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	n := c.step
	if n > len(p) {
		n = len(p)
	}
	if n > len(c.b) {
		n = len(c.b)
	}
	copy(p, c.b[:n])
	c.b = c.b[n:]
	return n, nil
}

// TestFrameScannerRoundTrip drives a mixed stream — tiny frames, a frame
// larger than the scanner's initial buffer, empty bodies — through every
// chunking granularity and checks each decoded frame against what was
// encoded.
func TestFrameScannerRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type sent struct {
		id   uint64
		verb Verb
		body []byte
	}
	var frames []sent
	var stream []byte
	for i := 0; i < 40; i++ {
		var body []byte
		switch i % 4 {
		case 0:
			// larger than the scanner's initial buffer
			body = []byte(strings.Repeat("x", 5<<10))
		case 1:
			body = nil
		default:
			body = make([]byte, rng.Intn(200))
			rng.Read(body)
		}
		f := sent{id: uint64(i), verb: Verb(i%6 + 1), body: body}
		frames = append(frames, f)
		stream = AppendFrame(stream, f.id, f.verb, f.body)
	}

	for _, step := range []int{1, 3, 7, 64, 1 << 20} {
		sc := NewFrameScanner(&chunkReader{b: stream, step: step}, 4<<10)
		for i, want := range frames {
			f, err := sc.Next()
			if err != nil {
				t.Fatalf("step %d frame %d: %v", step, i, err)
			}
			if f.ID != want.id || f.Verb != want.verb || !bytes.Equal(f.Body, want.body) {
				t.Fatalf("step %d frame %d: got (%d, %v, %d bytes), want (%d, %v, %d bytes)",
					step, i, f.ID, f.Verb, len(f.Body), want.id, want.verb, len(want.body))
			}
		}
		if _, err := sc.Next(); err != io.EOF {
			t.Fatalf("step %d: want io.EOF at end, got %v", step, err)
		}
	}
}

// TestFrameScannerTornStream pins that a stream ending mid-frame surfaces
// io.ErrUnexpectedEOF after yielding every complete frame.
func TestFrameScannerTornStream(t *testing.T) {
	var stream []byte
	stream = AppendFrame(stream, 1, VerbWrite, []byte("complete"))
	whole := AppendFrame(nil, 2, VerbWrite, []byte("cut short"))
	stream = append(stream, whole[:len(whole)-3]...)

	sc := NewFrameScanner(bytes.NewReader(stream), 4<<10)
	f, err := sc.Next()
	if err != nil || f.ID != 1 {
		t.Fatalf("first frame: %v, %v", f, err)
	}
	if _, err := sc.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn tail: want io.ErrUnexpectedEOF, got %v", err)
	}
}

// TestFrameScannerDrainsBufferedFramesPastReadError pins the drain
// property: frames fully buffered before the reader starts failing are
// still returned, and only then the error.
func TestFrameScannerDrainsBufferedFramesPastReadError(t *testing.T) {
	var stream []byte
	for i := 0; i < 3; i++ {
		stream = AppendFrame(stream, uint64(i), VerbWrite, []byte("queued"))
	}
	// A reader that hands everything over in one call, then fails hard.
	sc := NewFrameScanner(io.MultiReader(bytes.NewReader(stream), failReader{}), 4<<10)
	for i := 0; i < 3; i++ {
		f, err := sc.Next()
		if err != nil || f.ID != uint64(i) {
			t.Fatalf("buffered frame %d: %v, %v", i, f, err)
		}
	}
	if _, err := sc.Next(); err == nil || err == io.EOF {
		t.Fatalf("want the read failure surfaced, got %v", err)
	}
}

type failReader struct{}

func (failReader) Read([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestFrameScannerRejectsOversizedFrame pins that a length prefix beyond
// MaxFrame is a protocol error, not an unbounded buffer growth.
func TestFrameScannerRejectsOversizedFrame(t *testing.T) {
	bad := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	sc := NewFrameScanner(bytes.NewReader(bad), 4<<10)
	if _, err := sc.Next(); err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
		t.Fatalf("want a protocol error, got %v", err)
	}
}

// TestBufArenaClasses pins the arena contract: GetBuf returns an empty
// buffer with at least the requested capacity, for every class boundary.
func TestBufArenaClasses(t *testing.T) {
	for _, n := range []int{0, 1, 256, 257, 4 << 10, 64 << 10, MaxFrame + 4, MaxFrame + 5} {
		b := GetBuf(n)
		if len(b.B) != 0 || cap(b.B) < n {
			t.Fatalf("GetBuf(%d): len %d cap %d", n, len(b.B), cap(b.B))
		}
		b.B = append(b.B, make([]byte, n)...)
		PutBuf(b)
	}
}

// TestFrameScannerBuffered pins the question a corking reader asks between
// frames — would the next Next block? — on an empty buffer, a partial frame
// (header cut, body cut), back-to-back frames, and a length prefix Next
// rejects without reading.
func TestFrameScannerBuffered(t *testing.T) {
	one := AppendFrame(nil, 1, VerbWrite, []byte("body"))
	two := AppendFrame(AppendFrame(nil, 1, VerbWrite, []byte("a")), 2, VerbStats, nil)

	sc := NewFrameScanner(bytes.NewReader(nil), 0)
	if sc.Buffered() {
		t.Error("empty scanner reports a buffered frame")
	}

	// Back to back: true after the first frame, false after the second.
	sc = NewFrameScanner(bytes.NewReader(two), 0)
	if sc.Buffered() {
		t.Error("nothing read yet, but a frame is reported buffered")
	}
	if f, err := sc.Next(); err != nil || f.ID != 1 {
		t.Fatalf("first frame: id %d, err %v", f.ID, err)
	}
	if !sc.Buffered() {
		t.Error("second of two back-to-back frames not reported buffered")
	}
	if f, err := sc.Next(); err != nil || f.ID != 2 {
		t.Fatalf("second frame: id %d, err %v", f.ID, err)
	}
	if sc.Buffered() {
		t.Error("drained scanner reports a buffered frame")
	}

	// Partial: a whole frame followed by a cut of the next, at every cut.
	for cut := 1; cut < len(one); cut++ {
		stream := append(append([]byte(nil), one...), one[:cut]...)
		sc := NewFrameScanner(&chunkReader{b: stream, step: len(stream)}, 0)
		if _, err := sc.Next(); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if sc.Buffered() {
			t.Errorf("cut %d: a frame cut after %d of %d bytes reported buffered", cut, cut, len(one))
		}
	}

	// A length Next rejects: it returns at once, so it counts as buffered.
	bad := append(append([]byte(nil), one...), 0, 0, 0, 1, 0xEE)
	sc = NewFrameScanner(&chunkReader{b: bad, step: len(bad)}, 0)
	if _, err := sc.Next(); err != nil {
		t.Fatalf("frame before the malformed one: %v", err)
	}
	if !sc.Buffered() {
		t.Error("a malformed length prefix would not block Next, but is not reported buffered")
	}
	if _, err := sc.Next(); err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
		t.Errorf("Next over a malformed length prefix = %v, want a protocol error", err)
	}
}
