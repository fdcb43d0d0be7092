package wire

import (
	"bytes"
	"io"
	"net"
	"testing"
)

// TestEncodeAllocationFree pins the encode half of the wire hot path at zero
// heap allocations: building a complete frame — prefix reservation, message
// body, prefix patch — into a reused caller buffer never touches the heap.
func TestEncodeAllocationFree(t *testing.T) {
	buf := make([]byte, 0, 256)
	req := ReadFetchReq{Name: "bench/object-00042", Reader: 3, PrevSeq: 17}
	if n := testing.AllocsPerRun(1000, func() {
		b := BeginFrame(buf[:0])
		b = req.Append(b)
		if err := EndFrame(b, 0, 99, VerbReadFetch); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("frame encode allocated %v times per run", n)
	}

	resp := ReadFetchResp{Fetched: true, Seq: 18, Value: 0xA1B2}
	if n := testing.AllocsPerRun(1000, func() {
		b := BeginFrame(buf[:0])
		b = resp.Append(b)
		if err := EndFrame(b, 0, 99, VerbReadFetch); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("response encode allocated %v times per run", n)
	}
}

// TestDecodeAllocationFree pins the decode half at zero allocations:
// ParseFrame plus the view decoders of every hot request, and the
// fixed-field response decoders, all work in place.
func TestDecodeAllocationFree(t *testing.T) {
	fetch := ReadFetchReq{Name: "bench/object-00042", Reader: 3, PrevSeq: 17}
	write := WriteReq{Name: "bench/object-00042", Value: 7}
	share := ShareFetchReq{Name: "bench/object-00042", Reader: 3, PrevSeq: 18}
	resp := ReadFetchResp{Fetched: true, Seq: 18, Value: 0xA1B2}

	var stream []byte
	stream = AppendFrame(stream, 1, VerbReadFetch, fetch.Append(nil))
	stream = AppendFrame(stream, 2, VerbWrite, write.Append(nil))
	stream = AppendFrame(stream, 3, VerbShareFetch, share.Append(nil))
	stream = AppendFrame(stream, 4, VerbReadFetch, resp.Append(nil))

	if n := testing.AllocsPerRun(1000, func() {
		rest := stream
		var f Frame
		var err error
		if f, rest, err = ParseFrame(rest); err != nil {
			t.Fatal(err)
		}
		var rf ReadFetchReq
		if err := rf.DecodeView(f.Body); err != nil {
			t.Fatal(err)
		}
		if f, rest, err = ParseFrame(rest); err != nil {
			t.Fatal(err)
		}
		var wr WriteReq
		if err := wr.DecodeView(f.Body); err != nil {
			t.Fatal(err)
		}
		if f, rest, err = ParseFrame(rest); err != nil {
			t.Fatal(err)
		}
		var sf ShareFetchReq
		if err := sf.DecodeView(f.Body); err != nil {
			t.Fatal(err)
		}
		if f, _, err = ParseFrame(rest); err != nil {
			t.Fatal(err)
		}
		var rr ReadFetchResp
		if err := rr.Decode(f.Body); err != nil {
			t.Fatal(err)
		}
		if rf.Name != fetch.Name || wr.Value != write.Value || sf.PrevSeq != share.PrevSeq || rr.Value != resp.Value {
			t.Fatal("decode produced wrong fields")
		}
	}); n != 0 {
		t.Fatalf("frame decode allocated %v times per run", n)
	}
}

// TestMasksAllocationFree pins the pad derivations at zero allocations —
// ValueMask runs once per non-silent fetch response, on the fast path.
func TestMasksAllocationFree(t *testing.T) {
	var session [SessionLen]byte
	var key [32]byte
	var nonce [NonceLen]byte
	var rows [5]AuditRow
	if n := testing.AllocsPerRun(1000, func() {
		if ValueMask(session, "bench/object-00042", 3, 17) == 0 {
			t.Fatal("mask is zero") // (2^-64 false-positive; pins the call)
		}
		MaskAuditRows(key, nonce, rows[:])
	}); n != 0 {
		t.Fatalf("mask derivation allocated %v times per run", n)
	}
}

// TestScannerAllocationFree pins a warmed FrameScanner at zero allocations
// per frame: the read buffer is reused, frames are views.
func TestScannerAllocationFree(t *testing.T) {
	req := ReadFetchReq{Name: "bench/object-00042", Reader: 3, PrevSeq: 17}
	var stream []byte
	for i := 0; i < 4; i++ {
		stream = AppendFrame(stream, uint64(i), VerbReadFetch, req.Append(nil))
	}
	r := bytes.NewReader(nil)
	sc := NewFrameScanner(r, 4<<10)
	if n := testing.AllocsPerRun(1000, func() {
		r.Reset(stream)
		for i := 0; i < 4; i++ {
			f, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			var rf ReadFetchReq
			if err := rf.DecodeView(f.Body); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Fatalf("scanner allocated %v times per frame batch", n)
	}
}

// TestBufArenaAllocationFree pins the Get/Put cycle of the frame-buffer
// arena at zero steady-state allocations.
func TestBufArenaAllocationFree(t *testing.T) {
	PutBuf(GetBuf(64)) // warm the class
	if n := testing.AllocsPerRun(1000, func() {
		b := GetBuf(64)
		b.B = append(b.B, 1, 2, 3)
		PutBuf(b)
	}); n != 0 {
		t.Fatalf("buffer arena allocated %v times per cycle", n)
	}
}

// TestFlushAllocationFree pins a warmed Flusher at zero allocations per
// flush over a real socket — the writev path, where a net.Buffers header
// local to Flush would escape through WriteTo's pointer receiver and cost
// one allocation per flush on both conn writers.
func TestFlushAllocationFree(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		io.Copy(io.Discard, nc)
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	req := ReadFetchReq{Name: "bench/object-00042", Reader: 3, PrevSeq: 17}
	var fl Flusher
	// Buffers below the arena's smallest class: PutBuf drops them, so the
	// test keeps reusing its own and the count does not depend on what the
	// pool retains (under -race a sync.Pool discards at random).
	pend := []*Buf{{B: make([]byte, 0, 64)}, {B: make([]byte, 0, 64)}, {B: make([]byte, 0, 64)}}
	flush := func() {
		for i, b := range pend {
			b.B = req.Append(BeginFrame(b.B[:0]))
			if err := EndFrame(b.B, 0, uint64(i), VerbReadFetch); err != nil {
				t.Fatal(err)
			}
		}
		if err := fl.Flush(nc, pend); err != nil {
			t.Fatal(err)
		}
	}
	flush() // warm the iovec
	if n := testing.AllocsPerRun(1000, flush); n != 0 {
		t.Fatalf("flush allocated %v times per run", n)
	}
	nc.Close()
	<-drained
}
