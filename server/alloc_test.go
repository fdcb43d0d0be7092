package server

import (
	"context"
	"encoding/binary"
	"testing"

	"auditreg"
	"auditreg/internal/race"
	"auditreg/internal/telem"
	"auditreg/persist"
	"auditreg/store"
	"auditreg/wire"
)

// newBenchConn builds a server and a bare conn over it — no sockets; the
// handlers are exercised directly, exactly as dispatch drives them.
func newBenchConn(t testing.TB) (*Server, *conn) {
	t.Helper()
	srv, err := New(Config{Key: auditreg.KeyFromSeed(5), Readers: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv, &conn{srv: srv}
}

// TestServerFastPathAllocationFree pins the server's request fast path at
// zero heap allocations per op: decode-in-place request views, in-place
// store operations, and response encodes into a reused buffer. The silent
// read — the paper's common case — the write and the effective fetch (which
// includes the server's own helping announce) are all exactly zero: the
// store's pad window derives a missing block by value and keeps it in place
// (see internal/core's alloc tests).
func TestServerFastPathAllocationFree(t *testing.T) {
	srv, c := newBenchConn(t)
	const name = "alloc/reg"
	if _, err := srv.Store().Open(name, store.Register); err != nil {
		t.Fatalf("Open: %v", err)
	}

	dst := make([]byte, 0, 256)
	wbody := (&wire.WriteReq{Name: name, Value: 1}).Append(nil)
	fbody := (&wire.ReadFetchReq{Name: name, Reader: 0, PrevSeq: ^uint64(0)}).Append(nil)

	// Warm every path: handles, history chunks, pad windows.
	for i := 0; i < 8; i++ {
		if _, v, commit := c.handleWrite(wbody, dst[:0]); v != wire.VerbWrite || commit.Pending() {
			t.Fatalf("warm write answered %v", v)
		}
		c.handleFetch(wire.VerbReadFetch, fbody, dst[:0])
	}

	// Silent read: the reader's cache is current (same PrevSeq resend), no
	// fetch&xor, no journal — the paper's hot path. Exactly zero.
	var resp wire.ReadFetchResp
	out, v, _ := c.handleFetch(wire.VerbReadFetch, fbody, dst[:0])
	if v != wire.VerbReadFetch {
		t.Fatalf("fetch answered %v", v)
	}
	if err := resp.Decode(out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	silent := (&wire.ReadFetchReq{Name: name, Reader: 0, PrevSeq: resp.Seq}).Append(nil)
	c.handleFetch(wire.VerbReadFetch, silent, dst[:0])
	if n := testing.AllocsPerRun(1000, func() {
		if _, v, _ := c.handleFetch(wire.VerbReadFetch, silent, dst[:0]); v != wire.VerbReadFetch {
			t.Fatal("silent fetch failed")
		}
	}); n != 0 {
		t.Fatalf("silent read-fetch allocated %v times per run", n)
	}

	// Repeated same-value writes: the handler and wire layers add zero, and
	// so does the register, pad blocks included.
	if n := testing.AllocsPerRun(1000, func() {
		if _, v, _ := c.handleWrite(wbody, dst[:0]); v != wire.VerbWrite {
			t.Fatal("write failed")
		}
	}); n != 0 {
		t.Fatalf("write allocated %v times per run, want 0", n)
	}

	// Effective fetch: reader 1 lags, fetch&xor plus the helping announce
	// plus masked response. Also zero. The request body is patched in place (PrevSeq is its
	// last 8 bytes), as a pipelining client's encoder would reuse its
	// buffer.
	f1body := (&wire.ReadFetchReq{Name: name, Reader: 1, PrevSeq: 0}).Append(nil)
	fetch1 := func(prev uint64) uint64 {
		binary.BigEndian.PutUint64(f1body[len(f1body)-8:], prev)
		out, v, _ := c.handleFetch(wire.VerbReadFetch, f1body, dst[:0])
		if v != wire.VerbReadFetch {
			t.Fatalf("fetch answered %v", v)
		}
		var r wire.ReadFetchResp
		if err := r.Decode(out); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return r.Seq
	}
	seq := fetch1(^uint64(0))
	if n := testing.AllocsPerRun(1000, func() {
		if _, v, _ := c.handleWrite(wbody, dst[:0]); v != wire.VerbWrite {
			t.Fatal("write failed")
		}
		seq = fetch1(seq)
	}); n != 0 {
		t.Fatalf("write+fetch pair allocated %v times per run, want 0", n)
	}
}

// TestInstrumentedPathAllocationFree pins the hot paths WITH the telemetry
// the dispatch loops add — the exact observe sequence a routed request pays:
// conn-decode on the reader, queue-wait + store-op under the shard, and the
// handler itself. Telemetry must be free on the paths it measures: the
// silent read and the write stay at exactly zero allocations.
func TestInstrumentedPathAllocationFree(t *testing.T) {
	srv, c := newBenchConn(t)
	const name = "alloc/telem"
	if _, err := srv.Store().Open(name, store.Register); err != nil {
		t.Fatalf("Open: %v", err)
	}
	dst := make([]byte, 0, 256)
	wbody := (&wire.WriteReq{Name: name, Value: 1}).Append(nil)
	fbody := (&wire.ReadFetchReq{Name: name, Reader: 0, PrevSeq: ^uint64(0)}).Append(nil)
	for i := 0; i < 8; i++ {
		c.handleWrite(wbody, dst[:0])
		c.handleFetch(wire.VerbReadFetch, fbody, dst[:0])
	}
	var resp wire.ReadFetchResp
	out, _, _ := c.handleFetch(wire.VerbReadFetch, fbody, dst[:0])
	if err := resp.Decode(out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	silent := (&wire.ReadFetchReq{Name: name, Reader: 0, PrevSeq: resp.Seq}).Append(nil)

	tel := srv.tel
	instrumented := func(body []byte, want wire.Verb) {
		tr := telem.Now()
		t0 := telem.Now()
		tel.queueWait.Observe(0, t0-tr)
		var v wire.Verb
		if want == wire.VerbWrite {
			_, v, _ = c.handleWrite(body, dst[:0])
		} else {
			_, v, _ = c.handleFetch(wire.VerbReadFetch, body, dst[:0])
		}
		tel.storeOp.Observe(0, telem.Now()-t0)
		tel.connDecode.Observe(c.tslot, telem.Now()-tr)
		if v != want {
			t.Fatalf("instrumented op answered %v, want %v", v, want)
		}
	}
	if n := testing.AllocsPerRun(1000, func() {
		instrumented(silent, wire.VerbReadFetch)
	}); n != 0 {
		t.Fatalf("instrumented silent read-fetch allocated %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		instrumented(wbody, wire.VerbWrite)
	}); n != 0 {
		t.Fatalf("instrumented write allocated %v times per run, want 0", n)
	}
}

// TestDurableWriteAllocations pins a durable write's whole server-side cost:
// the handler, then the Wait of the Commit it hands the completion stage,
// which returns once the record is through fdatasync. Neither the Commit nor
// the WAL's ticket behind it allocates, the committer's keystream cursor
// derives its pad blocks by value, and the register's pad window keeps its
// blocks in place: a durable write reads 0. The bound stays under one
// because the ticket comes from a sync.Pool, which a collection may empty.
func TestDurableWriteAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("a sync.Pool discards at random under -race")
	}
	srv, err := New(Config{Key: auditreg.KeyFromSeed(5), Readers: 8, DataDir: t.TempDir(), Fsync: persist.SyncAlways, WALStripes: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Shutdown(context.Background())
	c := &conn{srv: srv}
	const name = "alloc/durable"
	if _, err := srv.Store().Open(name, store.Register); err != nil {
		t.Fatalf("Open: %v", err)
	}
	dst := make([]byte, 0, 256)
	wbody := (&wire.WriteReq{Name: name, Value: 1}).Append(nil)
	write := func() {
		_, v, commit := c.handleWrite(wbody, dst[:0])
		if v != wire.VerbWrite || !commit.Pending() {
			t.Fatalf("durable write answered %v, pending %v", v, commit.Pending())
		}
		if err := commit.Wait(); err != nil {
			t.Fatalf("Wait: %v", err)
		}
	}
	for range 50 { // warm the handles, the WAL's buffers and its ticket pool
		write()
	}
	if n := testing.AllocsPerRun(200, write); n >= 1 {
		t.Fatalf("durable write allocated %v times per run, want < 1", n)
	}
}
