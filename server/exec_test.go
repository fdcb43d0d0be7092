package server

import (
	"bytes"
	"testing"

	"auditreg"
	"auditreg/internal/shard"
	"auditreg/store"
	"auditreg/wire"
)

// TestShardRoutingAllocationFree pins the reader-side routing hop at zero
// heap allocations per request: peeking the name out of the undecoded body,
// hashing it, copying the body into a pooled buffer, and enqueueing on the
// shard executor must all ride the arena. The executor side is drained in
// the measured loop so the pooled buffers actually recycle.
func TestShardRoutingAllocationFree(t *testing.T) {
	srv, c := newBenchConn(t)
	const name = "alloc/route"
	if _, err := srv.Store().Open(name, store.Register); err != nil {
		t.Fatalf("Open: %v", err)
	}
	body := (&wire.WriteReq{Name: name, Value: 7}).Append(nil)
	f := wire.Frame{ID: 1, Verb: wire.VerbWrite, Body: body}
	e := srv.execs[shard.HashBytes([]byte(name))&srv.execMask]
	drain := func() {
		req := <-e.queue
		wire.PutBuf(req.buf)
		req.c.inflight.Done()
	}
	// Warm the arena class the request body draws from.
	for i := 0; i < 8; i++ {
		c.route(f)
		drain()
	}
	if n := testing.AllocsPerRun(1000, func() {
		c.route(f)
		drain()
	}); n != 0 {
		t.Fatalf("shard routing allocated %v times per run, want 0", n)
	}
}

// TestPeekNameMatchesDecode pins the router's name peek against the real
// decoders for every name-carrying verb: the peeked bytes must be exactly
// the name the handler will decode, or routing and execution would disagree
// about the shard.
func TestPeekNameMatchesDecode(t *testing.T) {
	const name = "peek/some-object"
	bodies := map[string][]byte{
		"open":        (&wire.OpenReq{Name: name, Kind: wire.KindRegister}).Append(nil),
		"write":       (&wire.WriteReq{Name: name, Value: 9}).Append(nil),
		"fetch":       (&wire.ReadFetchReq{Name: name, Reader: 3, PrevSeq: 1}).Append(nil),
		"audit":       (&wire.AuditReq{Name: name, Fresh: true}).Append(nil),
		"share-write": (&wire.ShareWriteReq{Name: name, Wid: 1, Share: 2, ShareLen: 3}).Append(nil),
		"share-fetch": (&wire.ShareFetchReq{Name: name, Reader: 3, PrevSeq: 1}).Append(nil),
	}
	for verb, body := range bodies {
		got, ok := peekName(body)
		if !ok || string(got) != name {
			t.Errorf("%s: peekName = %q, %v; want %q", verb, got, ok, name)
		}
	}
	for _, bad := range [][]byte{nil, {0}, {0, 0}, {0, 5, 'a'}} {
		if _, ok := peekName(bad); ok {
			t.Errorf("peekName(%v) accepted a malformed body", bad)
		}
	}
}

// TestShardQueueShedsWithBusy drives the admission control directly: with a
// one-slot queue and no executor draining it, the second routed request must
// be shed as a CodeBusy error frame and counted, while the first sits
// queued.
func TestShardQueueShedsWithBusy(t *testing.T) {
	srv, err := New(Config{Key: auditreg.KeyFromSeed(5), Readers: 8, ExecShards: 1, ShardQueue: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c := &conn{srv: srv, writec: make(chan *wire.Buf, 4)}
	body := (&wire.WriteReq{Name: "shed/reg", Value: 1}).Append(nil)
	c.route(wire.Frame{ID: 1, Verb: wire.VerbWrite, Body: body}) // fills the queue
	c.route(wire.Frame{ID: 2, Verb: wire.VerbWrite, Body: body}) // shed

	e := srv.execs[0]
	if got := e.enqueues.Load(); got != 1 {
		t.Errorf("enqueues = %d, want 1", got)
	}
	if got := e.sheds.Load(); got != 1 {
		t.Errorf("sheds = %d, want 1", got)
	}

	select {
	case out := <-c.writec:
		sc := wire.NewFrameScanner(bytes.NewReader(out.B), 512)
		f, err := sc.Next()
		if err != nil {
			t.Fatalf("scan shed frame: %v", err)
		}
		if f.ID != 2 || f.Verb != wire.VerbErr {
			t.Fatalf("shed frame: id %d verb %v, want id 2 VerbErr", f.ID, f.Verb)
		}
		var e wire.ErrResp
		if err := e.Decode(f.Body); err != nil {
			t.Fatalf("decode shed body: %v", err)
		}
		if e.Code != wire.CodeBusy {
			t.Fatalf("shed code = %d, want CodeBusy", e.Code)
		}
		wire.PutBuf(out)
	default:
		t.Fatal("no shed response was emitted")
	}

	// The shed surfaces in STATS under the names the bench drivers read.
	stats := make(map[string]uint64)
	for _, p := range srv.statPairs(srv.snapshotCounters()) {
		stats[p.Name] = p.Value
	}
	if stats["shard-sheds"] != 1 || stats["shard-enqueues"] != 1 || stats["shard-depth"] != 1 {
		t.Errorf("stats = sheds %d, enqueues %d, depth %d; want 1, 1, 1",
			stats["shard-sheds"], stats["shard-enqueues"], stats["shard-depth"])
	}
	if stats["shards"] != 1 || stats["shard-queue-cap"] != 1 {
		t.Errorf("stats = shards %d, queue-cap %d; want 1, 1", stats["shards"], stats["shard-queue-cap"])
	}
}
