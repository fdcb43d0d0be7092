package server

import (
	"testing"

	"auditreg"
	"auditreg/internal/race"
	"auditreg/internal/shard"
	"auditreg/store"
	"auditreg/wire"
)

// recycle returns the responses a socketless test conn has pending to the
// arena, as a flush would, and reports how many there were.
func recycle(c *conn) int {
	n := len(c.pend)
	for _, b := range c.pend {
		wire.PutBuf(b)
	}
	c.pend = c.pend[:0]
	return n
}

// TestShardRoutingAllocationFree pins a routed request at zero heap
// allocations from frame to response: peeking the name out of the undecoded
// body, hashing it, copying the body into a pooled buffer, enqueueing on the
// shard, finding it idle and executing the request inline — a silent read,
// the paper's common case — and appending the response frame must all ride
// the arena.
func TestShardRoutingAllocationFree(t *testing.T) {
	if race.Enabled {
		t.Skip("a sync.Pool discards at random under -race")
	}
	srv, c := newBenchConn(t)
	const name = "alloc/route"
	if _, err := srv.Store().Open(name, store.Register); err != nil {
		t.Fatalf("Open: %v", err)
	}
	// One effective fetch brings reader 0 up to date; resending its seq as
	// PrevSeq makes every later fetch silent.
	c.route(wire.Frame{ID: 1, Verb: wire.VerbReadFetch,
		Body: (&wire.ReadFetchReq{Name: name, Reader: 0, PrevSeq: ^uint64(0)}).Append(nil)}, 0)
	first, _, err := wire.ParseFrame(c.pend[0].B)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var resp wire.ReadFetchResp
	if err := resp.Decode(first.Body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	recycle(c)
	f := wire.Frame{ID: 2, Verb: wire.VerbReadFetch,
		Body: (&wire.ReadFetchReq{Name: name, Reader: 0, PrevSeq: resp.Seq}).Append(nil)}
	silent := srv.readsSilent.Load()
	// Warm the arena classes the request copy and the response draw from.
	for i := 0; i < 8; i++ {
		c.route(f, 0)
		recycle(c)
	}
	if n := testing.AllocsPerRun(1000, func() {
		c.route(f, 0)
		if recycle(c) != 1 {
			t.Fatal("routed request was not answered inline")
		}
	}); n != 0 {
		t.Fatalf("route + inline execute allocated %v times per run, want 0", n)
	}
	if got := srv.readsSilent.Load() - silent; got < 1000 {
		t.Fatalf("%d silent reads executed, want >= 1000", got)
	}
	e := srv.shards[shard.HashBytes([]byte(name))&srv.shardMask]
	if e.busy.Load() || len(e.queue) != 0 {
		t.Fatalf("shard left busy=%v depth=%d after inline drains", e.busy.Load(), len(e.queue))
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

// TestShardQueueShedsWithBusy drives the admission control directly. The
// shard queue bounds the waiting behind ANOTHER connection's drain — a
// connection's own pipeline never queues behind itself, its reader executes
// each request before it reads the next, so its socket is what pushes back
// on it. So the shard is marked busy, as if another connection's reader were
// draining it: with a one-slot queue the first routed request sits queued,
// the second is shed as a CodeBusy error frame and counted, and neither
// reaches the store.
func TestShardQueueShedsWithBusy(t *testing.T) {
	srv, err := New(Config{Key: auditreg.KeyFromSeed(5), Readers: 8, ExecShards: 1, ShardQueue: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := srv.Store().Open("shed/reg", store.Register); err != nil {
		t.Fatalf("Open: %v", err)
	}
	c := &conn{srv: srv}
	e := srv.shards[0]
	e.busy.Store(true)
	body := (&wire.WriteReq{Name: "shed/reg", Value: 1}).Append(nil)
	c.route(wire.Frame{ID: 1, Verb: wire.VerbWrite, Body: body}, 0) // fills the queue
	c.route(wire.Frame{ID: 2, Verb: wire.VerbWrite, Body: body}, 0) // shed

	if got := e.enqueues.Load(); got != 1 {
		t.Errorf("enqueues = %d, want 1", got)
	}
	if got := e.sheds.Load(); got != 1 {
		t.Errorf("sheds = %d, want 1", got)
	}
	if got := srv.writes.Load(); got != 0 {
		t.Errorf("%d writes reached the store behind a busy shard, want 0", got)
	}

	if len(c.pend) != 1 {
		t.Fatalf("%d responses pending, want the one shed frame", len(c.pend))
	}
	f, _, err := wire.ParseFrame(c.pend[0].B)
	if err != nil {
		t.Fatalf("parse shed frame: %v", err)
	}
	if f.ID != 2 || f.Verb != wire.VerbErr {
		t.Fatalf("shed frame: id %d verb %v, want id 2 VerbErr", f.ID, f.Verb)
	}
	var er wire.ErrResp
	if err := er.Decode(f.Body); err != nil {
		t.Fatalf("decode shed body: %v", err)
	}
	if er.Code != wire.CodeBusy {
		t.Fatalf("shed code = %d, want CodeBusy", er.Code)
	}
	recycle(c)

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

	// The other connection lets go; the next reader to come by drains what
	// was queued behind it.
	e.busy.Store(false)
	c.drain(e)
	if got := srv.writes.Load(); got != 1 {
		t.Errorf("%d writes executed after the release, want 1", got)
	}
	if len(c.pend) != 1 {
		t.Fatalf("%d responses pending, want 1", len(c.pend))
	}
	if f, _, _ := wire.ParseFrame(c.pend[0].B); f.ID != 1 || f.Verb != wire.VerbWrite {
		t.Errorf("response: id %d verb %v, want id 1 VerbWrite", f.ID, f.Verb)
	}
	recycle(c)
}
