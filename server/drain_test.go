package server

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"auditreg"
	"auditreg/store"
	"auditreg/wire"
)

// These tests pin what run-to-completion connections promise: the shard
// queue plus its busy flag serialize a shard without an executor goroutine,
// nothing is stranded when a drainer lets go, a connection's pipeline keeps
// its per-object order across hand-overs, responses leave in corked flushes,
// and a socket that stopped draining holds nobody's shard.

// startTCP boots srv on a loopback port and stops it with the test.
func startTCP(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Key = auditreg.KeyFromSeed(23)
	cfg.PoolInterval = time.Hour
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		<-done
	})
	return srv, ln.Addr().String()
}

// rawConn is a test client speaking frames over a transport.
type rawConn struct {
	nc net.Conn
	sc *wire.FrameScanner
}

func newRawConn(nc net.Conn) *rawConn {
	nc.SetDeadline(time.Now().Add(20 * time.Second)) // a stranded request fails the test, not the run
	return &rawConn{nc: nc, sc: wire.NewFrameScanner(nc, 64<<10)}
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	return newRawConn(nc)
}

// open opens name as a register and returns the connection's session secret.
func (rc *rawConn) open(name string) ([wire.SessionLen]byte, error) {
	var resp wire.OpenResp
	frame := wire.AppendFrame(nil, 1, wire.VerbOpen, (&wire.OpenReq{Name: name, Kind: wire.KindRegister}).Append(nil))
	if _, err := rc.nc.Write(frame); err != nil {
		return resp.Session, err
	}
	f, err := rc.sc.Next()
	if err != nil {
		return resp.Session, err
	}
	if f.Verb != wire.VerbOpen {
		return resp.Session, fmt.Errorf("open answered with verb %v", f.Verb)
	}
	return resp.Session, resp.Decode(f.Body)
}

func writeFrame(dst []byte, id uint64, name string, v uint64) []byte {
	return wire.AppendFrame(dst, id, wire.VerbWrite, (&wire.WriteReq{Name: name, Value: v}).Append(nil))
}

// TestManyConnsOneShard hammers one shard with a two-slot queue from many
// pipelining connections: every request is answered exactly once — executed
// or shed — the store saw exactly the executed ones, and when the last
// drainer has left the shard is idle and empty.
func TestManyConnsOneShard(t *testing.T) {
	srv, addr := startTCP(t, Config{Readers: 4, ExecShards: 1, ShardQueue: 2})
	const conns, rounds, depth = 8, 40, 16
	for g := 0; g < conns; g++ { // opened here: an OPEN on the wire could be shed too
		if _, err := srv.Store().Open(fmt.Sprintf("hammer/%d", g), store.Register); err != nil {
			t.Fatalf("Open: %v", err)
		}
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var okTotal, busyTotal uint64
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rc := dialRaw(t, addr)
			name := fmt.Sprintf("hammer/%d", g)
			var ok, busy uint64
			id := uint64(1)
			for r := 0; r < rounds; r++ {
				var burst []byte
				want := make(map[uint64]bool, depth)
				for i := 0; i < depth; i++ {
					id++
					want[id] = true
					burst = writeFrame(burst, id, name, id)
				}
				if _, err := rc.nc.Write(burst); err != nil {
					t.Errorf("conn %d: write: %v", g, err)
					return
				}
				for len(want) > 0 {
					f, err := rc.sc.Next()
					if err != nil {
						t.Errorf("conn %d: %d requests never answered: %v", g, len(want), err)
						return
					}
					if !want[f.ID] {
						t.Errorf("conn %d: id %d answered twice or never asked", g, f.ID)
						return
					}
					delete(want, f.ID)
					switch f.Verb {
					case wire.VerbWrite:
						ok++
					case wire.VerbErr:
						var e wire.ErrResp
						if err := e.Decode(f.Body); err != nil || e.Code != wire.CodeBusy {
							t.Errorf("conn %d: id %d failed with %+v, %v; want CodeBusy", g, f.ID, e, err)
							return
						}
						busy++
					default:
						t.Errorf("conn %d: id %d answered with verb %v", g, f.ID, f.Verb)
						return
					}
				}
			}
			mu.Lock()
			okTotal += ok
			busyTotal += busy
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	e := srv.shards[0]
	if got := srv.writes.Load(); got != okTotal {
		t.Errorf("store executed %d writes, clients saw %d acknowledged", got, okTotal)
	}
	if got := e.sheds.Load(); got != busyTotal {
		t.Errorf("shard shed %d requests, clients saw %d CodeBusy", got, busyTotal)
	}
	if got := e.enqueues.Load(); got != okTotal {
		t.Errorf("shard enqueued %d requests, want %d", got, okTotal)
	}
	if e.busy.Load() || len(e.queue) != 0 {
		t.Errorf("shard left busy=%v depth=%d after the last drainer", e.busy.Load(), len(e.queue))
	}
	t.Logf("%d executed, %d shed", okTotal, busyTotal)
}

// TestPipelinedWriteThenReadKeepsOrder sends write(v) and a read of the same
// object in one segment, over and over, from connections that share one
// shard: whichever reader ends up executing the pair — the connection's own,
// or another's that held the shard when the pair arrived and took it over in
// its drain — the read returns v (per-connection per-object FIFO).
func TestPipelinedWriteThenReadKeepsOrder(t *testing.T) {
	_, addr := startTCP(t, Config{Readers: 4, ExecShards: 1})
	const conns, rounds = 4, 300
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rc := dialRaw(t, addr)
			name := fmt.Sprintf("fifo/%d", g)
			session, err := rc.open(name)
			if err != nil {
				t.Errorf("conn %d: open: %v", g, err)
				return
			}
			for r := uint64(1); r <= rounds; r++ {
				v := uint64(g)<<32 | r
				pair := writeFrame(nil, 2*r, name, v)
				pair = wire.AppendFrame(pair, 2*r+1, wire.VerbReadFetch,
					(&wire.ReadFetchReq{Name: name, Reader: 1, PrevSeq: ^uint64(0)}).Append(nil))
				if _, err := rc.nc.Write(pair); err != nil {
					t.Errorf("conn %d: write: %v", g, err)
					return
				}
				for i := 0; i < 2; i++ {
					f, err := rc.sc.Next()
					if err != nil {
						t.Errorf("conn %d round %d: %v", g, r, err)
						return
					}
					if f.Verb != wire.VerbReadFetch {
						continue
					}
					var resp wire.ReadFetchResp
					if err := resp.Decode(f.Body); err != nil {
						t.Errorf("conn %d round %d: decode: %v", g, r, err)
						return
					}
					if got := resp.Value ^ wire.ValueMask(session, name, 1, resp.Seq); got != v {
						t.Errorf("conn %d round %d: read %#x behind the write of %#x", g, r, got, v)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// pipeConn serves one end of an in-memory pipe as a connection of srv and
// returns the test's end. A pipe delivers what one Write carries in one
// Read (up to the reader's buffer), so "k requests in one segment" is exact.
func pipeConn(t *testing.T, srv *Server) *rawConn {
	t.Helper()
	ours, theirs := net.Pipe()
	c, err := newConn(srv, theirs)
	if err != nil {
		t.Fatalf("newConn: %v", err)
	}
	done := make(chan struct{})
	go func() { c.serve(); close(done) }()
	t.Cleanup(func() { ours.Close(); <-done })
	return newRawConn(ours)
}

// TestCorkedFlush pins the reader's cork: k requests that arrived in one
// segment leave in one flush, and a segment that fills the read buffer
// still flushes every connFlushBatch frames.
func TestCorkedFlush(t *testing.T) {
	srv, err := New(Config{Key: auditreg.KeyFromSeed(23), Readers: 4, PoolInterval: time.Hour})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const name = "cork"
	if _, err := srv.Store().Open(name, store.Register); err != nil {
		t.Fatalf("Open: %v", err)
	}
	rc := pipeConn(t, srv)
	send := func(k int) (flushes, frames uint64) {
		t.Helper()
		var burst []byte
		for i := 0; i < k; i++ {
			burst = writeFrame(burst, uint64(i), name, uint64(i))
		}
		if len(burst) > connIOBuf {
			t.Fatalf("a %d-frame burst is %d bytes, more than one read of %d", k, len(burst), connIOBuf)
		}
		f0, n0 := srv.connFlushes.Load(), srv.connFlushFrames.Load()
		werr := make(chan error, 1)
		go func() { _, err := rc.nc.Write(burst); werr <- err }()
		for i := 0; i < k; i++ {
			if f, err := rc.sc.Next(); err != nil || f.Verb != wire.VerbWrite {
				t.Fatalf("response %d of %d: verb %v, err %v", i, k, f.Verb, err)
			}
		}
		if err := <-werr; err != nil {
			t.Fatalf("write: %v", err)
		}
		// The counters move after the write the last response came from.
		for i := 0; srv.connFlushFrames.Load()-n0 < uint64(k) && i < 1000; i++ {
			time.Sleep(time.Millisecond)
		}
		return srv.connFlushes.Load() - f0, srv.connFlushFrames.Load() - n0
	}
	if flushes, frames := send(10); flushes != 1 || frames != 10 {
		t.Errorf("10 requests in one segment left in %d flushes of %d frames, want 1 of 10", flushes, frames)
	}
	// A whole read buffer of requests.
	k := connIOBuf / len(writeFrame(nil, 0, name, 0))
	want := uint64((k + connFlushBatch - 1) / connFlushBatch)
	if flushes, frames := send(k); flushes != want || frames != uint64(k) {
		t.Errorf("%d requests in one segment left in %d flushes of %d frames, want %d of %d", k, flushes, frames, want, k)
	}
}

// TestStalledPeerHoldsNoShard parks a connection's reader in a flush its
// peer never drains — an in-memory pipe has no send buffer, so the very
// first response blocks — and runs another connection's operations through
// the same shard: they complete, because a response is only ever appended
// while a shard is held and written after it is released.
func TestStalledPeerHoldsNoShard(t *testing.T) {
	srv, err := New(Config{Key: auditreg.KeyFromSeed(23), Readers: 4, ExecShards: 1, PoolInterval: time.Hour})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, name := range []string{"stalled", "live"} {
		if _, err := srv.Store().Open(name, store.Register); err != nil {
			t.Fatalf("Open: %v", err)
		}
	}
	stalled := pipeConn(t, srv)
	werr := make(chan error, 1)
	go func() {
		_, err := stalled.nc.Write(writeFrame(writeFrame(nil, 1, "stalled", 1), 2, "stalled", 2))
		werr <- err
	}()
	if err := <-werr; err != nil {
		t.Fatalf("write: %v", err)
	}
	for i := 0; srv.writes.Load() < 2 && i < 5000; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := srv.writes.Load(); got != 2 {
		t.Fatalf("%d of the stalled connection's writes executed, want 2", got)
	}

	live := pipeConn(t, srv)
	for i := uint64(1); i <= 50; i++ {
		werr := make(chan error, 1)
		go func() { _, err := live.nc.Write(writeFrame(nil, i, "live", i)); werr <- err }()
		f, err := live.sc.Next()
		if err != nil || f.ID != i || f.Verb != wire.VerbWrite {
			t.Fatalf("op %d behind a stalled peer: id %d verb %v, err %v", i, f.ID, f.Verb, err)
		}
		if err := <-werr; err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if e := srv.shards[0]; e.busy.Load() {
		t.Error("shard held while its last drainer waits on a socket")
	}
}
