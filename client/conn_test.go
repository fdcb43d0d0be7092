package client

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"auditreg"
	"auditreg/internal/netsim"
	"auditreg/server"
	"auditreg/store"
)

// serve boots an in-process server on ln and stops it with the test.
func serve(t *testing.T, cfg server.Config, ln net.Listener) {
	t.Helper()
	cfg.Key = auditreg.KeyFromSeed(91)
	if cfg.PoolInterval == 0 {
		cfg.PoolInterval = time.Hour // no background sweeps: alloc counts stay the ops' own
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	})
}

func listenTCP(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return ln
}

// faultConn is a transport whose writes a test can park, swallow and fail.
// It is not a *net.TCPConn, so a flush reaches it as one Write per frame.
type faultConn struct {
	net.Conn

	mu      sync.Mutex
	hold    chan struct{} // non-nil: the next Write parks here first, once
	parked  chan struct{} // closed when that Write has parked
	swallow bool          // Writes succeed without sending anything
	failAt  int           // the failAt-th Write from arming on fails; 0: none does
	writes  int
}

func (c *faultConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	hold := c.hold
	c.hold = nil
	c.writes++
	fail := c.failAt != 0 && c.writes == c.failAt
	swallow := c.swallow
	c.mu.Unlock()
	if hold != nil {
		close(c.parked)
		<-hold
	}
	switch {
	case fail:
		return 0, errors.New("injected write failure")
	case swallow:
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// faultDialer wraps the pool's connections in faultConns, newest last.
type faultDialer struct {
	mu    sync.Mutex
	conns []*faultConn
}

func (d *faultDialer) dial(addr string, timeout time.Duration) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	fc := &faultConn{Conn: nc}
	d.mu.Lock()
	d.conns = append(d.conns, fc)
	d.mu.Unlock()
	return fc, nil
}

// wantConnLost asserts err is a NodeError for addr wrapping ErrConnLost.
func wantConnLost(t *testing.T, what string, err error, addr string) {
	t.Helper()
	var ne *NodeError
	if !errors.As(err, &ne) || ne.Addr != addr || !errors.Is(err, ErrConnLost) {
		t.Errorf("%s failed with %v, want a NodeError for %s wrapping ErrConnLost", what, err, addr)
	}
}

// TestCombiningFlush drives many goroutines over one connection: every
// request is answered, and the server receives the request frames in request
// id order — ids are assigned together with the append to the pending list,
// and whoever flushes writes the list front to back.
func TestCombiningFlush(t *testing.T) {
	var mu sync.Mutex
	var ids []uint64
	ln := listenTCP(t)
	serve(t, server.Config{Readers: 16, FrameTap: func(outbound bool, frame []byte) {
		if !outbound {
			mu.Lock()
			ids = append(ids, binary.BigEndian.Uint64(frame[4:]))
			mu.Unlock()
		}
	}}, ln)
	cl, err := Dial(ln.Addr().String(), WithConns(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	const goroutines, rounds = 16, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		obj, err := cl.Open(fmt.Sprintf("own-%02d", g), store.Register)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				want := uint64(g)<<32 | uint64(i)
				if err := obj.Write(want); err != nil {
					t.Errorf("g%d Write: %v", g, err)
					return
				}
				if got, err := obj.Read(g); err != nil || got != want {
					t.Errorf("g%d Read = %#x, %v; want %#x", g, got, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if want := goroutines * (1 + 2*rounds); len(ids) != want {
		t.Fatalf("server received %d request frames, want %d", len(ids), want)
	}
	for i, id := range ids {
		if id != uint64(i+1) {
			t.Fatalf("request frame %d carries id %d: frames left out of append order", i, id)
		}
	}
}

// TestWriteErrorMidBatch fails a flush in the middle of a batch that carries
// blocking requests and fan-out legs alike: every one of them — written,
// unwritten, or written by an earlier batch and still unanswered — fails
// exactly once with a NodeError wrapping ErrConnLost, the reader slots are
// released, and the pool redials.
func TestWriteErrorMidBatch(t *testing.T) {
	ln := listenTCP(t)
	addr := ln.Addr().String()
	serve(t, server.Config{Readers: 8}, ln)
	var fd faultDialer
	cl, err := Dial(addr, WithConns(1), WithDialer(fd.dial))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	obj, err := cl.Open("m", store.MaxRegister)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := obj.ShareWrite(1, 7, 3); err != nil {
		t.Fatalf("ShareWrite: %v", err)
	}

	// From here on nothing reaches the server. The first write parks; the
	// requests issued meanwhile pile up into one batch, whose second frame
	// fails.
	const legsN, blockers = 4, 4
	fc := fd.conns[0]
	fc.mu.Lock()
	fc.hold, fc.parked = make(chan struct{}), make(chan struct{})
	fc.swallow, fc.writes, fc.failAt = true, 0, 3
	hold, parked := fc.hold, fc.parked
	fc.mu.Unlock()

	first := make(chan error, 1)
	go func() { first <- obj.Write(9) }()
	<-parked

	out := NewRound() // a second delivery of a leg would show as one result more
	defer out.Release()
	for i := 0; i < legsN; i++ {
		if !obj.StartShareRead(i, i, out) {
			t.Fatalf("leg %d did not start on a live connection", i)
		}
	}
	errs := make(chan error, blockers)
	for i := 0; i < blockers; i++ {
		go func(i int) {
			_, err := obj.ShareRead(legsN + i)
			errs <- err
		}(i)
	}
	cn := cl.conns[0]
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		cn.mu.Lock()
		n := len(cn.pend)
		cn.mu.Unlock()
		if n == legsN+blockers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d frames pending behind the parked flush, want %d", n, legsN+blockers)
		}
	}
	close(hold)

	wantConnLost(t, "the flusher's own request", <-first, addr)
	// The flusher ran every completion before its send returned.
	results, _ := out.Wait(0, nil)
	if len(results) != legsN {
		t.Fatalf("%d leg results delivered, want exactly %d", len(results), legsN)
	}
	seen := make(map[int]bool)
	for _, r := range results {
		wantConnLost(t, fmt.Sprintf("leg %d", r.Tag), r.Err, addr)
		if seen[r.Tag] {
			t.Errorf("leg %d completed twice", r.Tag)
		}
		seen[r.Tag] = true
	}
	for i := 0; i < blockers; i++ {
		wantConnLost(t, "a parked caller", <-errs, addr)
	}

	// Every slot was released and the pool replaces the dead connection.
	for r := 0; r < legsN+blockers; r++ {
		if _, err := obj.ShareRead(r); err != nil {
			t.Fatalf("ShareRead(%d) after the failure: %v", r, err)
		}
	}
}

// TestCloseCompletesLegs: closing the client completes every fan-out leg in
// flight, once, with a NodeError.
func TestCloseCompletesLegs(t *testing.T) {
	ln := listenTCP(t)
	serve(t, server.Config{Readers: 8}, ln)
	var fd faultDialer
	cl, err := Dial(ln.Addr().String(), WithConns(1), WithDialer(fd.dial))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	obj, err := cl.Open("m", store.MaxRegister)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fc := fd.conns[0]
	fc.mu.Lock()
	fc.swallow = true
	fc.mu.Unlock()

	const legsN = 6
	out := NewRound()
	defer out.Release()
	for i := 0; i < legsN; i++ {
		started := false
		if i%2 == 0 {
			started = obj.StartShareRead(i, i, out)
		} else {
			started = obj.StartShareWrite(uint64(i), 1, 3, i, out)
		}
		if !started {
			t.Fatalf("leg %d did not start", i)
		}
	}
	cl.Close()
	results, _ := out.Wait(0, nil)
	if len(results) != legsN {
		t.Fatalf("%d leg results after Close, want exactly %d", len(results), legsN)
	}
	for _, r := range results {
		var ne *NodeError
		if !errors.As(r.Err, &ne) {
			t.Errorf("leg %d completed with %v, want a NodeError", r.Tag, r.Err)
		}
	}
}

// TestStalledFlushTimesOut: a transport that stops taking bytes parks the
// flusher only until the write deadline; the request fails with ErrTimeout,
// attributed to the node.
func TestStalledFlushTimesOut(t *testing.T) {
	const timeout = 100 * time.Millisecond
	far := make(chan net.Conn, 1)
	cl, err := Dial("stalled", WithConns(1), WithRequestTimeout(timeout),
		WithDialer(func(string, time.Duration) (net.Conn, error) {
			near, peer := net.Pipe() // unbuffered, and nobody reads peer
			far <- peer
			return near, nil
		}))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	defer (<-far).Close()

	start := time.Now()
	_, err = cl.Open("obj", store.Register)
	var ne *NodeError
	if !errors.Is(err, ErrTimeout) || !errors.As(err, &ne) || ne.Addr != "stalled" {
		t.Fatalf("Open over a stalled transport = %v, want a NodeError wrapping ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < timeout/2 || elapsed > 20*timeout {
		t.Fatalf("stalled flush failed after %v, want about %v", elapsed, timeout)
	}
}

// TestLegTimeoutAndSlot: against a node that went silent, a fan-out fetch
// keeps its reader's slot — so a second leg of the same reader does not
// start, it never queues behind the straggler on the caller's time — until
// the leg's own request timer reaps it with ErrTimeout; then the slot is
// free and the pool redials.
func TestLegTimeoutAndSlot(t *testing.T) {
	const timeout = 150 * time.Millisecond
	fab := netsim.NewFabric(5, 0)
	ln, err := fab.Listen("node")
	if err != nil {
		t.Fatal(err)
	}
	serve(t, server.Config{Readers: 4}, ln)
	cl, err := Dial("node", WithConns(1), WithRequestTimeout(timeout), WithDialer(fab.Dialer("cli")))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	obj, err := cl.Open("m", store.MaxRegister)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := obj.ShareWrite(1, 7, 3); err != nil {
		t.Fatalf("ShareWrite: %v", err)
	}

	fab.SetDelay("cli", "node", time.Hour)
	fab.SetDelay("node", "cli", time.Hour)
	out := NewRound()
	defer out.Release()
	start := time.Now()
	if !obj.StartShareRead(0, 1, out) {
		t.Fatal("first leg did not start on a live connection")
	}
	if obj.StartShareRead(0, 2, out) {
		t.Fatal("second leg of the same reader started while the first holds the slot")
	}
	if elapsed := time.Since(start); elapsed > timeout/2 {
		t.Fatalf("starting legs against a silent node took %v", elapsed)
	}
	results, _ := out.Wait(1, nil)
	r := results[0]
	var ne *NodeError
	if len(results) != 1 || r.Tag != 1 || !errors.Is(r.Err, ErrTimeout) || !errors.As(r.Err, &ne) || ne.Addr != "node" {
		t.Fatalf("silent node's leg = %+v, want tag 1 failing with a NodeError wrapping ErrTimeout", r)
	}
	if elapsed := time.Since(start); elapsed < timeout/2 || elapsed > 20*timeout {
		t.Fatalf("leg reaped after %v, want about %v", elapsed, timeout)
	}

	fab.SetDelay("cli", "node", 0)
	fab.SetDelay("node", "cli", 0)
	if v, err := obj.ShareRead(0); err != nil || v != 1<<24|7 {
		t.Fatalf("ShareRead after the node came back = %#x, %v", v, err)
	}
}

// TestLegBusyRetry sheds fan-out legs at a one-slot shard queue: the shed
// ones (CodeBusy) are retried with backoff off the read loop, and every leg
// ends up succeeding. A connection's own burst sheds nothing — the server's
// reader executes each request before it reads the next — so a second
// connection holds the shard (its response parks in a blocking FrameTap,
// which runs under the shard) while the burst arrives: the first leg queues
// behind it, the rest find the queue full.
func TestLegBusyRetry(t *testing.T) {
	ln := listenTCP(t)
	var mu sync.Mutex
	var hold, parked chan struct{} // armed: the next outbound frame parks
	tap := func(outbound bool, _ []byte) {
		mu.Lock()
		h, p := hold, parked
		if outbound {
			hold = nil
		}
		mu.Unlock()
		if outbound && h != nil {
			close(p)
			<-h
		}
	}
	serve(t, server.Config{Readers: 4, ExecShards: 1, ShardQueue: 1, FrameTap: tap}, ln)
	cl, err := Dial(ln.Addr().String(), WithConns(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	obj, err := cl.Open("m", store.MaxRegister)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	holder, err := Dial(ln.Addr().String(), WithConns(1))
	if err != nil {
		t.Fatalf("Dial holder: %v", err)
	}
	defer holder.Close()
	hobj, err := holder.Open("holder", store.Register)
	if err != nil {
		t.Fatalf("Open holder: %v", err)
	}

	slept := 0
	origSleep := busySleep
	busySleep = func(d time.Duration) {
		mu.Lock()
		slept++
		mu.Unlock()
		origSleep(d)
	}
	defer func() { busySleep = origSleep }() // every retrying goroutine has delivered by then

	mu.Lock()
	hold, parked = make(chan struct{}), make(chan struct{})
	h, p := hold, parked
	mu.Unlock()
	held := make(chan error, 1)
	go func() { held <- hobj.Write(1) }()
	<-p // the holder's reader sits in the tap, the shard is its

	const burst = 128
	out := NewRound()
	defer out.Release()
	for i := 0; i < burst; i++ {
		if !obj.StartShareWrite(uint64(i+1), uint64(i), 3, i, out) {
			t.Fatalf("leg %d did not start", i)
		}
	}
	// STATS runs inline on the burst's connection, behind the burst: once
	// it is answered every leg has been routed — one queued, the rest shed.
	pairs, err := cl.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	var sheds uint64
	for _, p := range pairs {
		if p.Name == "shard-sheds" {
			sheds = p.Value
		}
	}
	if sheds < burst-1 {
		t.Fatalf("%d sheds from a %d-leg burst into a held one-slot shard, want >= %d", sheds, burst, burst-1)
	}
	close(h)
	if err := <-held; err != nil {
		t.Fatalf("holder's Write: %v", err)
	}
	results, _ := out.Wait(burst, nil)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("leg %d failed: %v", r.Tag, r.Err)
		}
	}
	if cur, err := obj.ShareWrite(0, 0, 3); err != nil || cur != burst {
		t.Fatalf("resident wid after the burst = %d, %v; want %d", cur, err, burst)
	}
	mu.Lock()
	defer mu.Unlock()
	if uint64(slept) < sheds {
		t.Fatalf("%d sheds but only %d backoff pauses", sheds, slept)
	}
}
