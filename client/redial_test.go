package client_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"auditreg"
	"auditreg/client"
	"auditreg/server"
	"auditreg/store"
)

// TestConnLostFailsInFlightFast is the regression test for the pool's
// dead-connection handling: a request in flight on a connection the server
// kills must fail promptly with an error wrapping client.ErrConnLost — not
// hang, and not surface an anonymous error the caller cannot classify.
func TestConnLostFailsInFlightFast(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A server that accepts, reads a little, and slams the connection shut
	// without ever answering.
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				var buf [64]byte
				nc.Read(buf[:])
				nc.Close()
			}(nc)
		}
	}()

	cl, err := client.Dial(ln.Addr().String(), client.WithConns(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	start := time.Now()
	_, err = cl.Open("obj", store.Register)
	if err == nil {
		t.Fatal("Open against a dead-dropping server succeeded")
	}
	if !errors.Is(err, client.ErrConnLost) {
		t.Fatalf("in-flight failure = %v, want errors.Is(err, ErrConnLost)", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("in-flight request took %v to fail", elapsed)
	}
}

// TestRedialAfterServerRestart restarts the server on the same address and
// checks that the same Client (1) fails the cut-over requests with the typed
// error, (2) transparently redials, and (3) drops its per-reader silent-read
// caches when it sees the new boot epoch — the deterministic stale-read trap
// is a new server whose register reaches exactly the sequence number the
// client cached from the old one, with a different value.
func TestRedialAfterServerRestart(t *testing.T) {
	key := auditreg.KeyFromSeed(77)
	startAt := func(addr string) (*server.Server, string, chan error) {
		t.Helper()
		srv, err := server.New(server.Config{Key: key, Readers: 4, PoolInterval: time.Millisecond})
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("listen %s: %v", addr, err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		return srv, ln.Addr().String(), done
	}
	shutdown := func(srv *server.Server, done chan error) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Fatalf("Serve: %v", err)
		}
	}

	srvA, addr, doneA := startAt("127.0.0.1:0")
	cl, err := client.Dial(addr, client.WithConns(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	obj, err := cl.Open("obj", store.Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := obj.Write(0xAAAA); err != nil {
		t.Fatalf("Write: %v", err)
	}
	// Cache (prev_sn = 1, prev_val = 0xAAAA) client-side.
	if v, err := obj.Read(0); err != nil || v != 0xAAAA {
		t.Fatalf("Read on server A = %#x, %v", v, err)
	}
	shutdown(srvA, doneA)

	// The client notices the loss with the typed error on its next use.
	deadline := time.Now().Add(5 * time.Second)
	sawLost := false
	for time.Now().Before(deadline) {
		if err := obj.Write(1); err != nil {
			if !errors.Is(err, client.ErrConnLost) {
				t.Fatalf("cut-over failure = %v, want ErrConnLost", err)
			}
			sawLost = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawLost {
		t.Fatal("writes kept succeeding after server shutdown")
	}

	// Restart on the same address with different state: one write brings
	// the fresh register to seq 1, the exact seq the client cached.
	srvB, _, doneB := startAt(addr)
	defer shutdown(srvB, doneB)
	if err := srvB.Store().Write("obj", 0xBBBB); err != nil {
		// The object does not exist on B yet; create it server-side.
		if _, err := srvB.Store().Open("obj", store.Register); err != nil {
			t.Fatalf("server-side Open: %v", err)
		}
		if err := srvB.Store().Write("obj", 0xBBBB); err != nil {
			t.Fatalf("server-side Write: %v", err)
		}
	}

	// The same client object must redial and return B's value — a client
	// without epoch tracking would match seq 1 against its cache and hand
	// back 0xAAAA.
	var got uint64
	for time.Now().Before(deadline) {
		got, err = obj.Read(0)
		if err == nil {
			break
		}
		if !errors.Is(err, client.ErrConnLost) {
			t.Fatalf("post-restart Read failed oddly: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("post-restart Read never succeeded: %v", err)
	}
	if got != 0xBBBB {
		t.Fatalf("post-restart Read = %#x, want %#x (stale cache served across restart)", got, 0xBBBB)
	}
}

// TestLegDropsCacheAcrossRestart is the stale-read trap of
// TestRedialAfterServerRestart sprung on a fan-out leg: the reader's slot was
// filled by a leg against server A, server B reaches the very sequence number
// the slot caches with a different share, and the first thing to touch the
// slot on the new connection is another leg. The epoch rule lives in the code
// both forms share, so the leg must drop the cache and return B's share.
func TestLegDropsCacheAcrossRestart(t *testing.T) {
	key := auditreg.KeyFromSeed(78)
	boot := func(addr string) (*server.Server, string, func()) {
		t.Helper()
		srv, err := server.New(server.Config{Key: key, Readers: 4, PoolInterval: time.Millisecond})
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("listen %s: %v", addr, err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		return srv, ln.Addr().String(), func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
			<-done
		}
	}
	const shareLen = 3
	packedA, packedB := uint64(1)<<(8*shareLen)|0xAAAA, uint64(1)<<(8*shareLen)|0xBBBB

	_, addr, stopA := boot("127.0.0.1:0")
	cl, err := client.Dial(addr, client.WithConns(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	obj, err := cl.Open("obj", store.MaxRegister)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := obj.ShareWrite(1, 0xAAAA, shareLen); err != nil {
		t.Fatalf("ShareWrite: %v", err)
	}
	out := client.NewRound()
	defer out.Release()
	if !obj.StartShareRead(0, 0, out) {
		t.Fatal("leg did not start against server A")
	}
	if r, _ := out.Wait(1, nil); r[0].Err != nil || r[0].Value != packedA { // slot: (seq 1, packedA)
		t.Fatalf("leg against server A = %+v, want %#x", r[0], packedA)
	}
	stopA()

	srvB, _, stopB := boot(addr)
	defer stopB()
	if _, err := srvB.Store().Open("obj", store.MaxRegister); err != nil {
		t.Fatalf("server-side Open: %v", err)
	}
	if err := srvB.Store().Write("obj", packedB); err != nil { // B's seq 1
		t.Fatalf("server-side Write: %v", err)
	}
	// A wid-0 probe redials and reopens without touching reader 0's slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err = obj.ShareWrite(0, 0, shareLen); err == nil {
			break
		}
		if !errors.Is(err, client.ErrConnLost) || time.Now().After(deadline) {
			t.Fatalf("probe after the restart: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !obj.StartShareRead(0, 0, out) {
		t.Fatal("leg did not start on the reopened connection")
	}
	if r, _ := out.Wait(2, nil); r[0].Err != nil || r[0].Value != packedB {
		t.Fatalf("leg against server B = %+v, want %#x (stale cache served across restart)", r[0], packedB)
	}
}
