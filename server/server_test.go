package server_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"auditreg"
	"auditreg/client"
	"auditreg/server"
	"auditreg/store"
	"auditreg/wire"
)

// startServer boots a server on a free port and registers its shutdown.
func startServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	if cfg.PoolInterval == 0 {
		cfg.PoolInterval = time.Millisecond
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	serve(t, srv)
	return srv
}

// serve serves srv on a free port and registers its shutdown.
func serve(t *testing.T, srv *server.Server) {
	t.Helper()
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
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
}

func addrOf(t *testing.T, srv *server.Server) string {
	t.Helper()
	for i := 0; i < 100; i++ {
		if a := srv.Addr(); a != nil {
			return a.String()
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("server never listened")
	return ""
}

func TestEndToEnd(t *testing.T) {
	key := auditreg.KeyFromSeed(11)
	srv := startServer(t, server.Config{Key: key, Readers: 8})
	cl, err := client.Dial(addrOf(t, srv), client.WithKey(key), client.WithConns(3))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	reg, err := cl.Open("acct/1", store.Register)
	if err != nil {
		t.Fatalf("Open register: %v", err)
	}
	if reg.Readers() != 8 || reg.Kind() != store.Register {
		t.Fatalf("register meta = (%d, %v)", reg.Readers(), reg.Kind())
	}
	maxr, err := cl.Open("score/1", store.MaxRegister)
	if err != nil {
		t.Fatalf("Open maxregister: %v", err)
	}

	// Register semantics across writers and readers.
	for i := 1; i <= 5; i++ {
		if err := reg.Write(uint64(i * 10)); err != nil {
			t.Fatalf("Write: %v", err)
		}
		for j := 0; j < 3; j++ {
			v, err := reg.Read(j)
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if v != uint64(i*10) {
				t.Fatalf("reader %d read %d, want %d", j, v, i*10)
			}
			// Re-reads with no new write are silent and equal.
			v2, err := reg.Read(j)
			if err != nil || v2 != v {
				t.Fatalf("silent re-read = (%d, %v), want (%d, nil)", v2, err, v)
			}
		}
	}

	// MaxRegister semantics: the maximum wins.
	w := maxr.Writer()
	for _, v := range []uint64{5, 90, 17} {
		if err := w.Write(v); err != nil {
			t.Fatalf("WriteMax: %v", err)
		}
	}
	rd, err := maxr.Reader(2)
	if err != nil {
		t.Fatalf("Reader: %v", err)
	}
	if v, err := rd.Read(); err != nil || v != 90 {
		t.Fatalf("max read = (%d, %v), want (90, nil)", v, err)
	}

	// Remote fresh audits equal the server-side ground truth.
	for _, name := range []string{"acct/1", "score/1"} {
		obj := reg
		if name == "score/1" {
			obj = maxr
		}
		aud, err := obj.Auditor()
		if err != nil {
			t.Fatalf("Auditor: %v", err)
		}
		remote, err := aud.Audit()
		if err != nil {
			t.Fatalf("remote Audit: %v", err)
		}
		ground, err := srv.Store().Audit(name)
		if err != nil {
			t.Fatalf("local Audit: %v", err)
		}
		if !remote.Same(ground) {
			t.Fatalf("%s: remote audit %v != ground truth %v", name, remote.Report, ground.Report)
		}
		// The pool path is a subset of (usually equal to) ground truth.
		latest, err := aud.Latest()
		if err != nil {
			t.Fatalf("Latest: %v", err)
		}
		if !latest.Subset(ground) {
			t.Fatalf("%s: pool report %v not a subset of ground truth %v", name, latest.Report, ground.Report)
		}
	}

	// Stats counters reflect the traffic.
	pairs, err := cl.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	stats := map[string]uint64{}
	for _, p := range pairs {
		stats[p.Name] = p.Value
	}
	if stats["objects"] != 2 {
		t.Fatalf("objects = %d, want 2", stats["objects"])
	}
	if stats["writes"] != 8 {
		t.Fatalf("writes = %d, want 8", stats["writes"])
	}
	if stats["reads-silent"] == 0 || stats["reads-fetched"] == 0 {
		t.Fatalf("read counters = fetched %d silent %d, want both > 0", stats["reads-fetched"], stats["reads-silent"])
	}
	if stats["errors"] != 0 {
		t.Fatalf("errors = %d, want 0", stats["errors"])
	}
}

func TestConcurrentClients(t *testing.T) {
	key := auditreg.KeyFromSeed(12)
	srv := startServer(t, server.Config{Key: key, Readers: 16})
	addr := addrOf(t, srv)
	cl, err := client.Dial(addr, client.WithKey(key), client.WithConns(4))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	const objects = 8
	objs := make([]*client.Object, objects)
	for i := range objs {
		kind := store.Register
		if i%2 == 1 {
			kind = store.MaxRegister
		}
		objs[i], err = cl.Open(fmt.Sprintf("obj-%d", i), kind)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				obj := objs[(g+i)%objects]
				if err := obj.Write(uint64(g*1000 + i)); err != nil {
					t.Errorf("Write: %v", err)
					return
				}
				if _, err := obj.Read(g % 16); err != nil {
					t.Errorf("Read: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Every object's remote audit matches the server-side ground truth.
	for i, obj := range objs {
		aud, err := obj.Auditor()
		if err != nil {
			t.Fatalf("Auditor: %v", err)
		}
		remote, err := aud.Audit()
		if err != nil {
			t.Fatalf("Audit: %v", err)
		}
		ground, err := srv.Store().Audit(fmt.Sprintf("obj-%d", i))
		if err != nil {
			t.Fatalf("local Audit: %v", err)
		}
		if !remote.Same(ground) {
			t.Fatalf("obj-%d: remote %v != ground %v", i, remote.Report, ground.Report)
		}
	}
}

func TestRemoteErrors(t *testing.T) {
	key := auditreg.KeyFromSeed(13)
	srv := startServer(t, server.Config{Key: key})
	addr := addrOf(t, srv)
	cl, err := client.Dial(addr, client.WithConns(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	// Writing an unopened name maps back to store.ErrNotFound.
	obj, err := cl.Open("exists", store.Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	_ = obj
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	send := func(id uint64, verb wire.Verb, body []byte) wire.Frame {
		t.Helper()
		if _, err := nc.Write(wire.AppendFrame(nil, id, verb, body)); err != nil {
			t.Fatalf("write: %v", err)
		}
		f, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if f.ID != id {
			t.Fatalf("response id %d, want %d", f.ID, id)
		}
		return f
	}
	wantErr := func(f wire.Frame, code wire.ErrCode) wire.ErrResp {
		t.Helper()
		if f.Verb != wire.VerbErr {
			t.Fatalf("verb = %v, want ERR", f.Verb)
		}
		var e wire.ErrResp
		if err := e.Decode(f.Body); err != nil {
			t.Fatalf("decode err resp: %v", err)
		}
		if e.Code != code {
			t.Fatalf("code = %d (%s), want %d", e.Code, e.Msg, code)
		}
		return e
	}

	wantErr(send(1, wire.VerbWrite, (&wire.WriteReq{Name: "missing", Value: 1}).Append(nil)), wire.CodeNotFound)
	wantErr(send(2, wire.VerbOpen, (&wire.OpenReq{Name: "exists", Kind: wire.KindMaxRegister}).Append(nil)), wire.CodeKindMismatch)
	wantErr(send(3, wire.VerbOpen, (&wire.OpenReq{Name: "snap", Kind: 3}).Append(nil)), wire.CodeUnsupported)
	wantErr(send(4, wire.VerbReadFetch, (&wire.ReadFetchReq{Name: "exists", Reader: 200}).Append(nil)), wire.CodeBadRequest)
	wantErr(send(5, wire.Verb(99), nil), wire.CodeBadRequest)
	// Verb 4 was READ-ANNOUNCE. It is reserved, not recycled: an old client's
	// announce — its body had READ-FETCH's layout; this one is well formed and
	// names a real object — is refused like any unknown verb.
	wantErr(send(8, wire.Verb(4), (&wire.ReadFetchReq{Name: "exists", Reader: 0, PrevSeq: 1}).Append(nil)), wire.CodeBadRequest)
	wantErr(send(6, wire.VerbOpen, []byte{0xff}), wire.CodeBadRequest)

	// The connection survives all of the above: a normal request still
	// works, and the client-side sentinel mapping holds.
	f := send(7, wire.VerbStats, nil)
	if f.Verb != wire.VerbStats {
		t.Fatalf("stats verb = %v", f.Verb)
	}
	if err := obj.Write(42); err != nil {
		t.Fatalf("Write after errors: %v", err)
	}
	_, err = cl.Open("exists", store.MaxRegister)
	if !errors.Is(err, store.ErrKindMismatch) {
		t.Fatalf("client kind mismatch err = %v, want store.ErrKindMismatch", err)
	}
}

func TestGracefulShutdown(t *testing.T) {
	key := auditreg.KeyFromSeed(14)
	srv, err := server.New(server.Config{Key: key, PoolInterval: time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	cl, err := client.Dial(ln.Addr().String(), client.WithConns(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	obj, err := cl.Open("obj", store.Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := obj.Write(uint64(i)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v, want nil after shutdown", err)
	}
	// The pool's cursors survive shutdown: a post-shutdown flush works and
	// ground truth is intact.
	if err := srv.Pool().Flush(); err != nil {
		t.Fatalf("post-shutdown Flush: %v", err)
	}
	aud, err := srv.Store().Audit("obj")
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	_ = aud
	// New connections are refused after shutdown.
	if _, err := client.Dial(ln.Addr().String(), client.WithConns(1)); err == nil {
		t.Fatal("Dial succeeded after shutdown")
	}
}
