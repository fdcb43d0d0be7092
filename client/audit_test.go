package client_test

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"auditreg"
	"auditreg/client"
	"auditreg/persist"
	"auditreg/server"
	"auditreg/store"
	"auditreg/wire"
)

// bootAt serves cfg on addr ("127.0.0.1:0" picks one) and returns the server,
// its address and a stop function that waits for it to be gone.
func bootAt(t *testing.T, addr string, cfg server.Config) (*server.Server, string, func()) {
	t.Helper()
	srv, err := server.New(cfg)
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
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
}

// TestTailingAuditorEqualsFresh is the client's cursor held to its one
// claim: at every point of a seeded random history — writes, reads, audits,
// pool lookups, over a register and a max register — the handle that has
// been tailing the object all along reports the same set as a handle created
// that instant, and both the set the server's store audits locally. The
// history crosses a durable restart (recovery renumbers the sequence, the
// pairs survive: the cursor must not) and then a redial to a different,
// empty process on the same address (nothing survives: neither may the set).
func TestTailingAuditorEqualsFresh(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	key := auditreg.KeyFromSeed(41)
	durable := server.Config{Key: key, Readers: 4, PoolInterval: time.Millisecond, DataDir: t.TempDir(), Fsync: persist.SyncNever}
	srv, addr, stop := bootAt(t, "127.0.0.1:0", durable)
	defer func() { stop() }()

	cl, err := client.Dial(addr, client.WithKey(key), client.WithConns(2))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	names := []string{"tail/reg", "tail/max"}
	objs := make([]*client.Object, len(names))
	tails := make([]*client.Auditor, len(names))
	for i, kind := range []store.Kind{store.Register, store.MaxRegister} {
		if objs[i], err = cl.Open(names[i], kind); err != nil {
			t.Fatalf("seed %d: Open: %v", seed, err)
		}
		if tails[i], err = objs[i].Auditor(); err != nil {
			t.Fatalf("seed %d: Auditor: %v", seed, err)
		}
	}
	// retry rides out the requests a restart costs: the pool redials on use.
	retry := func(what string, op func() error) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			err := op()
			if err == nil {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: %s: %v", seed, what, err)
			}
		}
	}
	check := func(step int) {
		t.Helper()
		for i, name := range names {
			var tail, fresh store.ObjectAudit[uint64]
			retry("tail audit", func() (err error) { tail, err = tails[i].Audit(); return })
			retry("fresh audit", func() error {
				aud, err := objs[i].Auditor()
				if err != nil {
					return err
				}
				fresh, err = aud.Audit()
				return err
			})
			ground, err := srv.Store().Audit(name)
			if err != nil {
				t.Fatalf("seed %d step %d: local audit: %v", seed, step, err)
			}
			if !tail.Same(fresh) || !tail.Same(ground) {
				t.Fatalf("seed %d step %d %s:\n tail  %v\n fresh %v\n store %v", seed, step, name, tail.Report, fresh.Report, ground.Report)
			}
		}
	}
	run := func(from, to int) {
		for step := from; step < to; step++ {
			i := rng.Intn(len(objs))
			switch r := rng.Intn(10); {
			case r < 3:
				retry("write", func() error { return objs[i].Write(uint64(1 + rng.Intn(6))) }) // few values: rewrites of one value at new sequence numbers
			case r < 7:
				retry("read", func() error { _, err := objs[i].Read(rng.Intn(4)); return err })
			case r < 8:
				retry("latest", func() error {
					latest, err := tails[i].Latest()
					if ground, gerr := srv.Store().Audit(names[i]); err == nil && gerr == nil && !latest.Subset(ground) {
						t.Fatalf("seed %d step %d: Latest %v is not a subset of %v", seed, step, latest.Report, ground.Report)
					}
					return err
				})
			default:
				check(step)
			}
		}
		check(to)
	}

	run(0, 150)
	stop()
	srv, _, stop = bootAt(t, addr, durable) // same data dir: the history comes back renumbered
	run(150, 300)
	stop()
	srv, _, stop = bootAt(t, addr, server.Config{Key: key, Readers: 4, PoolInterval: time.Millisecond}) // another process: empty
	run(300, 450)
}

// TestPagedAuditBeyondMaxAuditRows audits an object whose history outgrew
// one AUDIT frame — more than wire.MaxAuditRows values, every one of them
// read. The response is paged, not refused, and the audit equals the store's.
func TestPagedAuditBeyondMaxAuditRows(t *testing.T) {
	const writes = wire.MaxAuditRows + 500
	key := auditreg.KeyFromSeed(42)
	srv, addr := startServer(t, server.Config{Key: key, Readers: 2, PoolInterval: time.Hour})
	cl, err := client.Dial(addr, client.WithKey(key), client.WithConns(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	const name = "long/history"
	obj, err := cl.Open(name, store.Register, client.WithObjectCapacity(writes+2))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	local, ok := srv.Store().Lookup(name)
	if !ok {
		t.Fatal("opened object is not in the store")
	}
	for v := uint64(1); v <= writes; v++ { // in process: the wire is not what this test times
		if err := local.Write(v); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if _, err := local.Read(int(v % 2)); err != nil {
			t.Fatalf("Read: %v", err)
		}
	}
	aud, err := obj.Auditor()
	if err != nil {
		t.Fatalf("Auditor: %v", err)
	}
	for round := 0; round < 2; round++ { // the second is the tail: one row, same set
		remote, err := aud.Audit()
		if err != nil {
			t.Fatalf("round %d: Audit: %v", round, err)
		}
		ground, err := srv.Store().Audit(name)
		if err != nil {
			t.Fatalf("local Audit: %v", err)
		}
		if remote.Len() != writes || !remote.Same(ground) {
			t.Fatalf("round %d: remote audit has %d pairs, the store's %d, want %d and equal", round, remote.Len(), ground.Len(), writes)
		}
	}
}
