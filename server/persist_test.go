package server_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"auditreg"
	"auditreg/client"
	"auditreg/persist"
	"auditreg/server"
	"auditreg/store"
	"auditreg/wire"
)

// startPersistentServer boots a server over dir without the shared
// helper's automatic cleanup, so tests control the shutdown/restart cycle.
func startPersistentServer(t *testing.T, key auditreg.Key, dir string) (*server.Server, string, func()) {
	t.Helper()
	srv, err := server.New(server.Config{
		Key:          key,
		Readers:      8,
		PoolInterval: time.Millisecond,
		DataDir:      dir,
		Fsync:        persist.SyncAlways,
	})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Fatalf("Serve: %v", err)
		}
	}
	return srv, ln.Addr().String(), stop
}

// TestShutdownDrainsInFlightCommits is the drain regression check for the
// executor-routed async journal path: a connection that dies mid-pipeline —
// dozens of durable writes routed to shard executors, none of their
// responses ever read — must not wedge Shutdown, leak a completion-stage
// goroutine, or lose a write that was acknowledged on another connection.
func TestShutdownDrainsInFlightCommits(t *testing.T) {
	key := auditreg.KeyFromSeed(77)
	dir := t.TempDir()
	g0 := runtime.NumGoroutine()
	srv, addr, stop := startPersistentServer(t, key, dir)
	_ = srv

	// An acked write on its own object: its durability verdict is settled
	// before the messy connection below even exists.
	cl, err := client.Dial(addr, client.WithKey(key), client.WithConns(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	acked, err := cl.Open("drain/acked", store.Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := acked.Write(0xACED); err != nil {
		t.Fatalf("Write: %v", err)
	}
	cl.Close()

	// A raw connection: open an object, then blast a pipeline of durable
	// writes and slam the socket shut without reading one response. The
	// frames already buffered server-side still execute; their commits are
	// in flight through the completion stage when the conn dies.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial raw: %v", err)
	}
	const pipelined = "drain/pipelined"
	open := wire.AppendFrame(nil, 1, wire.VerbOpen, (&wire.OpenReq{Name: pipelined, Kind: wire.KindRegister}).Append(nil))
	if _, err := nc.Write(open); err != nil {
		t.Fatalf("write open: %v", err)
	}
	sc := wire.NewFrameScanner(nc, 4<<10)
	if f, err := sc.Next(); err != nil || f.Verb != wire.VerbOpen {
		t.Fatalf("open response: verb %v, err %v", f.Verb, err)
	}
	var burst []byte
	const writes = 128
	for i := uint64(0); i < writes; i++ {
		burst = wire.AppendFrame(burst, 2+i, wire.VerbWrite, (&wire.WriteReq{Name: pipelined, Value: 0x1000 + i}).Append(nil))
	}
	if _, err := nc.Write(burst); err != nil {
		t.Fatalf("write burst: %v", err)
	}
	nc.Close()

	// stop() runs Shutdown under a 5s context and fails the test if the
	// drain wedges — the regression this test exists to catch.
	stop()

	// No leaked completion-stage (or executor) goroutines: the count must
	// settle back to the pre-server baseline.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > g0+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > g0+2 {
		t.Errorf("%d goroutines after shutdown, %d before the server started — a stage leaked", n, g0)
	}

	// The acked write survived the drain and the restart; the pipelined
	// object holds either its initial value or one of the attempted writes.
	_, addrB, stopB := startPersistentServer(t, key, dir)
	defer stopB()
	clB, err := client.Dial(addrB, client.WithKey(key), client.WithConns(1))
	if err != nil {
		t.Fatalf("Dial B: %v", err)
	}
	defer clB.Close()
	objA, err := clB.Open("drain/acked", store.Register)
	if err != nil {
		t.Fatalf("reopen acked: %v", err)
	}
	if v, err := objA.Read(0); err != nil || v != 0xACED {
		t.Errorf("acked write lost across shutdown: Read = %#x, %v; want 0xACED", v, err)
	}
	objB, err := clB.Open(pipelined, store.Register)
	if err != nil {
		t.Fatalf("reopen pipelined: %v", err)
	}
	if v, err := objB.Read(0); err != nil || (v != 0 && (v < 0x1000 || v >= 0x1000+writes)) {
		t.Errorf("pipelined object recovered %#x, %v; want 0 or an attempted value", v, err)
	}
}

// failingJournal accepts every record and fails the durability verdict of
// every blocking one — a write's, an effective read's — with cause: a disk
// that took the append and lost the fdatasync.
type failingJournal struct{ cause error }

func (j *failingJournal) Record(store.JournalRecord[uint64]) error { return nil }

func (j *failingJournal) RecordAsync(r store.JournalRecord[uint64]) (store.Verdict, error) {
	if r.Op != store.JournalWrite && r.Op != store.JournalFetch {
		return nil, nil
	}
	return j, nil
}

func (j *failingJournal) Wait() error { return j.cause }

// TestFailedVerdictIsAnErrorFrame: a mutation whose durability verdict fails
// took effect in memory, but it was never durable, so the completion stage
// must answer it with an error frame carrying the cause — never with the
// success response already encoded for it — and count the error.
func TestFailedVerdictIsAnErrorFrame(t *testing.T) {
	key := auditreg.KeyFromSeed(79)
	srv, err := server.New(server.Config{Key: key, Readers: 8, PoolInterval: time.Millisecond})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	cause := errors.New("fdatasync: input/output error")
	srv.Store().SetJournal(&failingJournal{cause: cause})
	serve(t, srv)
	cl, err := client.Dial(addrOf(t, srv), client.WithKey(key), client.WithConns(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	obj, err := cl.Open("verdict/reg", store.Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	errs := func() uint64 {
		pairs, err := cl.Stats()
		if err != nil {
			t.Fatalf("Stats: %v", err)
		}
		for _, p := range pairs {
			if p.Name == "errors" {
				return p.Value
			}
		}
		t.Fatal("STATS has no errors counter")
		return 0
	}
	before := errs()

	if err := obj.Write(7); err == nil || !strings.Contains(err.Error(), cause.Error()) {
		t.Errorf("Write with a failed verdict = %v, want an error carrying %q", err, cause)
	}
	// The write took effect in memory, so reader 0's first read fetches it:
	// an effective read, whose fetch record's verdict fails the same way.
	if v, err := obj.Read(0); err == nil || !strings.Contains(err.Error(), cause.Error()) {
		t.Errorf("effective Read with a failed verdict = %d, %v; want an error carrying %q", v, err, cause)
	}
	if got := errs() - before; got != 2 {
		t.Errorf("errors counter rose by %d, want 2", got)
	}
}

// TestServerRecoversFromDataDir drives remote traffic into a daemon with a
// data dir, restarts it, and checks the paper's guarantee across the
// restart: a fresh remote audit reports exactly the pre-restart pairs, the
// values survive, and the restarted pool still publishes reports for the
// objects it covered.
func TestServerRecoversFromDataDir(t *testing.T) {
	key := auditreg.KeyFromSeed(1234)
	dir := t.TempDir()

	srvA, addrA, stopA := startPersistentServer(t, key, dir)
	clA, err := client.Dial(addrA, client.WithKey(key), client.WithConns(2))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	names := []string{"durable/reg", "durable/max"}
	kinds := []store.Kind{store.Register, store.MaxRegister}
	want := make(map[string]store.ObjectAudit[uint64])
	for i, name := range names {
		obj, err := clA.Open(name, kinds[i])
		if err != nil {
			t.Fatalf("Open(%s): %v", name, err)
		}
		for k := 1; k <= 9; k++ {
			if err := obj.Write(0x1000*uint64(i+1) + uint64(k)); err != nil {
				t.Fatalf("Write: %v", err)
			}
			for j := 0; j < 3; j++ {
				if _, err := obj.Read(j); err != nil {
					t.Fatalf("Read: %v", err)
				}
			}
		}
		aud, err := obj.Auditor()
		if err != nil {
			t.Fatalf("Auditor: %v", err)
		}
		rep, err := aud.Audit()
		if err != nil {
			t.Fatalf("Audit: %v", err)
		}
		want[name] = rep
	}
	// A snapshot mid-life must not disturb anything.
	if _, err := srvA.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	clA.Close()
	stopA()

	srvB, addrB, stopB := startPersistentServer(t, key, dir)
	defer stopB()
	if rec := srvB.Recovery(); rec == nil || rec.Replay.Objects != len(names) {
		t.Fatalf("recovery = %+v, want %d objects", srvB.Recovery(), len(names))
	}
	clB, err := client.Dial(addrB, client.WithKey(key), client.WithConns(2))
	if err != nil {
		t.Fatalf("Dial B: %v", err)
	}
	defer clB.Close()
	for i, name := range names {
		obj, err := clB.Open(name, kinds[i])
		if err != nil {
			t.Fatalf("reopen %s: %v", name, err)
		}
		aud, err := obj.Auditor()
		if err != nil {
			t.Fatalf("Auditor: %v", err)
		}
		rep, err := aud.Audit()
		if err != nil {
			t.Fatalf("post-recovery Audit: %v", err)
		}
		if !rep.Same(want[name]) {
			t.Errorf("post-recovery audit of %s: %d pairs, want %d\n got %v\nwant %v",
				name, rep.Len(), want[name].Len(), rep.Report, want[name].Report)
		}
		// The pre-crash pool reports were re-published during boot.
		if _, ok := srvB.Pool().Report(name); !ok {
			t.Errorf("pool has no recovered report for %s", name)
		}
		// Values survived: the last written value (register) / max (max
		// register) is 0x1000*(i+1)+9 either way.
		if v, err := obj.Read(7); err != nil || v != 0x1000*uint64(i+1)+9 {
			t.Errorf("post-recovery Read(%s) = %#x, %v", name, v, err)
		}
		// And the restarted daemon keeps accepting durable traffic.
		if err := obj.Write(0xF00D); err != nil {
			t.Errorf("post-recovery Write(%s): %v", name, err)
		}
	}

	// The daemon reports its WAL in STATS.
	pairs, err := clB.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	stats := make(map[string]uint64, len(pairs))
	for _, p := range pairs {
		stats[p.Name] = p.Value
	}
	if stats["wal-records"] == 0 {
		t.Errorf("stats lack wal-records: %v", stats)
	}
}

// TestRecoveryCountsTornFramesNotPadding boots a daemon over the image a
// kill -9 leaves — a copy of a live data directory, whose active segments
// end in the zeros they were preallocated with — and checks what the boot
// line reports: every acknowledged object back, and not one torn byte, the
// padding being space no write reached and not a write cut short.
func TestRecoveryCountsTornFramesNotPadding(t *testing.T) {
	key := auditreg.KeyFromSeed(4321)
	live, image := t.TempDir(), t.TempDir()
	_, addr, stop := startPersistentServer(t, key, live)
	cl, err := client.Dial(addr, client.WithKey(key), client.WithConns(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	names := []string{"crashed/a", "crashed/b", "crashed/c"}
	for i, name := range names {
		obj, err := cl.Open(name, store.Register)
		if err != nil {
			t.Fatalf("Open(%s): %v", name, err)
		}
		if err := obj.Write(uint64(i) + 1); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	cl.Close()
	var padding int64
	entries, err := os.ReadDir(live)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(live, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(image, e.Name()), b, 0o600); err != nil {
			t.Fatal(err)
		}
		padding += int64(len(b) - len(bytes.TrimRight(b, "\x00")))
	}
	stop()
	if padding < 1<<10 {
		t.Logf("only %d bytes of padding: this filesystem does not preallocate", padding)
	}

	srv, addr, stop := startPersistentServer(t, key, image)
	defer stop()
	cl, err = client.Dial(addr, client.WithKey(key), client.WithConns(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	for i, name := range names {
		obj, err := cl.Open(name, store.Register)
		if err != nil {
			t.Fatalf("reopen %s: %v", name, err)
		}
		if v, err := obj.Read(0); err != nil || v != uint64(i)+1 {
			t.Fatalf("recovered Read(%s) = %d, %v; want %d", name, v, err, i+1)
		}
	}
	rec := srv.Recovery()
	if rec == nil || rec.Replay.Objects != len(names) || rec.Replay.Writes != len(names) {
		t.Fatalf("recovery = %+v, want %d objects with one write each", rec, len(names))
	}
	if rec.TornBytes != 0 {
		t.Fatalf("%d torn bytes reported over %d bytes of padding and no torn write", rec.TornBytes, padding)
	}
}
