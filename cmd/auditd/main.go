// Command auditd runs the audit store as a network service: a TCP daemon
// (package auditreg/server) hosting one sharded store.Store behind the
// auditreg/wire protocol, with a shared audit pool sweeping it in the
// background. Clients — package auditreg/client, or cmd/loadgen in -remote
// mode — speak the OPEN/WRITE/READ-FETCH/AUDIT/STATS verbs;
// reader sets cross the wire only in masked form (see DESIGN.md, "Network
// layer"). Requests are executed shard-per-core: -shards dispatch lanes
// routed by object-name hash, each a single goroutine owning its slice of
// the store, with bounded queues that shed (CodeBusy) at the high
// watermark; -wal-stripes gives the WAL the matching number of
// independently committing stripe groups.
//
// With -data-dir the daemon is durable (package auditreg/persist): every
// mutation lands in a write-ahead log whose records are encrypted under a
// key derived from the store key — held only in memory, never on disk — and
// a restart recovers the store so a fresh audit reports exactly the
// effective reads acknowledged before the crash. SIGHUP compacts the log
// into a snapshot; -fsync picks the durability/latency trade.
//
// Usage:
//
//	go run ./cmd/auditd                          # listen on :7433, memory only
//	go run ./cmd/auditd -addr 127.0.0.1:0 -seed 1 -readers 64
//	go run ./cmd/auditd -data-dir /var/lib/auditd -fsync always
//
// The daemon prints "auditd: listening on ADDR" once it accepts connections
// (scripts wait for that line) and drains gracefully on SIGINT/SIGTERM.
// -metrics-addr adds an HTTP sidecar serving aggregate-only telemetry:
// Prometheus text exposition on /metrics (per-stage pipeline latency
// histograms plus the STATS counter set) and the net/http/pprof suite under
// /debug/pprof/ — see DESIGN.md, "Observability", for the leak contract the
// endpoint is held to.
//
// The store key is derived deterministically from -seed so benchmark drivers
// and auditor clients can share it by sharing the seed; a production
// deployment would provision a random key out of band instead and run the
// listener inside an authenticated encrypted channel.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"auditreg"
	"auditreg/persist"
	"auditreg/server"
)

func main() {
	addr := flag.String("addr", ":7433", "TCP listen address")
	seed := flag.Uint64("seed", 1, "store key seed (share with auditor clients)")
	readers := flag.Int("readers", 0, "reader principals per object (0: store default)")
	shards := flag.Int("shards", 0, "execution shards: queues requests are routed to by object-name hash, each drained by one connection at a time (0: GOMAXPROCS)")
	shardQueue := flag.Int("shard-queue", 0, "per-shard queue depth; the admission-control high watermark (0: server default)")
	capacity := flag.Int("capacity", 0, "default audit-history capacity per object, in writes rounded up to a multiple of 1024; the write past it is refused and reads and audits carry on (0: store default)")
	poolWorkers := flag.Int("poolworkers", 0, "audit pool worker goroutines (0: pool default)")
	poolInterval := flag.Duration("poolinterval", 0, "audit pool sweep interval (0: pool default)")
	drainTimeout := flag.Duration("draintimeout", 10*time.Second, "graceful shutdown budget")
	dataDir := flag.String("data-dir", "", "durable data directory (empty: memory only)")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always, interval, never")
	fsyncInterval := flag.Duration("fsync-interval", 0, "fsync cadence under -fsync interval; under always, the longest an announce or audit record waits for a sync (0: persist default)")
	segmentBytes := flag.Int64("segment-bytes", 0, "WAL segment rotation size (0: persist default)")
	walStripes := flag.Int("wal-stripes", 0, "WAL stripe groups, each with its own segment files and commit lock (0: GOMAXPROCS; a non-empty -data-dir pins its own count)")
	metricsAddr := flag.String("metrics-addr", "", "HTTP listen address for /metrics (Prometheus text) and /debug/pprof/ (empty: disabled)")
	nodeID := flag.Uint("node-id", 0, "cluster node identity asserted by dispersal clients at OPEN (0: standalone, assertions refused)")
	corruptShares := flag.Bool("corrupt-shares", false, "BYZANTINE TEST HOOK: flip one bit of every served share on the wire (chaos-lab positive control; never in production)")
	flag.Parse()

	policy, ok := persist.ParsePolicy(*fsync)
	if !ok {
		fatalf("bad -fsync %q: want always, interval, or never", *fsync)
	}
	srv, err := server.New(server.Config{
		Key:           auditreg.KeyFromSeed(*seed),
		Readers:       *readers,
		ExecShards:    *shards,
		ShardQueue:    *shardQueue,
		Capacity:      *capacity,
		PoolWorkers:   *poolWorkers,
		PoolInterval:  *poolInterval,
		DataDir:       *dataDir,
		Fsync:         policy,
		FsyncInterval: *fsyncInterval,
		SegmentBytes:  *segmentBytes,
		WALStripes:    *walStripes,
		NodeID:        uint32(*nodeID),
		CorruptShares: *corruptShares,
	})
	if err != nil {
		fatalf("%v", err)
	}
	if rec := srv.Recovery(); rec != nil {
		fmt.Printf("auditd: recovered %s: %d objects, %d writes and %d reads re-executed after compaction (%d writes synthesized), %d records",
			*dataDir, rec.Replay.Objects, rec.Replay.Writes, rec.Replay.Fetches, rec.Replay.Synthesized, rec.Records)
		if rec.SnapshotCut > 0 {
			fmt.Printf(", snapshot cut %d", rec.SnapshotCut)
		}
		if rec.TornBytes > 0 {
			fmt.Printf(", %d torn bytes discarded", rec.TornBytes)
		}
		fmt.Println()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("auditd: listening on %s\n", ln.Addr())
	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatalf("metrics listen: %v", err)
		}
		// Best-effort observability sidecar: it serves aggregate-only
		// telemetry (see DESIGN.md "Observability") and dies with the
		// process; it does not partake in the drain.
		go func() {
			if err := (&http.Server{Handler: srv.MetricsMux()}).Serve(mln); err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "auditd: metrics: %v\n", err)
			}
		}()
		fmt.Printf("auditd: metrics on %s\n", mln.Addr())
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	for {
		select {
		case err := <-done:
			if err != nil {
				fatalf("serve: %v", err)
			}
			return
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				if *dataDir == "" {
					fmt.Println("auditd: SIGHUP ignored (no data dir)")
					continue
				}
				cut, err := srv.Snapshot()
				if err != nil {
					fmt.Fprintf(os.Stderr, "auditd: snapshot: %v\n", err)
					continue
				}
				fmt.Printf("auditd: snapshot taken at cut %d\n", cut)
				continue
			}
			fmt.Printf("auditd: %v, draining\n", sig)
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			err := srv.Shutdown(ctx)
			cancel()
			if err != nil {
				fatalf("shutdown: %v", err)
			}
			if err := <-done; err != nil {
				fatalf("serve: %v", err)
			}
			fmt.Println("auditd: drained")
			return
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "auditd: "+format+"\n", args...)
	os.Exit(1)
}
