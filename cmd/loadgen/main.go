// Command loadgen drives mixed read/write/audit traffic against the auditable
// object stack and checks, end to end, the paper's two-sided claim: a read is
// audited iff it became effective. It measures what the per-object benchmarks
// cannot see — N named objects under P client goroutines — and -out writes
// each grid cell's metrics as JSON (report.go). Its exit status is the
// assertion: CI trusts it across the wire, a SIGKILL, a dispersal cluster and
// four fault phases. See EXPERIMENTS.md, series E12–E20, for the methodology.
//
// Usage:
//
//	go run ./cmd/loadgen                                        # default grid, text summary
//	go run ./cmd/loadgen -objects 64,1024 -goroutines 1,8 -out /tmp/local.json
//	go run -race ./cmd/loadgen -objects 1024 -goroutines 8      # correctness soak
//	go run ./cmd/loadgen -remote 127.0.0.1:7433 -out /tmp/remote.json
//	go build -o /tmp/auditd ./cmd/auditd
//	go run ./cmd/loadgen -durable -auditd /tmp/auditd -objects 64 -goroutines 8 -conns 1 -out /tmp/e16.json
//	go run ./cmd/loadgen -cluster [-chaos] -auditd /tmp/auditd -cluster-n 5 -cluster-f 1 -objects 32 -goroutines 8 -conns 2
//
// There is one driver (driver.go): each (objects, goroutines) grid cell runs
// one seeded op stream — reads, writes, and audit-report lookups in the
// proportions of -writepct and -auditpct — from P workers that retry a
// failed op until a deadline, log privately what they observed, and are then
// checked by one two-sided verifier: a fresh audit of -verify sampled objects
// must equal, exactly, the (reader, value) pairs the driver observed, with
// extras only where a failed read or a dispersed overlap explains them. A
// cell exits non-zero when the audit is inexact, when any op never completed
// (failed-ops > 0), or when its fault plan did not fire.
//
// What differs between modes is data handed to that driver:
//
//   - A target (target.go) is the system under traffic. The default is an
//     in-process store.Store with a running audit pool (E12; registers, max
//     registers and snapshots; the fresh audit also checks the pool's
//     batched report against it). -remote addr and -durable drive one auditd
//     through the wire client (E13, E14/E16; registers and max registers —
//     snapshots are not remotable). -cluster drives -cluster-n daemons
//     through the dispersing cluster client (E19, E20), whose fresh audit is
//     the k-agreement merge of all n node logs and which has no report
//     lookups (the audit band reads instead).
//   - A fleet (fleet.go) owns the auditd processes a spawning mode runs
//     against: -durable and -cluster exec the binary named by -auditd with
//     per-cell data dirs under -data-dir and -fsync always, and drain them
//     at cell end. Daemon and driver share -seed (it derives the store key);
//     node i of a cluster gets positional -node-id i and its own seed.
//   - A fault plan (plan.go) runs beside the workers. -remote and the local
//     store have none. -durable SIGKILLs the daemon once a quarter of the ops
//     have completed and restarts it from its data dir; -cluster does the
//     same to one node after a degraded stretch on the tight quorum. -chaos
//     reaches the cluster through an in-process netsim fabric and walks four
//     phases — kill+restart, partition+heal, a hung node (hour-long link
//     delay, bounded by the client request timeout), and a Byzantine node
//     restarted with -corrupt-shares, which must be detected (ReadTrace,
//     client quarantine, the node's own STATS confession), never mislabeled,
//     and released after an honest restart. Chaos cells are phase-paced:
//     the plan, not -ops, ends them.
//
// -cpuprofile/-memprofile write driver-side pprof profiles.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"auditreg"
	"auditreg/client"
	"auditreg/cluster"
	"auditreg/internal/netsim"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole command. It returns the exit status instead of exiting,
// so every deferred cleanup — the temporary data dir, the CPU profile — runs
// on every path out, a failed cell's included.
func run(args []string) (code int) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		m    mode       // what a cell runs against and which faults it suffers
		base cellConfig // everything about a cell but its grid coordinates
	)
	objectsFlag := fs.String("objects", "64,1024", "comma-separated object counts (grid axis)")
	goroutinesFlag := fs.String("goroutines", "1,8", "comma-separated client goroutine counts (grid axis)")
	fs.IntVar(&base.ops, "ops", 200000, "total operations per grid cell")
	fs.IntVar(&base.writePct, "writepct", 25, "percent of operations that write")
	fs.IntVar(&base.auditPct, "auditpct", 5, "percent of operations that fetch the pool's audit report")
	fs.IntVar(&base.readers, "readers", 0, "reader principals per object (0: min(goroutines, 64))")
	fs.IntVar(&base.components, "components", 4, "components per snapshot object")
	fs.IntVar(&base.poolWorkers, "poolworkers", 4, "audit pool worker goroutines")
	fs.DurationVar(&base.poolInterval, "poolinterval", 2*time.Millisecond, "audit pool sweep interval")
	fs.IntVar(&base.verify, "verify", 64, "objects per cell to check against a synchronous audit (0: none)")
	fs.Uint64Var(&base.seed, "seed", 1, "base seed for keys, nonces, and traffic")
	out := fs.String("out", "", "write the cells' results as JSON to this file")
	fs.StringVar(&m.remote, "remote", "", "drive a live auditd at this address instead of a local store (E13)")
	fs.IntVar(&m.conns, "conns", 4, "client connection pool size in -remote mode")
	fs.BoolVar(&m.durable, "durable", false, "durability mode (E14/E16): spawn auditd with a data dir, kill -9 it mid-cell, restart, verify audit exactness")
	fs.BoolVar(&m.cluster, "cluster", false, "dispersal-cluster mode (E19): spawn -cluster-n durable auditd nodes, kill -9 one mid-cell, restart it, verify merged audit exactness")
	fs.IntVar(&m.clusterN, "cluster-n", 5, "cluster node count in -cluster mode (needs n >= 2f+2)")
	fs.IntVar(&m.clusterF, "cluster-f", 1, "cluster crash-fault budget in -cluster mode")
	fs.BoolVar(&m.chaos, "chaos", false, "fault-injection mode (E20, with -cluster): cycle crash, partition, hang, and Byzantine faults through a netsim fabric, asserting zero wrong reads, zero lost acked ops, corruptor detection, and bounded latency")
	fs.StringVar(&m.auditdBin, "auditd", "", "path to a prebuilt auditd binary (required with -durable and -cluster)")
	fs.StringVar(&m.dataDir, "data-dir", "", "base directory for -durable data dirs (default: a temp dir)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole grid to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file at exit")
	fs.IntVar(&m.tune.shards, "shards", 0, "auditd execution shards, forwarded in -durable mode (0: daemon default, GOMAXPROCS)")
	fs.IntVar(&m.tune.walStripes, "wal-stripes", 0, "auditd WAL stripe groups, forwarded in -durable mode (0: daemon default, GOMAXPROCS)")
	fs.IntVar(&m.tune.shardQueue, "shard-queue", 0, "auditd per-shard queue depth, forwarded in -durable mode (0: daemon default)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	fail := func(format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", a...)
		return 1
	}
	objectCounts, err := parseInts(*objectsFlag)
	if err != nil {
		return fail("bad -objects: %v", err)
	}
	goroutineCounts, err := parseInts(*goroutinesFlag)
	if err != nil {
		return fail("bad -goroutines: %v", err)
	}
	if base.writePct < 0 || base.auditPct < 0 || base.writePct+base.auditPct > 100 {
		return fail("-writepct + -auditpct must fit in [0, 100]")
	}
	if m.durable || m.cluster {
		if m.auditdBin == "" {
			return fail("spawning modes need -auditd (path to a prebuilt auditd binary)")
		}
		if m.dataDir == "" {
			dir, err := os.MkdirTemp("", "loadgen-durable-*")
			if err != nil {
				return fail("%v", err)
			}
			defer os.RemoveAll(dir)
			m.dataDir = dir
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				code = fail("%v", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				code = fail("memprofile: %v", err)
			}
		}()
	}

	var results []Result
	for _, n := range objectCounts {
		for _, p := range goroutineCounts {
			cfg := base
			cfg.objects, cfg.goroutines = n, p
			res, err := m.cell(cfg)
			if err != nil {
				return fail("objects=%d goroutines=%d: %v", n, p, err)
			}
			results = append(results, res)
			fmt.Printf("%-44s %10.0f ns/op %12.0f ops/s  reads=%.0f writes=%.0f audits=%.0f pool-audits=%.0f pairs=%.0f",
				res.Name, res.Metrics["ns/op"], res.Metrics["ops/s"],
				res.Metrics["reads"], res.Metrics["writes"], res.Metrics["audit-lookups"],
				res.Metrics["pool-audits"], res.Metrics["audited-pairs"])
			if legs, ok := res.Metrics["fetch-legs/read"]; ok { // the cluster cells
				fmt.Printf(" fetch-legs/read=%.2f widened-reads=%.0f", legs, res.Metrics["widened-reads"])
			}
			fmt.Println()
		}
	}

	if *out != "" {
		if err := writeReport(*out, results); err != nil {
			return fail("%v", err)
		}
		fmt.Printf("loadgen: %d configurations -> %s\n", len(results), *out)
	}
	return 0
}

type cellConfig struct {
	name                     string // result name: series, geometry, grid cell
	objects, goroutines, ops int
	writePct, auditPct       int
	readers, components      int
	poolWorkers              int
	poolInterval             time.Duration
	verify                   int
	seed                     uint64
}

// readerCount is the number of reader principals per object in a cell that
// creates its own store or daemons: -readers, defaulting to one per worker
// goroutine up to the model's maximum.
func (cfg cellConfig) readerCount() int {
	if cfg.readers != 0 {
		return cfg.readers
	}
	return min(cfg.goroutines, auditreg.MaxReaders)
}

// mode is the flags that select what a cell runs against and which faults
// it suffers.
type mode struct {
	remote             string
	conns              int
	durable            bool
	cluster, chaos     bool
	clusterN, clusterF int
	auditdBin, dataDir string
	tune               daemonTuning
}

// cell turns the mode into one grid cell's target, fleet and fault plan, and
// runs it. A spawning mode's daemons live exactly as long as the cell: they
// are drained (SIGTERM) once it has verified, and a node that cannot drain
// fails it.
func (m mode) cell(cfg cellConfig) (Result, error) {
	grid := fmt.Sprintf("objects=%d/goroutines=%d", cfg.objects, cfg.goroutines)
	p := plan{opDeadline: opDeadline}
	fl := &fleet{bin: m.auditdBin, readers: cfg.readerCount()}
	defer fl.killAll()
	var t target
	switch {
	case m.cluster:
		n, f := m.clusterN, m.clusterF
		if m.chaos && f < 1 {
			return Result{}, fmt.Errorf("chaos mode needs f >= 1 (got f=%d): every phase spends exactly one fault", f)
		}
		series, tag := "LoadgenCluster", "e19"
		if m.chaos {
			series, tag = "LoadgenChaos", "e20"
		}
		cfg.name = fmt.Sprintf("%s/n=%d/f=%d/%s", series, n, f, grid)
		cfg.auditPct = 0 // no pool report to look up on a cluster: the audit band reads
		// One daemon per node: positional identity, its own WAL directory,
		// and the per-node store key the seeded membership assigns (node
		// i's daemon seed is cfg.seed+i+1, matching SeededMembership).
		for i := 0; i < n; i++ {
			dir := filepath.Join(m.dataDir, fmt.Sprintf("%s-o%d-g%d", tag, cfg.objects, cfg.goroutines), fmt.Sprintf("node%d", i+1))
			if err := fl.add(dir, cfg.seed+uint64(i)+1, daemonTuning{nodeID: uint32(i + 1)}); err != nil {
				return Result{}, err
			}
		}
		ct := &clusterTarget{conns: m.conns, tag: tag}
		t = ct
		addrs := fl.addrs()
		// The crash victim is node id 3: an arbitrary non-edge pick, fixed
		// for reproducibility.
		p.run = killRestart(fl, min(2, n-1), time.Second)
		if m.chaos {
			fab := netsim.NewFabric(cfg.seed, 0)
			var err error
			if addrs, err = fl.bridge(fab); err != nil {
				return Result{}, err
			}
			ct.byzantine = 1 // the node id phase 4 turns Byzantine
			ct.extra = []client.Option{
				client.WithDialer(fab.Dialer("driver")),
				client.WithRequestTimeout(chaosReqTimeout),
			}
			p = plan{paced: true, opDeadline: chaosOpDeadline, run: chaosPlan(fl, fab, addrs, ct)}
		}
		ct.mem = cluster.SeededMembership(addrs, f, cfg.seed)
		if err := ct.mem.Validate(); err != nil {
			return Result{}, err
		}
	case m.durable:
		cfg.name = "LoadgenDurable/" + grid
		if err := fl.add(filepath.Join(m.dataDir, fmt.Sprintf("cell-o%d-g%d", cfg.objects, cfg.goroutines)), cfg.seed, m.tune); err != nil {
			return Result{}, err
		}
		t = &nodeTarget{addr: fl.addrs()[0], conns: m.conns, tag: "e14"}
		p.run = killRestart(fl, 0, 0)
	case m.remote != "":
		cfg.name = "LoadgenRemote/" + grid
		t = &nodeTarget{addr: m.remote, conns: m.conns, tag: "e13"}
	default:
		cfg.name = "Loadgen/" + grid
		t = &localTarget{}
		p.opDeadline = 0 // nothing in-process is transient: the first error fails the cell
	}
	res, err := runCell(cfg, t, p)
	if err != nil {
		return res, err
	}
	return res, fl.drain()
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("counts must be positive, got %d", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
