package main

import (
	"fmt"

	"auditreg/store"
)

// opKind is what one generated operation does.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opReport // store-local only: AuditPool.Report lookup
)

// op is one generated operation. The program under test only ever sees ops.
type op struct {
	kind opKind
	obj  int
	comp int    // snapshot component a write updates
	val  uint64 // value a write installs
}

// rungKind selects which part of the stack a workload drives.
type rungKind uint8

const (
	rungLocal   rungKind = iota // bare store.Store in process
	rungNode                    // one server over loopback TCP
	rungCluster                 // five servers behind cluster.Client
)

// comps is the component count of snapshot objects.
const comps = store.DefaultComponents

// historyCap is the audit-history capacity every object is created with.
const historyCap = store.DefaultCapacity

// spec is one rung of the ladder. The mixes and sizes are the benchmark's
// definition; changing one changes what every later comparison means.
type spec struct {
	name string
	why  string
	rung rungKind

	objects  int
	kinds    []store.Kind // object i has kind kinds[i%len(kinds)]; nil on the cluster rungs
	readPct  int
	writePct int // the remainder is opReport

	durable bool // DataDir + SyncAlways, then restart and recovery
	byz     bool // node 3 boots with CorruptShares

	// rate is the rung's throughput on the 2-core reference VM, ops/s. The
	// timed window is rate × seconds ops: a fixed, seed-determined amount of
	// work that takes about --seconds there, so histories, audits and
	// allocation counts compare between commits whatever their speed.
	rate    uint64
	warmOps uint64 // untimed warm-up ops per caller, charged to setup_s
	// sampleMask: an op's latency is timed when index&sampleMask == 0. The
	// stop clock is read on the same ops.
	sampleMask uint64
}

// ladder is the five rungs, cheapest first.
var ladder = []spec{
	{
		name: "store-local", rung: rungLocal,
		why:     "only core/maxreg/snapshot/otp/shmem/store run: the in-process floor every networked rung is a ratio of",
		objects: 1024, kinds: []store.Kind{store.Register, store.MaxRegister, store.Snapshot},
		readPct: 70, writePct: 25, rate: 1_700_000, warmOps: 500_000, sampleMask: 15,
	},
	{
		name: "remote-read", rung: rungNode,
		why:     "wire+server+client do almost all the work on a read-heavy mix; persist and cluster do nothing",
		objects: 64, kinds: []store.Kind{store.Register, store.MaxRegister},
		readPct: 90, writePct: 10, rate: 90_000, warmOps: 10_000,
	},
	{
		name: "durable-write", rung: rungNode, durable: true,
		why:     "persist (append, group commit, fdatasync) sets latency on a write-heavy mix over the same wire path",
		objects: 64, kinds: []store.Kind{store.Register, store.MaxRegister},
		readPct: 20, writePct: 80, rate: 6_500, warmOps: 1_000,
	},
	{
		name: "cluster-mixed", rung: rungCluster,
		why:     "IDA split, per-share pads, 5-way fan-out and quorum collect over five volatile nodes: the dispersal cost",
		objects: 32, readPct: 75, writePct: 25, rate: 16_500, warmOps: 2_000,
	},
	{
		name: "cluster-byz", rung: rungCluster, byz: true,
		why:     "cluster-mixed with node 3 corrupting shares, so the verified-decode and consensus slow path is hot",
		objects: 32, readPct: 75, writePct: 25, rate: 14_500, warmOps: 2_000,
	},
}

// findSpec returns the named rung.
func findSpec(name string) (*spec, error) {
	for i := range ladder {
		if ladder[i].name == name {
			return &ladder[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// kindOf returns object i's kind; dispersed cluster registers report
// store.Register (overwrite semantics).
func (sp *spec) kindOf(i int) store.Kind {
	if sp.kinds == nil {
		return store.Register
	}
	return sp.kinds[i%len(sp.kinds)]
}

// layer names the module a rung's ops call into; spans carry it.
func (sp *spec) layer() string {
	return [...]string{rungLocal: "store", rungNode: "client", rungCluster: "cluster"}[sp.rung]
}

// maxOpsPerCaller bounds a caller's op count so that no object outgrows half
// its audit-history capacity, whatever the machine's speed: audits fail once
// a history overflows.
func (sp *spec) maxOpsPerCaller(callers int) uint64 {
	return uint64(sp.objects) * (historyCap / 2) * 100 / uint64(sp.writePct) / uint64(callers)
}

// mix is splitmix64's finalizer: a stateless hash good enough to turn
// (seed, caller, index) into an op without keeping the stream in memory.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// stream is the seed-determined op stream of one run: op j of caller c is a
// pure function of (seed, c, j), so the gate can re-derive which write made
// any value it sees instead of remembering forty million ops.
type stream struct {
	sp      *spec
	seed    uint64
	callers int
}

// at returns op j of caller c.
func (s stream) at(c int, j uint64) op {
	h := mix(s.seed ^ mix(uint64(c)<<48^j))
	roll := int(h % 100)
	h /= 100
	o := op{obj: int(h % uint64(s.sp.objects))}
	h /= uint64(s.sp.objects)
	switch {
	case roll < s.sp.readPct:
		o.kind = opRead
	case roll < s.sp.readPct+s.sp.writePct:
		o.kind = opWrite
		o.comp = int(h % comps)
		o.val = s.value(c, j)
	default:
		o.kind = opReport
	}
	return o
}

// Values identify their write. 0 is every object's initial value; 1..objects
// are the set-up preload writes (object i gets i+1); above that, op j of
// caller c writes objects+1+j*callers+c. Values grow with j, so a max
// register keeps taking new maxima for the whole run.
func (s stream) preload(obj int) uint64 { return uint64(obj) + 1 }

func (s stream) value(c int, j uint64) uint64 {
	return uint64(s.sp.objects) + 1 + j*uint64(s.callers) + uint64(c)
}

// writer inverts value: which caller's op wrote v. ok is false for 0 and the
// preload range.
func (s stream) writer(v uint64) (c int, j uint64, ok bool) {
	base := uint64(s.sp.objects) + 1
	if v < base {
		return 0, 0, false
	}
	v -= base
	return int(v % uint64(s.callers)), v / uint64(s.callers), true
}
