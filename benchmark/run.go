package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one metric and its unit. The two lists below are the
// benchmark's vocabulary: BENCHMARK.json declares exactly these names, and
// smoke_test.go holds the two to each other.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, measured with tracing off:
// the metrics a later change is held to, within the bounds BENCHMARK.json
// gives them. A run boots the rung several times; how the boots' values
// become the run's is the metric's estimator.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"ops_per_s", "1/s"},
	{"read_p50_us", "us"}, {"write_p50_us", "us"}, {"audit_p50_ms", "ms"},
	{"cpu_us_per_op", "us"}, {"allocs_per_op", "1"}, {"heap_mb", "MiB"}, {"recover_ms", "ms"},
}

// perLayer is one layer's share, from the traced pass and the isolated
// replays. A layer a rung does not run reports 0 for its counters.
var perLayer = []metricDef{
	{"core.write_ns", "ns"}, {"core.read_ns", "ns"}, {"core.silent_read_ns", "ns"}, {"core.audit_us_per_1k_writes", "us"},
	{"maxreg.write_ns", "ns"}, {"maxreg.read_ns", "ns"}, {"snapshot.update_ns", "ns"}, {"snapshot.scan_ns", "ns"},
	{"otp.mask_ns", "ns"}, {"otp.derivations_per_write", "1"},
	{"store.lookup_ns", "ns"}, {"store.write_ns", "ns"}, {"store.read_ns", "ns"}, {"store.audit_us", "us"},
	{"store.pool_audits_per_s", "1/s"}, {"store.pool_flush_ms", "ms"},
	{"wire.encode_ns", "ns"}, {"wire.decode_ns", "ns"}, {"wire.bytes_per_op", "B"}, {"wire.frames_per_op", "1"},
	{"server.frames_per_flush", "1"}, {"server.shed_pct", "%"}, {"server.silent_read_pct", "%"},
	{"server.stage.conn-decode_p50_us", "us"}, {"server.stage.exec-queue-wait_p50_us", "us"},
	{"server.stage.store-op_p50_us", "us"}, {"server.stage.completion_p50_us", "us"},
	{"server.stage.conn-flush_p50_us", "us"}, {"server.stage.wal-commit-wait_p50_us", "us"},
	{"client.rtt_p50_us", "us"}, {"client.rtt_p99_us", "us"}, {"client.share_rtt_p50_us", "us"},
	{"persist.record_us", "us"}, {"persist.fsync_p50_us", "us"}, {"persist.records_per_sync", "1"},
	{"persist.syncs_per_op", "1"}, {"persist.bytes_per_record", "B"}, {"persist.wal_bytes_per_op", "B"},
	{"persist.replay_us_per_record", "us"},
	{"ida.split_ns", "ns"}, {"ida.reconstruct_ns", "ns"}, {"ida.verify_ns", "ns"}, {"cluster.sharepad_ns", "ns"},
	{"cluster.write_self_us", "us"}, {"cluster.read_self_us", "us"},
	{"cluster.verified_decodes_per_read", "1"}, {"cluster.consensus_decodes_per_read", "1"},
	{"cluster.corrupt_shares_per_read", "1"}, {"cluster.suspect_marks", "count"},
	{"cluster.retries_per_read", "1"}, {"cluster.stale_read_pct", "%"},
	{"cluster.audit_merge_ms", "ms"}, {"cluster.undecided_pairs", "count"},
	{"stack.read_p99_us", "us"}, {"stack.write_p99_us", "us"},
	{"stack.unaccounted_us", "us"}, {"stack.trace_overhead_pct", "%"},
}

// stages are the server pipeline hops on a request's blocking path, in
// order. wal-commit-wait is reported but lies inside completion.
var stages = []string{"conn-decode", "exec-queue-wait", "store-op", "completion", "conn-flush"}

// bench is one workload's run in progress.
type bench struct {
	sp  *spec
	cfg config
	out io.Writer
	dir string

	st  stream
	r   rung
	g   *gate
	d   *driver
	tap *frameTap
}

// setUp boots the rung, opens and preloads every object (one write, one read
// by each reader) and runs the warm-up ops. All of it is charged to setup_s.
func (b *bench) setUp(dir string) error {
	r, err := boot(b.sp, b.cfg.seed, b.cfg.callers, dir, b.tap)
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	b.r, b.g = r, newGate(b.st)
	b.d = &driver{st: b.st, r: r, g: b.g, next: make([]uint64, b.cfg.callers)}
	for obj := 0; obj < b.sp.objects; obj++ {
		if _, err := r.do(0, op{kind: opWrite, obj: obj, val: b.st.preload(obj)}); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		for c := 0; c < b.cfg.callers; c++ {
			res, err := r.do(c, op{kind: opRead, obj: obj})
			if err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			b.g.observe(c, obj, res)
		}
	}
	if w := b.d.run(stopRule{ops: b.sp.warmOps}, nil); w.failed > 0 {
		return fmt.Errorf("warm-up: %d ops failed: %w", w.failed, w.firstErr)
	}
	return nil
}

// segment is one boot of the rung and everything measured on it.
type segment struct {
	setupS    float64
	win       window
	heapMB    float64 // live heap after a forced GC at the end of the window, logs excluded
	aud       audited
	recoverMs float64
}

// estimator says how a run's value is made of its parts. Interference on a
// shared machine — a neighbour on the core, a stretch of slow memory, a slow
// fsync of the host's — only ever slows the program down, and it comes in
// episodes of a fraction of a second to many seconds. So a time is estimated
// on the good side of its distribution, which is both nearer the undisturbed
// speed and steadier from run to run than the middle (README.md has the
// numbers): what is measured inside the timed windows from the decile of all
// the boots' slices, what is measured once per boot from the quartile of the
// boots. Counts have no good side: the median.
type estimator uint8

const (
	median estimator = iota
	lowQuartile
	highQuartile
	lowDecile
	highDecile
)

func (e estimator) of(vals []float64) float64 {
	return quantile(vals, [...]float64{median: 0.5, lowQuartile: 0.25, highQuartile: 0.75, lowDecile: 0.1, highDecile: 0.9}[e])
}

func (e estimator) String() string {
	return [...]string{median: "median", lowQuartile: "lower quartile", highQuartile: "upper quartile",
		lowDecile: "lower decile", highDecile: "upper decile"}[e]
}

// minSlices is how many slices a run must have for its deciles to mean
// anything; a shorter run falls back on the quartile of its boots.
const minSlices = 20

// runWorkload runs one rung end to end and prints its metrics. The report is
// valid whenever its Metrics are set, even alongside an error: a run that
// measured but failed the gate still says what it measured.
//
// The timed work is split over cfg.setups boots of the rung: set up, run one
// share of the window, audit, restart, tear down. Every boot runs the same
// ops, so the boots are repeated measurements of one thing.
func runWorkload(sp *spec, cfg config, out io.Writer) (rep report, err error) {
	dir, err := os.MkdirTemp(cfg.tmp, "ladder-"+sp.name+"-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)
	b := &bench{sp: sp, cfg: cfg, out: out, dir: dir, st: stream{sp, cfg.seed, cfg.callers}}
	defer func() {
		if b.r != nil {
			err = errors.Join(err, b.r.close())
		}
	}()

	// A boot's window is its share of rate × seconds ops: a fixed amount of
	// work that takes about --seconds in all on the reference VM, so op
	// counts, history lengths and audits are the same on every commit. The
	// clock only cuts a window off on a much slower machine.
	boots := cfg.setups
	if cfg.trace {
		boots, b.tap = 1, new(frameTap)
	}
	total := uint64(float64(sp.rate) * cfg.seconds)
	if cfg.ops > 0 {
		total = cfg.ops
	}
	stop := stopRule{
		ops: max(min(total/uint64(boots*cfg.callers), sp.maxOpsPerCaller(cfg.callers)), 1),
		dur: time.Duration(1.25 * cfg.seconds / float64(boots) * float64(time.Second)),
	}
	if cfg.ops > 0 {
		stop.dur = 0
	}

	var segs []segment
	var gateErrs []error
	for i := 0; i < boots; i++ {
		var seg segment
		bootDir := filepath.Join(dir, fmt.Sprint(i))
		t0 := time.Now()
		if err := b.setUp(bootDir); err != nil {
			return report{}, err
		}
		seg.setupS = time.Since(t0).Seconds()
		if cfg.trace {
			return b.traced(stop, bootDir)
		}
		seg.win = b.d.run(stop, nil)
		seg.heapMB = b.liveHeapMB()
		var gateErr error
		seg.aud, gateErr = b.auditPhase()
		if gateErr == nil {
			seg.recoverMs, gateErr = b.restart(bootDir)
		}
		if gateErr != nil {
			gateErrs = append(gateErrs, fmt.Errorf("boot %d: %w", i, gateErr))
		}
		segs = append(segs, seg)
		if b.r != nil {
			err := b.r.close()
			b.r = nil
			if err != nil {
				return report{}, err
			}
		}
	}

	// all sums the boots' windows; the counts and the failures are theirs.
	var all window
	for i := range segs {
		w := &segs[i].win
		all.ops, all.reads, all.writes, all.reports = all.ops+w.ops, all.reads+w.reads, all.writes+w.writes, all.reports+w.reports
		all.failed, all.wall = all.failed+w.failed, all.wall+w.wall
		for k := range all.lat {
			all.lat[k].merge(&w.lat[k])
		}
		if all.firstErr == nil {
			all.firstErr = w.firstErr
		}
	}
	perOp := func(f func(*window) float64) func(*segment) float64 {
		return func(s *segment) float64 { return f(&s.win) / float64(max(s.win.ops, 1)) }
	}
	lat := func(kind opKind) (func(*segment) float64, func(*sliceStat) float64) {
		return func(s *segment) float64 { return s.win.latency(kind, 0.5) }, func(s *sliceStat) float64 { return s.p50[kind] }
	}
	readBoot, readSlice := lat(opRead)
	writeBoot, writeSlice := lat(opWrite)
	vals, notes := map[string]float64{}, map[string]string{}
	for _, m := range []struct {
		name  string
		est   estimator
		boot  func(*segment) float64   // a boot's value
		slice func(*sliceStat) float64 // a slice's value, for what is measured inside the window
	}{
		{"setup_s", median, func(s *segment) float64 { return s.setupS }, nil},
		{"ops_per_s", highDecile, func(s *segment) float64 { return s.win.rate() }, func(s *sliceStat) float64 { return s.rate }},
		{"read_p50_us", lowDecile, readBoot, readSlice},
		{"write_p50_us", lowDecile, writeBoot, writeSlice},
		{"audit_p50_ms", lowQuartile, func(s *segment) float64 { return s.aud.p50ms }, nil},
		{"cpu_us_per_op", lowDecile, perOp(func(w *window) float64 { return float64(w.cpu.Nanoseconds()) / 1e3 }), func(s *sliceStat) float64 { return s.cpuPerOp }},
		{"allocs_per_op", median, perOp(func(w *window) float64 { return float64(w.mallocs) }), nil},
		{"heap_mb", median, func(s *segment) float64 { return s.heapMB }, nil},
		{"recover_ms", lowQuartile, func(s *segment) float64 { return s.recoverMs }, nil},
	} {
		each := make([]float64, len(segs))
		var pool []float64
		for i := range segs {
			each[i] = m.boot(&segs[i])
			for j := range segs[i].win.slices {
				if m.slice == nil {
					break
				}
				if v := m.slice(&segs[i].win.slices[j]); v > 0 { // 0: the slice timed no such op
					pool = append(pool, v)
				}
			}
		}
		est, of, note := m.est, each, ""
		switch {
		case len(pool) >= minSlices:
			of, note = pool, fmt.Sprintf("%s of %d slices of %v; the boots' whole windows:", est, len(pool), sliceWidth)
		case est == lowDecile:
			est = lowQuartile
		case est == highDecile:
			est = highQuartile
		}
		if note == "" {
			note = fmt.Sprintf("%s of %d boots:", est, len(segs))
		}
		for _, v := range each {
			note += fmt.Sprintf(" %.4g", v)
		}
		vals[m.name], notes[m.name] = est.of(of), note
	}
	last := segs[len(segs)-1]
	notes["ops_per_s"] += fmt.Sprintf("; in all %d ops (%d reads, %d writes, %d report lookups) in %.3fs of windows",
		all.ops, all.reads, all.writes, all.reports, all.wall.Seconds())
	for kind, name := range map[opKind]string{opRead: "read_p50_us", opWrite: "write_p50_us"} {
		notes[name] += fmt.Sprintf("; all boots together p50 %.4f p99 %.4f, n=%d", all.latency(kind, 0.5), all.latency(kind, 0.99), all.lat[kind].n)
	}
	notes["audit_p50_ms"] += fmt.Sprintf("; one fresh audit of one object (its fastest of %d), median over %d objects; %.0f writes of history each, %d audited pairs per boot",
		last.aud.sweeps, min(sp.objects, auditTimed), float64(last.win.writes)/float64(sp.objects), last.aud.pairs)
	return b.finish(endToEnd, vals, notes, all, last.aud, errors.Join(gateErrs...))
}

// liveHeapMB is the live heap after a forced GC, the harness's own
// observation logs excluded.
func (b *bench) liveHeapMB() float64 {
	// Twice: the second cycle frees what the first only moved to the
	// sync.Pool victim caches.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc-b.g.bytes()) / (1 << 20)
}

// finish prints the metrics and assembles the report. gateErr is the
// correctness gate's verdict; failed ops are reported beside it, not as it.
func (b *bench) finish(defs []metricDef, vals map[string]float64, notes map[string]string, win window, aud audited, gateErr error) (report, error) {
	rep := report{Correct: gateErr == nil, Attempted: max(win.ops, 1), Failed: win.failed, Metrics: map[string]metric{}}
	rep.counts = opCounts{win.reads, win.writes, win.reports, aud.pairs}
	for _, d := range defs {
		rep.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	printMetrics(b.out, b.sp.name, rep.Metrics, notes)
	if win.failed > 0 {
		gateErr = errors.Join(gateErr, fmt.Errorf("%d of %d ops failed, first: %w", win.failed, win.ops, win.firstErr))
	}
	return rep, gateErr
}

// What the audit and restart phases time takes a millisecond or less on most
// rungs, so they time it again and again and keep the fastest: at least
// minRepeats times, then for as long as repeatShare of --seconds lasts, at
// most maxRepeats times.
const (
	minRepeats  = 3
	maxRepeats  = 40
	repeatShare = 0.01
)

// repeats reports whether the i-th repetition of a phase begun at start is
// still to be made.
func (b *bench) repeats(i int, start time.Time) bool {
	budget := time.Duration(repeatShare * b.cfg.seconds * float64(time.Second))
	return i < minRepeats || i < maxRepeats && time.Since(start) < budget
}

// auditTimed is how many objects the audit phase times: the first so many.
const auditTimed = 128

// audited is the audit phase's outcome.
type audited struct {
	p50ms  float64
	pairs  int
	sweeps int // how many times each timed object was audited
}

// auditPhase is the correctness gate: every observed value must have been
// written, a fresh audit of every object must equal the observed set (timed:
// audit_p50_ms), and the rung's own verdict must hold.
func (b *bench) auditPhase() (audited, error) {
	var a audited
	var errs []error
	if n := b.g.wrongReads(); n > 0 {
		errs = append(errs, fmt.Errorf("%d wrong reads: values never written to the object read, or a max register going backwards", n))
	}
	// Before the audits: a merged audit votes the nodes' honest journals and
	// so lifts the very quarantine the cluster verdict looks for.
	if err := b.r.verdict(); err != nil {
		errs = append(errs, err)
	}
	// The first sweep audits every object and holds it to the observed sets.
	// The rung is quiescent, so the others only time the first auditTimed
	// objects' audits again. An object's time is its fastest, which a
	// neighbour's burst cannot inflate.
	ex := b.g.expected()
	best := make([]float64, min(b.sp.objects, auditTimed)) // ms
	for start := time.Now(); b.repeats(a.sweeps, start); a.sweeps++ {
		n := len(best)
		if a.sweeps == 0 {
			n = b.sp.objects
		}
		pairs, took, err := b.sweep(ex, n, a.sweeps == 0)
		if err != nil {
			errs = append(errs, err)
		}
		if a.sweeps == 0 {
			a.pairs = pairs
			start = time.Now() // the budget is for the repetitions
		}
		for obj := range best {
			if a.sweeps == 0 || took[obj] < best[obj] {
				best[obj] = took[obj]
			}
		}
	}
	a.p50ms = quantile(best, 0.5)
	return a, errors.Join(errs...)
}

// sweep audits the first n objects once and returns the audited pairs and
// each audit's time in ms; with check set every audit is held to ex.
func (b *bench) sweep(ex expectation, n int, check bool) (pairs int, tookMs []float64, err error) {
	tookMs = make([]float64, n)
	var errs []error
	for obj := range tookMs {
		n, took, err := b.r.audit(b.g, ex, obj, check)
		tookMs[obj] = float64(took.Nanoseconds()) / 1e6
		pairs += n
		if err != nil {
			if errs = append(errs, err); len(errs) == 8 {
				break // one broken layer fails every object; eight say enough
			}
		}
	}
	return pairs, tookMs, errors.Join(errs...)
}

// restart is a clean restart of the rung, timed from the start of its
// shutdown until it is ready again: servers drained and stopped, booted
// anew, client connected, every object open. On the durable rung the new
// server replays the WAL of the boot's whole run from the same data dir
// (a clean shutdown does not compact it, so every restart replays it all),
// and every audit must be exact again on the last one; the volatile rungs
// come back empty, which is the floor that replay sits on. It returns the
// fastest of the restarts, in ms. Whatever fails, b.r is either a live rung
// or nil, never a stopped one.
func (b *bench) restart(dir string) (ms float64, err error) {
	start := time.Now()
	for i := 0; b.repeats(i, start); i++ {
		// Collecting what the last rung left behind is the harness's work,
		// not the restart's: done before the clock starts.
		runtime.GC()
		t0 := time.Now()
		err = b.r.close()
		b.r, b.d.r = nil, nil
		if err != nil {
			return 0, fmt.Errorf("restart: %w", err)
		}
		r, err := boot(b.sp, b.cfg.seed, b.cfg.callers, dir, b.tap)
		if err != nil {
			return 0, fmt.Errorf("restart: %w", err)
		}
		b.r, b.d.r = r, r
		if took := float64(time.Since(t0).Nanoseconds()) / 1e6; i == 0 || took < ms {
			ms = took
		}
	}
	if b.sp.durable {
		if _, _, err := b.sweep(b.g.expected(), b.sp.objects, true); err != nil {
			return ms, fmt.Errorf("after recovery: %w", err)
		}
	}
	return ms, nil
}

// traced is the --trace 1 run, on one boot: a plain pass and a traced pass
// (their throughput difference is the tracing overhead), the layers' exported
// counters bracketing the traced pass, the audit phase, and the isolated
// replays. It reports the per-layer metrics only.
func (b *bench) traced(stop stopRule, dir string) (report, error) {
	// A quarter of the whole window each: tracing is never used for the
	// end-to-end numbers, so it need not run as long.
	stop.ops, stop.dur = max(stop.ops/4, 1), stop.dur/4
	plain := b.d.run(stop, nil)
	logs := make([]*spanLog, b.cfg.callers)
	for c := range logs {
		logs[c] = new(spanLog)
	}
	before, err := b.r.counters()
	if err != nil {
		return report{}, err
	}
	frames0, bytes0 := b.tap.frames.Load(), b.tap.bytes.Load()
	win := b.d.run(stop, logs)
	after, err := b.r.counters()
	if err != nil {
		return report{}, err
	}
	frames, bytes := b.tap.frames.Load()-frames0, b.tap.bytes.Load()-bytes0
	aud, gateErr := b.auditPhase()
	undecided := 0
	if cr, ok := b.r.(*clusterRung); ok {
		undecided = cr.undecided
	}
	if gateErr == nil && b.sp.durable {
		_, gateErr = b.restart(dir) // the gate's recovery leg; recover_ms is the plain run's
	}
	// The rung is done; stop it so the isolated replays have the machine.
	if b.r != nil {
		err = b.r.close()
		b.r = nil
		if err != nil {
			return report{}, err
		}
	}

	runtime.GC()
	lr := &layerRun{st: b.st, calls: b.cfg.calls, dir: b.dir, out: map[string]float64{}}
	if err := lr.run(); err != nil {
		return report{}, err
	}
	if b.cfg.spans != "" {
		if err := writeSpans(b.cfg.spans, append(logs, &lr.log)); err != nil {
			return report{}, err
		}
	}

	v := lr.out
	nops, secs := float64(max(win.ops, 1)), win.wall.Seconds()
	rate := win.rate()
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	v["store.pool_audits_per_s"] = after.stat(before, "pool-audits") / secs
	v["wire.bytes_per_op"] = float64(bytes) / nops
	v["wire.frames_per_op"] = float64(frames) / nops
	v["server.frames_per_flush"] = ratio(after.stat(before, "conn-flushed-frames"), after.stat(before, "conn-flushes"))
	v["server.shed_pct"] = 100 * ratio(after.stat(before, "shard-sheds"), after.stat(before, "shard-enqueues"))
	silent := after.stat(before, "reads-silent") + after.stat(before, "share-silent")
	v["server.silent_read_pct"] = 100 * ratio(silent, silent+after.stat(before, "reads-fetched")+after.stat(before, "share-fetches"))
	var stageSum float64
	for _, s := range append([]string{"wal-commit-wait"}, stages...) {
		p50 := after.stageQuantileUs(before, s, 0.5)
		v["server.stage."+s+"_p50_us"] = p50
		if s != "wal-commit-wait" {
			stageSum += p50
		}
	}
	v["client.rtt_p50_us"] = snapshotQuantileUs(after.rtt, before.rtt, 0.5)
	v["client.rtt_p99_us"] = snapshotQuantileUs(after.rtt, before.rtt, 0.99)
	v["persist.syncs_per_op"] = after.stat(before, "wal-syncs") / nops
	v["persist.wal_bytes_per_op"] = after.stat(before, "wal-bytes") / nops

	rp50, wp50 := win.latency(opRead, 0.5), win.latency(opWrite, 0.5)
	// mixed weighs a per-read and a per-write cost by the traced pass's mix.
	mixed := func(read, write float64) float64 {
		return ratio(read*float64(win.reads)+write*float64(win.writes), float64(win.reads+win.writes))
	}
	// layersUs is the sum of the measured layer times on one op's blocking
	// path; what the caller waited beyond it is unaccounted.
	var layersUs float64
	switch b.sp.rung {
	case rungLocal:
		layersUs = mixed(v["store.read_ns"], v["store.write_ns"]) / 1e3
	case rungNode:
		layersUs = stageSum + lr.wireClientNs/1e3
	case rungCluster:
		reads := float64(after.reads.reads - before.reads.reads)
		dc, bc := after.cluster, before.cluster
		v["cluster.write_self_us"] = wp50 - v["client.share_rtt_p50_us"]
		v["cluster.read_self_us"] = rp50 - v["client.share_rtt_p50_us"]
		v["cluster.verified_decodes_per_read"] = ratio(float64(dc.VerifiedDecodes-bc.VerifiedDecodes), reads)
		v["cluster.consensus_decodes_per_read"] = ratio(float64(dc.ConsensusDecodes-bc.ConsensusDecodes), reads)
		v["cluster.corrupt_shares_per_read"] = ratio(float64(dc.CorruptShares-bc.CorruptShares), reads)
		v["cluster.suspect_marks"] = float64(dc.SuspectMarks) // over the client's life: the mark lands in warm-up
		v["cluster.retries_per_read"] = ratio(float64(after.reads.retries-before.reads.retries), reads)
		v["cluster.stale_read_pct"] = 100 * ratio(float64(after.reads.stale-before.reads.stale), reads)
		v["cluster.audit_merge_ms"] = aud.p50ms
		v["cluster.undecided_pairs"] = float64(undecided)
		pads := clusterN * v["cluster.sharepad_ns"]
		layersUs = mixed(pads+v["ida.verify_ns"], pads+v["ida.split_ns"])/1e3 + stageSum + lr.wireClientNs/1e3
	}
	v["stack.unaccounted_us"] = mixed(rp50, wp50) - layersUs
	// The tails, from the plain pass: demoted from the end-to-end list because
	// no run length the budget allows holds them within a bound (README.md).
	v["stack.read_p99_us"], v["stack.write_p99_us"] = plain.latency(opRead, 0.99), plain.latency(opWrite, 0.99)
	v["stack.trace_overhead_pct"] = 100 * (plain.rate() - rate) / plain.rate()

	self := selfTimes(logs)
	layer := b.sp.layer()
	notes := map[string]string{
		"stack.unaccounted_us": fmt.Sprintf("caller-side op p50 %.3f us (reads %.3f, writes %.3f, n=%d+%d) minus measured layers %.3f us; harness self time per op p50 %.3f us",
			mixed(rp50, wp50), rp50, wp50, win.lat[opRead].n, win.lat[opWrite].n, layersUs, quantile(self["op"], 0.5)/1e3),
		"stack.trace_overhead_pct": fmt.Sprintf("plain %.0f ops/s vs traced %.0f ops/s, %d spans", plain.rate(), rate, spanCount(logs)),
		"stack.read_p99_us":        fmt.Sprintf("plain pass, n=%d", plain.lat[opRead].n),
		"stack.write_p99_us":       fmt.Sprintf("plain pass, n=%d", plain.lat[opWrite].n),
		"wire.frames_per_op":       fmt.Sprintf("%d frames, %d bytes, %d ops (exact counts)", frames, bytes, win.ops),
	}
	for _, s := range stages {
		notes["server.stage."+s+"_p50_us"] = "interpolated inside a log2 bucket: exact to a factor of two at worst"
	}
	for _, verb := range []string{"read", "write"} {
		name := layer + "." + verb
		fmt.Fprintf(b.out, "%-14s span %-16s self p50 %10.3f us  n=%d\n", b.sp.name, name, quantile(self[name], 0.5)/1e3, len(self[name]))
	}
	return b.finish(perLayer, v, notes, win, aud, gateErr)
}

func spanCount(logs []*spanLog) int {
	n := 0
	for _, l := range logs {
		n += len(l.spans)
	}
	return n
}
