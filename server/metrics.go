package server

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strings"
	"time"

	"auditreg/internal/telem"
	"auditreg/persist"
)

// Pipeline stage names, as they appear in STATS summaries and the metrics
// endpoint. One name per hop of the request path:
//
//	conn-decode     reader-side frame peek, hash, copy and enqueue (per request frame)
//	exec-queue-wait routed request's dwell in its shard's queue
//	store-op        handler execution under the shard (store op + encode)
//	wal-commit-wait completion stage's wait for the durability verdict
//	completion      total completion-stage residence (commit wait + emit)
//	conn-flush      one writev flush of coalesced response frames
//	wal-fsync       one fdatasync of WAL segment data (persist hook)
const (
	stageConnDecode = "conn-decode"
	stageQueueWait  = "exec-queue-wait"
	stageStoreOp    = "store-op"
	stageWALCommit  = "wal-commit-wait"
	stageCompletion = "completion"
	stageConnFlush  = "conn-flush"
	stageWALFsync   = "wal-fsync"
)

// serverTelem bundles the server's per-stage latency histograms. Every
// histogram is striped (per shard or per connection slot) so hot-path
// observes never contend, and every export path — STATS summaries, the
// Prometheus endpoint — reads the same registry.
//
// Leak contract: stages are the ONLY dimension. No histogram, counter, or
// label here may ever carry an object name, reader index, or connection
// identity; the E18 metrics observer enforces this against the live
// endpoint (Config.LeakyPerObjectReads is the deliberate violation that
// proves the observer can see one).
type serverTelem struct {
	reg        *telem.Registry
	connDecode *telem.Hist
	queueWait  *telem.Hist
	storeOp    *telem.Hist
	walCommit  *telem.Hist
	completion *telem.Hist
	connFlush  *telem.Hist
	walFsync   *telem.Hist
}

func newServerTelem(execShards int) *serverTelem {
	reg := telem.NewRegistry()
	return &serverTelem{
		reg:        reg,
		connDecode: reg.Stage(stageConnDecode, 0),
		queueWait:  reg.Stage(stageQueueWait, execShards),
		storeOp:    reg.Stage(stageStoreOp, execShards),
		walCommit:  reg.Stage(stageWALCommit, 0),
		completion: reg.Stage(stageCompletion, 0),
		connFlush:  reg.Stage(stageConnFlush, 0),
		walFsync:   reg.Stage(stageWALFsync, execShards),
	}
}

// counterSnap is one coherent snapshot of every server counter: both STATS
// and the metrics endpoint read exclusively through snapshotCounters, so the
// derived ratios an operator computes from one scrape (sheds/enqueues,
// syncs/records, flushed-frames/flushes) are never torn across the
// individual atomic loads.
type counterSnap struct {
	epoch    uint64
	uptimeMs uint64

	opens, writes, readsFetched, readsSilent uint64
	announces, audits, errs                  uint64
	framesIn, framesOut, connsTotal          uint64
	connFlushFrames, connFlushes             uint64
	poolAudits, poolSweeps                   uint64
	objects                                  uint64

	shardSheds, shardEnqueues, shardDepth uint64

	shareWrites, shareProbes, shareFetch, shareSilent, shareObjects uint64
	shareCorrupt                                                    uint64

	wal *persist.Stats // nil without a data dir
}

// snapshotCounters loads every counter once, numerators before their
// denominators — a shed is counted before the enqueues that dilute it, a
// flushed frame before the flushes that divide it — so a ratio derived from
// one snapshot can under-, never over-state the rate it measures while
// traffic is in flight. Each call advances the stats epoch: a scraper that
// sees the epoch decrease knows the daemon restarted.
func (s *Server) snapshotCounters() counterSnap {
	snap := counterSnap{
		epoch:    s.statsEpoch.Add(1),
		uptimeMs: uint64(time.Since(s.start).Milliseconds()),
	}
	for _, e := range s.shards {
		snap.shardSheds += e.sheds.Load()
	}
	for _, e := range s.shards {
		snap.shardEnqueues += e.enqueues.Load()
		snap.shardDepth += uint64(len(e.queue))
	}
	snap.connFlushFrames = s.connFlushFrames.Load()
	snap.connFlushes = s.connFlushes.Load()
	snap.readsSilent = s.readsSilent.Load()
	snap.readsFetched = s.readsFetched.Load()
	snap.opens = s.opens.Load()
	snap.writes = s.writes.Load()
	snap.announces = s.announces.Load()
	snap.audits = s.audits.Load()
	snap.errs = s.errs.Load()
	snap.framesIn = s.framesIn.Load()
	snap.framesOut = s.framesOut.Load()
	snap.connsTotal = s.connsTotal.Load()
	snap.poolAudits = s.pool.Audited()
	snap.poolSweeps = s.pool.Sweeps()
	snap.objects = uint64(s.st.Len())
	snap.shareWrites = s.shareWrites.Load()
	snap.shareProbes = s.shareProbes.Load()
	snap.shareFetch = s.shareFetch.Load()
	snap.shareSilent = s.shareSilent.Load()
	snap.shareCorrupt = s.shareCorrupt.Load()
	s.shareMu.RLock()
	snap.shareObjects = uint64(len(s.shareLens))
	s.shareMu.RUnlock()
	if s.wal != nil {
		ws := s.wal.Stats() // persist loads syncs before records; see WAL.Stats
		snap.wal = &ws
	}
	return snap
}

// MetricsMux returns the HTTP handler tree for -metrics-addr: Prometheus
// text exposition on /metrics and the net/http/pprof suite under /debug/
// pprof/. It is its own mux — nothing registers on http.DefaultServeMux —
// so two servers in one process (a test, the E18 lab) never collide.
func (s *Server) MetricsMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveMetrics writes the Prometheus exposition: build info, the coherent
// counter snapshot, the WAL counters when durable, and the per-stage
// histograms. Everything here is aggregate-only; the one exception is the
// planted leak below, which exists so the leak-gate's positive control has
// something to catch.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := s.snapshotCounters()

	fmt.Fprintf(w, "# HELP auditreg_build_info Daemon build info; value is always 1.\n# TYPE auditreg_build_info gauge\n")
	fmt.Fprintf(w, "auditreg_build_info{goversion=%q,gomaxprocs=\"%d\"} 1\n", runtime.Version(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "# TYPE auditreg_uptime_seconds gauge\nauditreg_uptime_seconds %s\n", formatMs(snap.uptimeMs))
	fmt.Fprintf(w, "# HELP auditreg_stats_epoch Monotonic per-boot snapshot counter; a decrease between scrapes means the daemon restarted.\n")
	fmt.Fprintf(w, "# TYPE auditreg_stats_epoch gauge\nauditreg_stats_epoch %d\n", snap.epoch)

	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"auditreg_opens_total", snap.opens},
		{"auditreg_writes_total", snap.writes},
		{"auditreg_reads_fetched_total", snap.readsFetched},
		{"auditreg_reads_silent_total", snap.readsSilent},
		{"auditreg_announces_total", snap.announces},
		{"auditreg_audits_total", snap.audits},
		{"auditreg_errors_total", snap.errs},
		{"auditreg_frames_in_total", snap.framesIn},
		{"auditreg_frames_out_total", snap.framesOut},
		{"auditreg_conns_total", snap.connsTotal},
		{"auditreg_conn_flushes_total", snap.connFlushes},
		{"auditreg_conn_flushed_frames_total", snap.connFlushFrames},
		{"auditreg_shard_enqueues_total", snap.shardEnqueues},
		{"auditreg_shard_sheds_total", snap.shardSheds},
		{"auditreg_pool_audits_total", snap.poolAudits},
		{"auditreg_pool_sweeps_total", snap.poolSweeps},
	} {
		telem.WriteCounter(w, c.name, c.v)
	}
	fmt.Fprintf(w, "# TYPE auditreg_objects gauge\nauditreg_objects %d\n", snap.objects)
	fmt.Fprintf(w, "# TYPE auditreg_shard_depth gauge\nauditreg_shard_depth %d\n", snap.shardDepth)
	fmt.Fprintf(w, "# TYPE auditreg_shards gauge\nauditreg_shards %d\n", len(s.shards))
	if ws := snap.wal; ws != nil {
		telem.WriteCounter(w, "auditreg_wal_records_total", ws.Records)
		telem.WriteCounter(w, "auditreg_wal_batches_total", ws.Batches)
		telem.WriteCounter(w, "auditreg_wal_syncs_total", ws.Syncs)
		telem.WriteCounter(w, "auditreg_wal_rotations_total", ws.Rotations)
		telem.WriteCounter(w, "auditreg_wal_snapshots_total", ws.Snapshots)
		telem.WriteCounter(w, "auditreg_wal_bytes_total", ws.Bytes)
	}
	telem.WriteStages(w, s.tel.reg.Snapshot())

	if s.cfg.LeakyPerObjectReads {
		// POSITIVE CONTROL — a deliberate violation of the aggregate-only
		// contract: a per-object read counter, exactly the "harmless" label
		// a well-meaning operator might add. The E18 metrics observer's
		// control game must detect it; it must never ship enabled.
		fmt.Fprintf(w, "# HELP auditreg_leaky_object_reads_total DELIBERATE LEAK (positive control); never enable in production.\n")
		fmt.Fprintf(w, "# TYPE auditreg_leaky_object_reads_total counter\n")
		s.leakyMu.Lock()
		names := make([]string, 0, len(s.leakyReads))
		for name := range s.leakyReads {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "auditreg_leaky_object_reads_total{object=%q} %d\n", name, s.leakyReads[name])
		}
		s.leakyMu.Unlock()
	}
}

// recordLeakyRead feeds the planted per-object read counter; called from the
// read-fetch handler only when Config.LeakyPerObjectReads is set. The name
// view aliases a pooled frame buffer, so the map key must be a stable copy.
func (s *Server) recordLeakyRead(name string) {
	s.leakyMu.Lock()
	if s.leakyReads == nil {
		s.leakyReads = make(map[string]uint64)
	}
	s.leakyReads[strings.Clone(name)]++
	s.leakyMu.Unlock()
}

// formatMs renders milliseconds as decimal seconds.
func formatMs(ms uint64) string {
	return fmt.Sprintf("%d.%03d", ms/1000, ms%1000)
}
