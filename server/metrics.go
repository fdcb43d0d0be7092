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
	"auditreg/wire"
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

// A counterRow is one number the server exports: the name STATS reports it
// under, the family /metrics serves it as, and where its value is loaded
// from — load for the server's own state, wal for the WAL's counters, which
// only a durable server has. Every exported counter is one row of counters,
// so that table is the whole list of what a curious party can read off a
// daemon besides the stage histograms (and the planted leak of
// Config.LeakyPerObjectReads, kept out of it as the positive control).
type counterRow struct {
	stat   string   // STATS pair name
	metric string   // /metrics family; "" keeps the row out of /metrics
	kind   promKind // how /metrics types the family
	help   string   // # HELP text, if any
	load   func(s *Server) uint64
	wal    func(ws *persist.Stats) uint64
}

// promKind is a /metrics family's type.
type promKind uint8

const (
	promCounter promKind = iota
	promGauge
	promSeconds // a gauge in seconds, loaded in milliseconds
)

// The table opens with the two rows STATS also sends as typed fields.
const (
	rowEpoch = iota
	rowUptime
)

// counters lists the rows in load order. A snapshot loads each row once,
// numerators before their denominators — a shed is counted before the
// enqueues that dilute it, a flushed frame before the flushes that divide
// it, a silent read before the fetches — so a ratio derived from one
// snapshot can under-, never over-state the rate it measures while traffic
// is in flight. The WAL rows close the table and read one persist.Stats,
// loaded once per snapshot (it orders its own loads the same way).
var counters = [...]counterRow{
	// Loading the epoch advances it: a scraper that sees it decrease knows
	// the daemon restarted.
	rowEpoch: {stat: "stats-epoch", metric: "auditreg_stats_epoch", kind: promGauge, load: func(s *Server) uint64 { return s.statsEpoch.Add(1) },
		help: "Monotonic per-boot snapshot counter; a decrease between scrapes means the daemon restarted."},
	rowUptime: {stat: "uptime-ms", metric: "auditreg_uptime_seconds", kind: promSeconds, load: func(s *Server) uint64 { return uint64(time.Since(s.start).Milliseconds()) }},

	// Shard occupancy: enqueues and sheds are cumulative, depth is the
	// instantaneous queue occupancy — nonzero sheds with bounded depth is
	// what admission control looks like under overload.
	{stat: "shard-sheds", metric: "auditreg_shard_sheds_total", load: perShard(func(e *shardQueue) uint64 { return e.sheds.Load() })},
	{stat: "shard-enqueues", metric: "auditreg_shard_enqueues_total", load: perShard(func(e *shardQueue) uint64 { return e.enqueues.Load() })},
	{stat: "shard-depth", metric: "auditreg_shard_depth", kind: promGauge, load: perShard(func(e *shardQueue) uint64 { return uint64(len(e.queue)) })},

	// One flush is one writev on one connection, however many frames it
	// carried: flushed frames over flushes is the write-coalescing factor.
	{stat: "conn-flushed-frames", metric: "auditreg_conn_flushed_frames_total", load: func(s *Server) uint64 { return s.connFlushFrames.Load() }},
	{stat: "conn-flushes", metric: "auditreg_conn_flushes_total", load: func(s *Server) uint64 { return s.connFlushes.Load() }},

	{stat: "reads-silent", metric: "auditreg_reads_silent_total", load: func(s *Server) uint64 { return s.readsSilent.Load() }},
	{stat: "reads-fetched", metric: "auditreg_reads_fetched_total", load: func(s *Server) uint64 { return s.readsFetched.Load() }},
	{stat: "opens", metric: "auditreg_opens_total", load: func(s *Server) uint64 { return s.opens.Load() }},
	{stat: "writes", metric: "auditreg_writes_total", load: func(s *Server) uint64 { return s.writes.Load() }},
	{stat: "announces", metric: "auditreg_announces_total", load: func(s *Server) uint64 { return s.announces.Load() }},
	{stat: "audits", metric: "auditreg_audits_total", load: func(s *Server) uint64 { return s.audits.Load() }},
	{stat: "errors", metric: "auditreg_errors_total", load: func(s *Server) uint64 { return s.errs.Load() }},
	{stat: "frames-in", metric: "auditreg_frames_in_total", load: func(s *Server) uint64 { return s.framesIn.Load() }},
	{stat: "frames-out", metric: "auditreg_frames_out_total", load: func(s *Server) uint64 { return s.framesOut.Load() }},
	{stat: "conns", metric: "auditreg_conns_total", load: func(s *Server) uint64 { return s.connsTotal.Load() }},
	{stat: "pool-audits", metric: "auditreg_pool_audits_total", load: func(s *Server) uint64 { return s.pool.Audited() }},
	{stat: "pool-sweeps", metric: "auditreg_pool_sweeps_total", load: func(s *Server) uint64 { return s.pool.Sweeps() }},
	{stat: "objects", metric: "auditreg_objects", kind: promGauge, load: func(s *Server) uint64 { return uint64(s.st.Len()) }},

	// The cluster block, STATS only: this node's share-path traffic and its
	// identity. Share counters stay zero until a dispersing client targets
	// the node; a node id of 0 marks a standalone daemon.
	{stat: "share-corrupts-served", load: func(s *Server) uint64 { return s.shareCorrupt.Load() }},
	{stat: "share-silent", load: func(s *Server) uint64 { return s.shareSilent.Load() }},
	{stat: "share-fetches", load: func(s *Server) uint64 { return s.shareFetch.Load() }},
	{stat: "share-writes", load: func(s *Server) uint64 { return s.shareWrites.Load() }},
	{stat: "share-probes", load: func(s *Server) uint64 { return s.shareProbes.Load() }},
	{stat: "share-objects", load: func(s *Server) uint64 {
		s.shareMu.RLock()
		defer s.shareMu.RUnlock()
		return uint64(len(s.shareLens))
	}},
	{stat: "node-id", load: func(s *Server) uint64 { return uint64(s.cfg.NodeID) }},

	// Configuration: fixed for the server's life.
	{stat: "shards", metric: "auditreg_shards", kind: promGauge, load: func(s *Server) uint64 { return uint64(len(s.shards)) }},
	{stat: "shard-queue-cap", load: func(s *Server) uint64 { return uint64(cap(s.shards[0].queue)) }},

	{stat: "wal-syncs", metric: "auditreg_wal_syncs_total", wal: func(ws *persist.Stats) uint64 { return ws.Syncs }},
	{stat: "wal-batches", metric: "auditreg_wal_batches_total", wal: func(ws *persist.Stats) uint64 { return ws.Batches }},
	{stat: "wal-records", metric: "auditreg_wal_records_total", wal: func(ws *persist.Stats) uint64 { return ws.Records }},
	{stat: "wal-rotations", metric: "auditreg_wal_rotations_total", wal: func(ws *persist.Stats) uint64 { return ws.Rotations }},
	{stat: "wal-snapshots", metric: "auditreg_wal_snapshots_total", wal: func(ws *persist.Stats) uint64 { return ws.Snapshots }},
	{stat: "wal-bytes", metric: "auditreg_wal_bytes_total", wal: func(ws *persist.Stats) uint64 { return ws.Bytes }},
}

// perShard loads a counter as its sum over the execution shards.
func perShard(load func(e *shardQueue) uint64) func(*Server) uint64 {
	return func(s *Server) uint64 {
		var n uint64
		for _, e := range s.shards {
			n += load(e)
		}
		return n
	}
}

// counterSnap is one coherent snapshot of the counter table: both STATS and
// the metrics endpoint render exclusively from one, so the ratios an
// operator derives from one scrape are never torn across loads.
type counterSnap struct {
	v   [len(counters)]uint64 // v[i] is row i's value; WAL rows stay 0 without a WAL
	wal *persist.Stats        // nil without a data dir
}

// has reports whether row r is served: WAL rows only by a durable server.
func (snap *counterSnap) has(r *counterRow) bool {
	return r.wal == nil || snap.wal != nil
}

// snapshotCounters loads every row of the counter table once, in order.
func (s *Server) snapshotCounters() counterSnap {
	var snap counterSnap
	for i := range counters {
		r := &counters[i]
		switch {
		case r.load != nil:
			snap.v[i] = r.load(s)
		case s.wal != nil:
			if snap.wal == nil {
				ws := s.wal.Stats()
				snap.wal = &ws
			}
			snap.v[i] = r.wal(snap.wal)
		}
	}
	return snap
}

// statPairs renders one counter snapshot as the STATS verb's sorted pair
// list: every row, the WAL's group-commit histogram when durable, and the
// quantized per-stage latency summaries.
func (s *Server) statPairs(snap counterSnap) []wire.StatPair {
	var pairs []wire.StatPair
	for i := range counters {
		if r := &counters[i]; snap.has(r) {
			pairs = append(pairs, wire.StatPair{Name: r.stat, Value: snap.v[i]})
		}
	}
	if ws := snap.wal; ws != nil {
		// The group-commit batch-size histogram: records per fsync, in
		// power-of-two buckets (the last collects everything larger). This
		// is what makes the batching claim observable: syncs piling into
		// the upper buckets, not a ratio inferred after the fact.
		for i, n := range ws.SyncHist {
			name := fmt.Sprintf("wal-sync-batch-le-%d", 1<<i)
			if i == len(ws.SyncHist)-1 {
				name = fmt.Sprintf("wal-sync-batch-gt-%d", 1<<(i-1))
			}
			pairs = append(pairs, wire.StatPair{Name: name, Value: n})
		}
	}
	// Per-stage latency summaries: quantized bucket upper bounds, the same
	// numbers the metrics endpoint serves — aggregate-only by construction.
	for _, st := range s.tel.reg.Snapshot() {
		pairs = append(pairs,
			wire.StatPair{Name: "stage-" + st.Name + "-p50-ns", Value: st.Quantile(0.50)},
			wire.StatPair{Name: "stage-" + st.Name + "-p99-ns", Value: st.Quantile(0.99)},
			wire.StatPair{Name: "stage-" + st.Name + "-max-ns", Value: st.Max()},
			wire.StatPair{Name: "stage-" + st.Name + "-count", Value: st.Count},
		)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Name < pairs[j].Name })
	return pairs
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

// serveMetrics writes the Prometheus exposition: build info, the rows of one
// counter snapshot that have a family, and the per-stage histograms.
// Everything here is aggregate-only; the one exception is the planted leak
// below, which exists so the leak-gate's positive control has something to
// catch.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := s.snapshotCounters()

	fmt.Fprintf(w, "# HELP auditreg_build_info Daemon build info; value is always 1.\n# TYPE auditreg_build_info gauge\n")
	fmt.Fprintf(w, "auditreg_build_info{goversion=%q,gomaxprocs=\"%d\"} 1\n", runtime.Version(), runtime.GOMAXPROCS(0))
	for i := range counters {
		r := &counters[i]
		if r.metric == "" || !snap.has(r) {
			continue
		}
		if r.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", r.metric, r.help)
		}
		switch r.kind {
		case promCounter:
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", r.metric, r.metric, snap.v[i])
		case promGauge:
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", r.metric, r.metric, snap.v[i])
		case promSeconds:
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", r.metric, r.metric, formatMs(snap.v[i]))
		}
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
