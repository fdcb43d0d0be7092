package server

import (
	"context"
	"slices"
	"strings"
	"testing"

	"auditreg"
	"auditreg/persist"
	"auditreg/wire"
)

// signalNames returns what a server exports, by name only: the sorted STATS
// pair names, and the sorted set of /metrics sample families (a sample's
// name up to its labels) together with every # TYPE and # HELP line.
func signalNames(t *testing.T, srv *Server) (stats, metrics []string) {
	t.Helper()
	c := &conn{srv: srv}
	b, verb := c.handleStats(nil, nil)
	if verb != wire.VerbStats {
		t.Fatalf("STATS answered %v", verb)
	}
	var resp wire.StatsResp
	if err := resp.Decode(b); err != nil {
		t.Fatalf("decode STATS: %v", err)
	}
	for _, p := range resp.Pairs {
		stats = append(stats, p.Name)
	}
	slices.Sort(stats)

	_, body := scrape(t, srv)
	seen := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if !strings.HasPrefix(line, "# ") {
			line = line[:strings.IndexAny(line, "{ ")]
		}
		seen[line] = true
	}
	for line := range seen {
		metrics = append(metrics, line)
	}
	slices.Sort(metrics)
	return stats, metrics
}

// TestSignalNames pins every name a volatile and a durable server export,
// through STATS and through /metrics. Each exported signal is a channel a
// curious party can read, and the bench drivers, auditctl, loadgen and the
// E18 counter-delta observer read these by name: a signal may be added
// only by editing this list, and none may be renamed or dropped quietly.
func TestSignalNames(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		stats   []string
		metrics []string
	}{
		{"volatile", Config{Key: auditreg.KeyFromSeed(7), Readers: 4}, volatileStats, volatileMetrics},
		{"durable", Config{Key: auditreg.KeyFromSeed(7), Readers: 4, DataDir: t.TempDir(), Fsync: persist.SyncAlways, WALStripes: 1},
			sorted(volatileStats, walStats), sorted(volatileMetrics, walMetrics)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := New(tc.cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer srv.Shutdown(context.Background())
			stats, metrics := signalNames(t, srv)
			if !slices.Equal(stats, tc.stats) {
				t.Errorf("STATS names:\n%q\nwant\n%q", stats, tc.stats)
			}
			if !slices.Equal(metrics, tc.metrics) {
				t.Errorf("/metrics names:\n%q\nwant\n%q", metrics, tc.metrics)
			}
		})
	}
}

// sorted returns the sorted union of lists.
func sorted(lists ...[]string) []string {
	out := slices.Concat(lists...)
	slices.Sort(out)
	return out
}

// volatileStats is every STATS pair name of a daemon without a data dir.
var volatileStats = []string{
	"announces", "audits", "conn-flushed-frames", "conn-flushes", "conns",
	"errors", "frames-in", "frames-out", "node-id", "objects", "opens",
	"pool-audits", "pool-sweeps", "reads-fetched", "reads-silent",
	"shard-depth", "shard-enqueues", "shard-queue-cap", "shard-sheds",
	"shards", "share-corrupts-served", "share-fetches", "share-objects",
	"share-probes", "share-silent", "share-writes", "stage-completion-count",
	"stage-completion-max-ns", "stage-completion-p50-ns",
	"stage-completion-p99-ns", "stage-conn-decode-count",
	"stage-conn-decode-max-ns", "stage-conn-decode-p50-ns",
	"stage-conn-decode-p99-ns", "stage-conn-flush-count",
	"stage-conn-flush-max-ns", "stage-conn-flush-p50-ns",
	"stage-conn-flush-p99-ns", "stage-exec-queue-wait-count",
	"stage-exec-queue-wait-max-ns", "stage-exec-queue-wait-p50-ns",
	"stage-exec-queue-wait-p99-ns", "stage-store-op-count",
	"stage-store-op-max-ns", "stage-store-op-p50-ns", "stage-store-op-p99-ns",
	"stage-wal-commit-wait-count", "stage-wal-commit-wait-max-ns",
	"stage-wal-commit-wait-p50-ns", "stage-wal-commit-wait-p99-ns",
	"stage-wal-fsync-count", "stage-wal-fsync-max-ns",
	"stage-wal-fsync-p50-ns", "stage-wal-fsync-p99-ns", "stats-epoch",
	"uptime-ms", "writes",
}

// volatileMetrics is every /metrics family, # TYPE and # HELP line of one.
var volatileMetrics = []string{
	"# HELP auditreg_build_info Daemon build info; value is always 1.",
	"# HELP auditreg_stage_duration_seconds Per-stage pipeline latency, quantized to power-of-two nanosecond buckets. Aggregate-only: no per-object or per-reader dimensions.",
	"# HELP auditreg_stage_latency_ns Quantized per-stage latency summaries (bucket upper bounds, nanoseconds).",
	"# HELP auditreg_stats_epoch Monotonic per-boot snapshot counter; a decrease between scrapes means the daemon restarted.",
	"# TYPE auditreg_announces_total counter",
	"# TYPE auditreg_audits_total counter",
	"# TYPE auditreg_build_info gauge",
	"# TYPE auditreg_conn_flushed_frames_total counter",
	"# TYPE auditreg_conn_flushes_total counter",
	"# TYPE auditreg_conns_total counter",
	"# TYPE auditreg_errors_total counter",
	"# TYPE auditreg_frames_in_total counter",
	"# TYPE auditreg_frames_out_total counter",
	"# TYPE auditreg_objects gauge",
	"# TYPE auditreg_opens_total counter",
	"# TYPE auditreg_pool_audits_total counter",
	"# TYPE auditreg_pool_sweeps_total counter",
	"# TYPE auditreg_reads_fetched_total counter",
	"# TYPE auditreg_reads_silent_total counter",
	"# TYPE auditreg_shard_depth gauge",
	"# TYPE auditreg_shard_enqueues_total counter",
	"# TYPE auditreg_shard_sheds_total counter",
	"# TYPE auditreg_shards gauge",
	"# TYPE auditreg_stage_duration_seconds histogram",
	"# TYPE auditreg_stage_latency_ns gauge",
	"# TYPE auditreg_stats_epoch gauge",
	"# TYPE auditreg_uptime_seconds gauge",
	"# TYPE auditreg_writes_total counter",
	"auditreg_announces_total", "auditreg_audits_total",
	"auditreg_build_info", "auditreg_conn_flushed_frames_total",
	"auditreg_conn_flushes_total", "auditreg_conns_total",
	"auditreg_errors_total", "auditreg_frames_in_total",
	"auditreg_frames_out_total", "auditreg_objects", "auditreg_opens_total",
	"auditreg_pool_audits_total", "auditreg_pool_sweeps_total",
	"auditreg_reads_fetched_total", "auditreg_reads_silent_total",
	"auditreg_shard_depth", "auditreg_shard_enqueues_total",
	"auditreg_shard_sheds_total", "auditreg_shards",
	"auditreg_stage_duration_seconds_bucket",
	"auditreg_stage_duration_seconds_count",
	"auditreg_stage_duration_seconds_sum", "auditreg_stage_latency_ns",
	"auditreg_stats_epoch", "auditreg_uptime_seconds",
	"auditreg_writes_total",
}

// walStats and walMetrics are what a data dir adds.
var walStats = []string{
	"wal-batches", "wal-bytes", "wal-records", "wal-rotations",
	"wal-snapshots", "wal-sync-batch-gt-64", "wal-sync-batch-le-1",
	"wal-sync-batch-le-16", "wal-sync-batch-le-2", "wal-sync-batch-le-32",
	"wal-sync-batch-le-4", "wal-sync-batch-le-64", "wal-sync-batch-le-8",
	"wal-syncs",
}

var walMetrics = []string{
	"# TYPE auditreg_wal_batches_total counter",
	"# TYPE auditreg_wal_bytes_total counter",
	"# TYPE auditreg_wal_records_total counter",
	"# TYPE auditreg_wal_rotations_total counter",
	"# TYPE auditreg_wal_snapshots_total counter",
	"# TYPE auditreg_wal_syncs_total counter",
	"auditreg_wal_batches_total",
	"auditreg_wal_bytes_total",
	"auditreg_wal_records_total",
	"auditreg_wal_rotations_total",
	"auditreg_wal_snapshots_total",
	"auditreg_wal_syncs_total",
}
