// Package persist is the durability layer of auditd: a segmented,
// append-only, CRC-framed write-ahead log over the mutations of a sharded
// store (package auditreg/store), with group commit, compacting snapshots,
// and deterministic crash recovery.
//
// # No leaks at rest
//
// PR 3 pinned the wire invariant — no transmitted frame ever carries a
// decrypted reader set. This package extends the same invariant to stable
// storage: every record body (object names, values, reader indices, sequence
// numbers — everything after the fixed CRC frame) is XOR-encrypted under a
// per-file AES-256-CTR keystream, keyed from a persist key that lives only in
// server memory, never in the data directory. A curious party with disk access, or
// a stolen snapshot, learns no more than a curious network observer: record
// counts, sizes, and types, but no reader set, no register value, no object
// name. persist's leak test sweeps the raw bytes of every file in a data
// directory for exactly the plaintext patterns a naive log would contain,
// mirroring server/leak_test.go; cmd/leakprobe and internal/attacker share
// the same scanner (ScanPlaintext).
//
// # Write path
//
// The WAL implements store.Journal[uint64]: the log is split into
// Options.Stripes independently committing stripe groups, and an object's
// mutations always land in the stripe its name hashes to (the same hash the
// store's shard map uses), so per-object record order survives the fan-out.
// Each stripe owns its segment files and a commit lock. A commit takes the
// lock, drains the stripe's append buffer, assigns that stripe's log
// sequence numbers, encrypts the batch against the active segment's
// keystream and appends it with one write; the fdatasync runs after the lock
// is let go. Under SyncAlways a blocked mutator commits its stripe itself
// unless another committer already took its record. Up to two fdatasyncs run
// per stripe; a third committer waits for one to settle and then takes
// everything queued — that is the group commit. A batch is acknowledged only
// once its own fdatasync and every earlier one on the stripe have succeeded;
// a failure is sticky. Announce and audit records ride along without ever
// causing a sync. A loop per stripe does what no waiter does: the Interval
// tick (which makes announce and audit records stable at most one Interval
// later), SyncInterval (a bounded data-loss window) and SyncNever (flushing
// left to the page cache), and the barriers — Sync, Snapshot, Close — which,
// like a rotation, first wait out the syncs in flight. Stripes contend only
// within themselves, and only SyncAlways mutators wait. Stats.SyncHist —
// surfaced through the server's STATS verb, summed across stripes —
// histograms records-per-fsync, making the batching observable.
//
// # Recovery and snapshots
//
// Recovery reads a data directory — the newest snapshot, then every sealed
// segment, then the torn tail of the active segment — into a model of each
// object's history, and replays into a fresh store the records Snapshot would
// write for it. An audit is the set of (reader, value) pairs of effective
// reads, so that compacted form is all a log has to reproduce: per object,
// one fetch per pair behind a write of the value it observed, then a write of
// the current value. Compaction orders an object by the sequence numbers
// recorded at journal time (concurrent writers may journal out of install
// order), and a fetch record stands in for the write it observed when that
// write's own record missed the final group commit — an acknowledged
// effective read is therefore never silently dropped. Anything that cannot be
// replayed exactly halts recovery with an explicit error; the only tolerated
// damage is a torn tail at the very end of the active segment.
//
// Recovery is as wide as the log: every stripe recovers on a goroutine of its
// own — its files streamed frame by frame into its own model, its crashed
// tail rewritten — and shares nothing until all have returned; their models
// are then laid end to end (an object found in two stripes' files halts) and
// their errors read in stripe order. From there the store is the only shared
// object, used as serving uses it: objects are opened one after the other, so
// the store is built in the same order every time, then compacted and
// replayed by GOMAXPROCS workers, one object's operations in sequence, while
// one more goroutine opens every stripe's first segment of the run beside
// them. What Open returns does not depend on the schedule.
//
// The active segment is preallocated a chunk ahead of its appends
// (fallocate; see openSegment), so a crashed one ends in zeros; sealing
// truncates them away, so sealed segments and snapshots are exactly their
// records. The tail reads by one rule (scanRecords): nothing but zeros is
// the clean end of the log; a last frame cut short — by the end of a file
// that grows per append (no fallocate, or an older directory), or by zeros
// running from a sector boundary inside the frame to the end of the file —
// is a torn tail, discarded and counted; a complete frame with a bad CRC
// halts even when it is the last, as does any non-zero byte after a zero
// frame header. The failure model behind the sector rule: a crash leaves each
// sector of a write whole or untouched, in order; a process kill tears
// nothing.
//
// Snapshot compacts: it seals the active segment, runs the same compaction
// over everything sealed, writes the result as a snapshot file via atomic
// rename, and deletes the covered segments and older snapshots; a log and its
// snapshot therefore recover alike. auditd triggers it on SIGHUP.
package persist

import (
	"crypto/sha256"
	"runtime"
	"time"

	"auditreg"
	"auditreg/internal/telem"
)

// Policy selects when a WAL stripe calls fdatasync.
type Policy uint8

const (
	// SyncAlways fsyncs every batch; mutations with durability semantics
	// (open, write, fetch) block until their record is stable. The paper's
	// guarantee survives kill -9: every acknowledged effective read is in
	// the log.
	SyncAlways Policy = iota
	// SyncInterval fsyncs at least every Options.Interval; mutations never
	// block on the disk. A crash loses at most one interval of
	// acknowledged operations.
	SyncInterval
	// SyncNever leaves flushing to the operating system. A crash of the
	// process alone loses nothing (the page cache survives); a machine
	// crash may lose anything unflushed.
	SyncNever
)

// String returns the policy's flag spelling.
func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return "Policy(?)"
	}
}

// ParsePolicy parses the -fsync flag spellings.
func ParsePolicy(s string) (Policy, bool) {
	switch s {
	case "always":
		return SyncAlways, true
	case "interval":
		return SyncInterval, true
	case "never":
		return SyncNever, true
	default:
		return 0, false
	}
}

// Defaults for Options fields left zero. Stripes defaults to
// runtime.GOMAXPROCS(0) — one independently committing WAL stripe per
// executor the server runs — rounded up to a power of two and capped at
// MaxStripes.
const (
	DefaultInterval     = 50 * time.Millisecond
	DefaultSegmentBytes = 64 << 20
)

// MaxStripes bounds the stripe-group count: the stripe id is rendered as two
// hex digits in file names, and 256 stripes is already far past
// any sensible configuration.
const MaxStripes = 256

// Options configures a WAL. The zero value of every field selects the
// documented default (policy SyncAlways).
type Options struct {
	// Policy selects the fsync policy (default SyncAlways).
	Policy Policy
	// Interval is the flush+fsync cadence under SyncInterval, and under
	// SyncAlways the longest announce and audit records wait for a sync
	// (default DefaultInterval).
	Interval time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default DefaultSegmentBytes).
	SegmentBytes int64
	// Stripes is the number of WAL stripe groups (default
	// runtime.GOMAXPROCS(0), rounded up to a power of two, capped at
	// MaxStripes). Each stripe owns its segment files and its commit
	// lock, so commits on distinct stripes proceed — and sync — in
	// parallel. One object's records always land in one stripe (chosen by
	// the same name hash the store's shard map uses), preserving their
	// order; per-stripe snapshots therefore always see whole per-object
	// histories.
	//
	// A non-empty data directory pins its stripe count: Open infers it
	// from the files on disk and ignores this field, so the name→stripe
	// mapping — and with it the whole-history property — survives restarts
	// under a different configuration. To restripe, compact into a fresh
	// directory.
	Stripes int
	// SyncLatency, when non-nil, receives one observation per fdatasync on
	// segment data — the wall-clock cost of making a group commit stable.
	// Each stripe observes on its own histogram stripe (by stripe id), so
	// the hook adds no contention to the sync path. Aggregate-only, like
	// all telemetry (see internal/telem).
	SyncLatency *telem.Hist
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = DefaultInterval
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.Stripes <= 0 {
		o.Stripes = runtime.GOMAXPROCS(0)
	}
	if o.Stripes > MaxStripes {
		o.Stripes = MaxStripes
	}
	n := 1
	for n < o.Stripes {
		n <<= 1
	}
	o.Stripes = n
	return o
}

// DeriveKey derives the persist key from the store master key: SHA-256 over
// a domain tag and the key, so the on-disk pad streams are disjoint from
// every pad family the store and the wire derive from the same secret. The
// derived key must be held outside the data directory — it is what makes a
// stolen data directory worthless.
func DeriveKey(storeKey auditreg.Key) auditreg.Key {
	h := sha256.New()
	h.Write([]byte("auditreg/persist/key/v1\x00"))
	h.Write(storeKey[:])
	var out auditreg.Key
	h.Sum(out[:0])
	return out
}
