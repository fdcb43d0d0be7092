// Package telem is the zero-allocation telemetry core of the auditd stack:
// fixed-bucket log-scale latency histograms with per-shard striped atomic
// counters, mergeable snapshots, and a monotonic nanosecond clock — the
// primitives behind the per-stage pipeline tracing the server, the WAL, and
// the client thread through their hot paths.
//
// # Leak contract
//
// Telemetry is itself an observable channel — the E18 lab's metrics
// observer attacks it — so the package enforces the shape that keeps it
// safe by construction: everything is aggregate-only. A histogram carries
// no per-object, per-reader, or per-connection dimension, and its buckets
// are quantized to powers of two, so one observation moves one anonymous
// bucket counter and nothing else. Consumers (the STATS frame, the
// Prometheus endpoint) must only ever export these aggregates; the
// invariant is pinned by the leak-gate's metrics observer (see DESIGN.md,
// "Observability").
//
// # Hot-path discipline
//
// Observe is two atomic adds on a caller-striped shard — no locks, no
// allocation, no time.Time. Callers timestamp with Now (a monotonic int64,
// alloc-free) and carry the start through the pooled request structs they
// already own. Snapshots merge the stripes; they are the only readers of
// the bucket arrays.
package telem

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of every histogram: bucket i counts
// observations v (in nanoseconds) with 2^(i-1) < v <= 2^i, i.e. the bucket's
// upper bound is 2^i ns. Bucket 0 holds v <= 1ns, the last bucket collects
// everything above ~2^38 ns (≈ 4.6 minutes) — far beyond any request stage.
const NumBuckets = 40

// bucketOf maps an observation to its bucket: ceil(log2 v), clamped.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1)) // ceil(log2 v)
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// BucketBound returns bucket i's upper bound in nanoseconds. The last
// bucket is unbounded; its nominal bound (2^(NumBuckets-1) ns) is what
// quantile estimates report for mass that lands there.
func BucketBound(i int) uint64 { return 1 << uint(i) }

// histShard is one stripe of a histogram, padded out to a whole number of
// cache lines so two stripes never false-share. (40+1)*8 = 328 bytes of
// counters + 56 pad = 384 = 6 lines.
type histShard struct {
	buckets [NumBuckets]atomic.Uint64
	sum     atomic.Uint64
	_       [56]byte
}

// Hist is a striped fixed-bucket latency histogram. Construct with NewHist;
// all methods are safe for concurrent use.
type Hist struct {
	shards []histShard
	mask   uint64
}

// NewHist returns a histogram with the given stripe count, rounded up to a
// power of two (n <= 0 selects GOMAXPROCS). Pick one stripe per writer
// (executor index, connection slot) so hot-path observes never contend.
func NewHist(n int) *Hist {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return &Hist{shards: make([]histShard, p), mask: uint64(p - 1)}
}

// Observe records one duration (nanoseconds; negative clamps to zero) on the
// given stripe — any uint64 the caller has handy (executor index, connection
// slot, even the observation's own start timestamp); it is masked into
// range. Two atomic adds, no allocation.
func (h *Hist) Observe(stripe uint64, v int64) {
	if v < 0 {
		v = 0
	}
	s := &h.shards[stripe&h.mask]
	s.buckets[bucketOf(v)].Add(1)
	s.sum.Add(uint64(v))
}

// Snapshot is a point-in-time merge of a histogram's stripes (or of several
// histograms — see Merge). The zero value is an empty snapshot.
type Snapshot struct {
	Buckets [NumBuckets]uint64
	Count   uint64 // total observations (sum over Buckets)
	Sum     uint64 // total nanoseconds observed
}

// Snapshot merges the stripes into one snapshot. Counters are loaded
// independently (they only ever grow), so a snapshot taken mid-Observe may
// be one count ahead of its sum — bounded skew, never a torn ratio the
// wrong way: buckets are loaded before sums, so Sum can only include
// observations Count already saw.
func (h *Hist) Snapshot() Snapshot {
	var out Snapshot
	for i := range h.shards {
		s := &h.shards[i]
		for b := range s.buckets {
			out.Buckets[b] += s.buckets[b].Load()
		}
	}
	for i := range h.shards {
		out.Sum += h.shards[i].sum.Load()
	}
	for _, n := range out.Buckets {
		out.Count += n
	}
	return out
}

// Merge folds o into s.
func (s *Snapshot) Merge(o Snapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Quantile returns the q-quantile (0 <= q <= 1) as the upper bound of the
// bucket the quantile lands in — deliberately quantized: the histogram never
// resolves an individual observation, so neither can anything exported from
// it. Returns 0 for an empty snapshot.
func (s *Snapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum > rank {
			return BucketBound(i)
		}
	}
	return BucketBound(NumBuckets - 1)
}

// Max returns the upper bound of the highest non-empty bucket — the
// quantized maximum. Returns 0 for an empty snapshot.
func (s *Snapshot) Max() uint64 {
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			return BucketBound(i)
		}
	}
	return 0
}

// Registry is a named set of stage histograms, snapshotted together: the
// STATS frame and the Prometheus endpoint both read one registry, so every
// exporter sees the same stage taxonomy. Construct with NewRegistry.
type Registry struct {
	mu     sync.Mutex
	stages map[string]*Hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{stages: make(map[string]*Hist)}
}

// Stage returns the named stage's histogram, creating it with the given
// stripe count on first use. Registration is cheap but not hot-path; callers
// hold the returned *Hist and Observe on it directly.
func (r *Registry) Stage(name string, stripes int) *Hist {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.stages[name]
	if !ok {
		h = NewHist(stripes)
		r.stages[name] = h
	}
	return h
}

// StageSnapshot is one named stage's snapshot.
type StageSnapshot struct {
	Name string
	Snapshot
}

// Snapshot snapshots every registered stage, sorted by name.
func (r *Registry) Snapshot() []StageSnapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.stages))
	hists := make([]*Hist, 0, len(r.stages))
	for name := range r.stages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		hists = append(hists, r.stages[name])
	}
	r.mu.Unlock()
	out := make([]StageSnapshot, len(names))
	for i := range names {
		out[i] = StageSnapshot{Name: names[i], Snapshot: hists[i].Snapshot()}
	}
	return out
}

// base anchors Now: time.Since reads the monotonic clock without
// allocating, and an int64 of nanoseconds-since-boot is what the pooled
// request structs carry through the pipeline.
var base = time.Now()

// Now returns a monotonic timestamp in nanoseconds, suitable only for
// differencing against other Now values. It never allocates.
func Now() int64 { return int64(time.Since(base)) }
