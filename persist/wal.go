package persist

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"auditreg"
	"auditreg/internal/shard"
	"auditreg/internal/telem"
	"auditreg/store"
)

// lockFileName is the advisory-lock file guarding a data directory against
// two daemons. flock releases it on process death, so a kill -9 never wedges
// the directory.
const lockFileName = "wal.lock"

// preallocChunk is how far ahead of its appends a stripe allocates its active
// segment (see openSegment): 1 MiB is one file-size change per ≈ 19,000
// records instead of one per record, and 4 MiB measured the same.
const preallocChunk = 1 << 20

// pending is one record awaiting a stripe's group-commit writer; done is
// non-nil when the mutator blocks for durability (SyncAlways opens, writes,
// and fetches).
type pending struct {
	rec  Record
	done chan error
}

// encSize estimates the record's encoded frame size, for the BatchBytes
// window cutoff.
func (p *pending) encSize() int {
	return frameOverhead + 16 + len(p.rec.Name)
}

// doneChans pools the one-shot completion channels of blocking records: the
// writer sends exactly one verdict, the mutator consumes it and returns the
// empty channel — so a blocking mutation costs no channel allocation at
// steady state.
var doneChans = sync.Pool{New: func() any { return make(chan error, 1) }}

// SyncHistBuckets is the number of buckets of the group-commit batch-size
// histogram: records per fsync, in power-of-two buckets ≤1, ≤2, ≤4, ...,
// ≤64, and a final overflow bucket.
const SyncHistBuckets = 8

// syncBucket maps a records-per-fsync count to its histogram bucket.
func syncBucket(n int) int {
	if n < 1 {
		n = 1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n)
	if b >= SyncHistBuckets {
		b = SyncHistBuckets - 1
	}
	return b
}

// WAL is the write-ahead log over one data directory: Options.Stripes
// independently committing stripe groups, each with its own segment files,
// writer goroutine, adaptive commit window, and pipelined fsync. An object's
// records always land in the stripe its name hashes to, so per-object order
// — the property recovery and snapshots rely on — survives the fan-out.
//
// It implements store.Journal[uint64]: attach it with store.Store.SetJournal
// (after recovery) or store.WithJournal (fresh store). Construct with Open;
// all methods are safe for concurrent use.
type WAL struct {
	dir  string
	key  auditreg.Key
	opts Options

	// seqBase maps each recovered object to the highest sequence number
	// its on-disk records carry. Replay renumbers in-memory sequence
	// numbers from 1 (compaction and synthesis drop unobservable writes),
	// so journaled seqs are shifted above the base to keep every object's
	// on-disk seqs strictly increasing across process generations —
	// otherwise a later recovery would see two different writes claiming
	// one seq and halt on perfectly healthy data. Built once before the
	// writers start; read-only afterwards.
	seqBase map[string]uint64

	lock   *os.File
	groups []*walStripe
	gmask  uint64

	stopc  chan struct{} // closed by Close: broadcast to every stripe
	killc  chan struct{} // closed by abandon: crash simulation
	closed atomic.Bool

	// failed is the sticky failure, shared across stripes: one stripe
	// losing its disk poisons the whole log, exactly as the single-writer
	// WAL did — a partially durable log must not keep acknowledging.
	failed atomic.Pointer[error]

	snapMu sync.Mutex // serializes Snapshot
	snaps  atomic.Uint64
}

// walStripe is one stripe group: an append buffer, a writer goroutine
// (run), a sync goroutine (syncLoop), and the stripe's own segment files and
// LSN space.
type walStripe struct {
	id   int
	dir  string
	key  auditreg.Key
	opts Options

	// Shared WAL state (see WAL): sticky failure, close/crash broadcast.
	failed *atomic.Pointer[error]
	closed *atomic.Bool
	stopc  chan struct{}
	killc  chan struct{}

	// The append buffer.
	mu   sync.Mutex
	recs []pending

	notify   chan struct{}
	rotatec  chan chan rotateReply
	flushc   chan chan error
	done     chan struct{}
	syncc    chan syncJob // writer → sync goroutine (unbuffered; one job in flight)
	syncack  chan syncAck // sync goroutine → writer (buffered; never blocks the syncer)
	syncdone chan struct{}

	// waiters counts blocking mutators whose records this stripe's writer
	// has not yet committed (incremented on entry to append, decremented
	// when the record completes). The adaptive commit window compares it
	// against the blocking records already drained: while more waiters are
	// known to be in flight on this stripe, holding the fsync open a little
	// longer absorbs them into the same batch.
	waiters atomic.Int64

	// Writer-goroutine state; untouched by other goroutines.
	active      *os.File
	activeNonce [fileNonceLen]byte
	activePads  padStream
	activeBase  uint64
	activeSize  int64
	activeAlloc int64 // preallocated size of the active file; 0 when it grows with every append
	nextLSN     uint64
	lastSync    time.Time
	dirty       bool      // appended records not yet covered by an issued fsync
	cur         []pending // batch buffer for the next drain
	spare       []pending // second batch buffer (ping-pong with the in-flight job)
	encBuf      []byte    // reused frame encode buffer
	sinceSync   int       // records appended since the last issued fsync
	blockSync   int       // blocking records appended since the last issued fsync
	inFlight    bool      // a syncJob is with the sync goroutine

	// cohort is the EWMA of blocking records per fsync on this stripe —
	// the concurrency estimate steering the adaptive window. Written by the
	// sync goroutine, read by the writer (absorb); float bits in an atomic
	// word.
	cohort atomic.Uint64

	records   atomic.Uint64
	batches   atomic.Uint64
	syncs     atomic.Uint64
	rotations atomic.Uint64
	bytes     atomic.Uint64
	syncHist  [SyncHistBuckets]atomic.Uint64
}

type rotateReply struct {
	cutLSN uint64
	err    error
}

var (
	_ store.Journal[uint64]      = (*WAL)(nil)
	_ store.AsyncJournal[uint64] = (*WAL)(nil)
)

// lockDir takes the directory's advisory lock.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockFileName), os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: data dir %s is locked by another process: %w", dir, err)
	}
	return f, nil
}

// newStripe builds one stripe group wired to the WAL's shared state. The
// caller sets nextLSN and opens the active segment before starting the
// goroutines (start).
func newStripe(w *WAL, id int) *walStripe {
	return &walStripe{
		id:       id,
		dir:      w.dir,
		key:      w.key,
		opts:     w.opts,
		failed:   &w.failed,
		closed:   &w.closed,
		stopc:    w.stopc,
		killc:    w.killc,
		notify:   make(chan struct{}, 1),
		rotatec:  make(chan chan rotateReply),
		flushc:   make(chan chan error),
		done:     make(chan struct{}),
		syncc:    make(chan syncJob),
		syncack:  make(chan syncAck, 1),
		syncdone: make(chan struct{}),
		cur:      make([]pending, 0, 64),
		spare:    make([]pending, 0, 64),
		nextLSN:  1,
	}
}

// start launches the stripe's writer and sync goroutines.
func (s *walStripe) start() {
	s.lastSync = time.Now()
	go s.run()
	go s.syncLoop()
}

// stripeOf picks the stripe group for an object name, hashing exactly as the
// store's shard map does.
func (w *WAL) stripeOf(name string) *walStripe {
	return w.groups[shard.Hash(name)&w.gmask]
}

// append encodes the mutation and appends it to the name's stripe, returning
// the stripe and the completion channel for blocking records (nil
// otherwise). Shared core of Record and RecordAsync.
func (w *WAL) append(r *store.JournalRecord[uint64]) (*walStripe, chan error, error) {
	if err := w.err(); err != nil {
		return nil, nil, err
	}
	rec := fromJournal(r)
	if rec.Op == 0 {
		return nil, nil, fmt.Errorf("persist: unknown journal op %d", r.Op)
	}
	if len(r.Name) > maxName {
		// Refuse rather than write a frame the decoder must reject: one
		// oversized record would make every future recovery halt.
		return nil, nil, fmt.Errorf("persist: object name of %d bytes exceeds %d", len(r.Name), maxName)
	}
	if base := w.seqBase[r.Name]; base > 0 {
		switch rec.Op {
		case OpFetch, OpAnnounce:
			rec.Seq += base
		case OpWrite:
			if rec.Seq > 0 { // register installs; max-register writes carry no seq
				rec.Seq += base
			}
		}
	}
	blocking := w.opts.Policy == SyncAlways &&
		(rec.Op == OpOpen || rec.Op == OpWrite || rec.Op == OpFetch)
	p := pending{rec: rec}
	s := w.stripeOf(r.Name)
	if blocking {
		p.done = doneChans.Get().(chan error)
		s.waiters.Add(1)
	}
	s.mu.Lock()
	// Re-check under the stripe lock: the writer's final drain on stopc
	// takes this lock after Close sets closed, so a record appended while
	// closed is still false here is guaranteed to be in that drain — no
	// record can be acknowledged and then stranded in a buffer.
	if w.closed.Load() {
		s.mu.Unlock()
		if blocking {
			s.waiters.Add(-1)
			doneChans.Put(p.done)
		}
		return nil, nil, fmt.Errorf("persist: wal is closed")
	}
	s.recs = append(s.recs, p)
	s.mu.Unlock()
	s.kick()
	return s, p.done, nil
}

// wait collects the durability verdict of one appended blocking record.
func (s *walStripe) wait(done chan error) error {
	select {
	case err := <-done:
		doneChans.Put(done)
		return err
	case <-s.done:
		// The writer exited (Close racing this append). It may still have
		// committed the record in its final drain; prefer that verdict.
		select {
		case err := <-done:
			doneChans.Put(done)
			return err
		default:
			// The channel may yet receive a late verdict; let it go to the
			// collector instead of poisoning the pool.
			return fmt.Errorf("persist: wal closed before the record committed")
		}
	}
}

// Record implements store.Journal: encode the mutation, append it to the
// name's stripe, and — under SyncAlways, for records with durability
// semantics — block until that stripe's group-commit writer reports the
// record stable. Announce and audit records never block: they are pure
// helping and derived state.
func (w *WAL) Record(r store.JournalRecord[uint64]) error {
	s, done, err := w.append(&r)
	if err != nil || done == nil {
		return err
	}
	return s.wait(done)
}

// RecordAsync implements store.AsyncJournal: append like Record, but hand
// the durability wait back to the caller as a commit closure, so a
// pipelined caller (the network server) can keep executing requests while
// the stripe's group-commit writer absorbs every in-flight mutation — the
// whole pending buffer — into one fsync.
func (w *WAL) RecordAsync(r store.JournalRecord[uint64]) (func() error, error) {
	s, done, err := w.append(&r)
	if err != nil || done == nil {
		return nil, err
	}
	return func() error { return s.wait(done) }, nil
}

// err returns the sticky failure, if any.
func (w *WAL) err() error {
	if w.closed.Load() {
		return fmt.Errorf("persist: wal is closed")
	}
	if e := w.failed.Load(); e != nil {
		return *e
	}
	return nil
}

// kick nudges the stripe's writer without blocking.
func (s *walStripe) kick() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// syncJob is one batch handed to the sync goroutine: fsync fd, then
// complete the batch's waiters. records/blocking carry the counts since the
// previous issued fsync, for the histogram and the cohort estimate.
type syncJob struct {
	fd       *os.File
	batch    []pending
	records  int
	blocking int
}

// syncAck returns the fsync verdict and the job's batch buffer (for the
// writer's ping-pong reuse).
type syncAck struct {
	err error
	buf []pending
}

// run is the stripe's group-commit writer: drain the append buffer, hold the
// adaptive commit window open while the blocked-mutator cohort is still
// arriving, assign LSNs, encrypt the batch against the active segment's pad
// stream, and append. Under SyncAlways the fsync itself is pipelined: a
// dedicated sync goroutine (syncLoop) carries at most one fsync in flight
// while this goroutine keeps draining and appending the next batch — the
// ZooKeeper-style batched-fsync pipeline, where the next group forms for
// free during the previous group's fsync and the commit cycle is max(fsync,
// arrivals) rather than their sum. Other policies fsync inline, as does
// every barrier path (rotate, flush, close).
func (s *walStripe) run() {
	defer close(s.done)
	defer close(s.syncc)
	tick := time.NewTicker(s.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-s.killc:
			// Crash simulation (tests): stop dead, no drain, no seal.
			return
		case <-s.stopc:
			s.syncBarrier()
			batch := s.drain(s.cur)
			s.commitInline(batch, true)
			s.sealActive()
			return
		case reply := <-s.rotatec:
			s.syncBarrier()
			batch := s.drain(s.cur)
			s.commitInline(batch, true)
			s.cur = batch[:0]
			var rr rotateReply
			rr.err = s.rotate()
			rr.cutLSN = s.activeBase
			if e := s.failed.Load(); rr.err == nil && e != nil {
				rr.err = *e
			}
			reply <- rr
		case reply := <-s.flushc:
			s.syncBarrier()
			batch := s.drain(s.cur)
			s.commitInline(batch, true)
			s.cur = batch[:0]
			var err error
			if e := s.failed.Load(); e != nil {
				err = *e
			}
			reply <- err
		case <-s.notify:
			if s.opts.Policy == SyncAlways {
				s.pipelineCommit()
			} else {
				// Not forced: commit syncs exactly when the interval is due.
				batch := s.drain(s.cur)
				s.commitInline(batch, false)
				s.cur = batch[:0]
			}
		case <-tick.C:
			// Flush leftovers (announce records appended since the last
			// sync) so helping state lags stability by at most one interval.
			s.syncBarrier()
			batch := s.drain(s.cur)
			s.commitInline(batch, s.opts.Policy == SyncAlways)
			s.cur = batch[:0]
		}
	}
}

// pipelineCommit handles one notify wakeup under SyncAlways: drain, keep
// absorbing arrivals for as long as the in-flight fsync forms a free commit
// window (bounded by BatchBytes), optionally top the batch up to the
// predicted cohort (absorb), then append and hand off. A shutdown or crash
// signal parks the batch on s.cur for the outer loop to finish.
func (s *walStripe) pipelineCommit() {
	batch := s.drain(s.cur)
	approx := batchBytes(batch)
	for s.inFlight && approx < s.opts.BatchBytes {
		select {
		case <-s.notify:
			before := len(batch)
			batch = s.drain(batch)
			for i := before; i < len(batch); i++ {
				approx += batch[i].encSize()
			}
		case ack := <-s.syncack:
			s.inFlight = false
			s.spare = ack.buf[:0]
		case <-s.stopc:
			s.cur = batch
			return
		case <-s.killc:
			s.cur = batch
			return
		}
	}
	batch = s.absorb(batch)
	s.commitPipelined(batch)
}

// syncLoop is the fsync half of the pipelined group commit: one job at a
// time, fsync, publish the batching telemetry, wake the job's waiters,
// hand the buffer back.
func (s *walStripe) syncLoop() {
	defer close(s.syncdone)
	for job := range s.syncc {
		t0 := telem.Now()
		err := fdatasync(job.fd)
		if h := s.opts.SyncLatency; h != nil {
			h.Observe(uint64(s.id), telem.Now()-t0)
		}
		if err != nil {
			err = fmt.Errorf("persist: wal fsync: %w", err)
			s.failed.CompareAndSwap(nil, &err)
			s.fail(job.batch, err)
		} else {
			s.syncs.Add(1)
			s.syncHist[syncBucket(job.records)].Add(1)
			if job.blocking > 0 {
				s.setCohort(0.75*s.cohortEstimate() + 0.25*float64(job.blocking))
			}
			for i := range job.batch {
				if job.batch[i].done != nil {
					s.waiters.Add(-1)
					job.batch[i].done <- nil
				}
			}
		}
		s.syncack <- syncAck{err: err, buf: job.batch}
	}
}

// syncBarrier waits out the in-flight fsync, if any, reclaiming its batch
// buffer. Every non-pipelined touch of the active file (inline sync,
// rotation, seal) starts here.
func (s *walStripe) syncBarrier() {
	if !s.inFlight {
		return
	}
	ack := <-s.syncack
	s.inFlight = false
	s.spare = ack.buf[:0]
}

// cohortEstimate and setCohort move the concurrency EWMA across the
// writer/syncer boundary.
func (s *walStripe) cohortEstimate() float64 { return math.Float64frombits(s.cohort.Load()) }
func (s *walStripe) setCohort(v float64)     { s.cohort.Store(math.Float64bits(v)) }

// drain steals the stripe's pending records, appending them to batch (a
// reused buffer).
func (s *walStripe) drain(batch []pending) []pending {
	s.mu.Lock()
	if len(s.recs) > 0 {
		batch = append(batch, s.recs...)
		s.recs = s.recs[:0]
	}
	s.mu.Unlock()
	return batch
}

// blockingRecords counts the batch's records with waiters attached.
func blockingRecords(batch []pending) int {
	n := 0
	for i := range batch {
		if batch[i].done != nil {
			n++
		}
	}
	return n
}

// absorb is the adaptive commit window: hold the fsync open — up to
// BatchDelay, bounded by BatchBytes — while the blocked-mutator cohort is
// still arriving, so one fsync covers it whole. Two signals open the
// window: waiters the writer can already see (blocking mutators in flight
// on this stripe beyond the batch), and the cohort EWMA — the recent
// blocking-records-per-fsync average — which predicts the stragglers it
// cannot see yet: under concurrency, a record that lands right after a sync
// would otherwise commit alone, and the next conn's record half a
// round-trip behind it would buy a second fsync. The window closes as soon
// as the batch reaches the predicted cohort with no further waiters in
// flight; with a single steady mutator the EWMA decays to one and the
// window stops opening at all — an uncontended stripe adds no latency.
// Shutdown and crash signals abort the window.
func (s *walStripe) absorb(batch []pending) []pending {
	nb := blockingRecords(batch)
	if s.opts.BatchDelay <= 0 || nb == 0 {
		return batch
	}
	target := int(s.cohortEstimate() + 0.5)
	if int64(nb) >= s.waiters.Load() && nb >= target {
		return batch
	}
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	approx := batchBytes(batch)
	for approx < s.opts.BatchBytes {
		if timer == nil {
			timer = time.NewTimer(s.opts.BatchDelay)
		}
		select {
		case <-s.notify:
			before := len(batch)
			batch = s.drain(batch)
			for i := before; i < len(batch); i++ {
				if batch[i].done != nil {
					nb++
				}
				approx += batch[i].encSize()
			}
			if int64(nb) >= s.waiters.Load() && nb >= target {
				return batch
			}
		case <-timer.C:
			return batch
		case <-s.stopc:
			return batch
		case <-s.killc:
			return batch
		}
	}
	return batch
}

// batchBytes estimates the encoded size of a batch.
func batchBytes(batch []pending) int {
	n := 0
	for i := range batch {
		n += batch[i].encSize()
	}
	return n
}

// appendBatch encodes the batch into the reused frame buffer and appends it
// to the active segment with one write, rotating first when the segment is
// over size (callers on the pipelined path have already barriered) and
// preallocating another chunk first when the write would cross the
// allocation.
func (s *walStripe) appendBatch(batch []pending) error {
	if len(batch) == 0 {
		return nil
	}
	if s.activeSize > s.opts.SegmentBytes {
		if err := s.rotate(); err != nil {
			return err
		}
	}
	buf := s.encBuf[:0]
	for i := range batch {
		buf = appendFrame(buf, s.activePads, s.activeSize+int64(len(buf)), s.nextLSN, &batch[i].rec)
		s.nextLSN++
	}
	s.encBuf = buf
	if need := s.activeSize + int64(len(buf)); s.activeAlloc > 0 && need > s.activeAlloc {
		if err := s.reserve(s.active, need); err != nil {
			return err
		}
	}
	n, err := s.active.Write(buf)
	s.activeSize += int64(n)
	s.bytes.Add(uint64(n))
	if err != nil {
		return err
	}
	s.dirty = true
	s.sinceSync += len(batch)
	s.blockSync += blockingRecords(batch)
	s.records.Add(uint64(len(batch)))
	s.batches.Add(1)
	return nil
}

// commitPipelined is the SyncAlways notify path: append the batch, and —
// when it carries waiters — hand it to the sync goroutine. The barrier
// before the handoff keeps exactly one fsync in flight per stripe;
// everything appended before the handoff is covered by the fsync it
// triggers (the syscall is issued strictly after the writes). A batch with
// no waiters appends without syncing: pure helping never pays for, or
// causes, a sync. The writer reclaims the previous job's buffer at the
// barrier, so two batch buffers ping-pong between the halves with no
// allocation.
func (s *walStripe) commitPipelined(batch []pending) {
	if e := s.failed.Load(); e != nil {
		s.fail(batch, *e)
		s.cur = batch[:0]
		return
	}
	rotating := len(batch) > 0 && s.activeSize > s.opts.SegmentBytes
	if rotating || blockingRecords(batch) > 0 {
		// The in-flight fsync must finish before we seal its file or issue
		// the next one.
		s.syncBarrier()
	}
	if err := s.appendBatch(batch); err != nil {
		err = fmt.Errorf("persist: wal append: %w", err)
		s.failed.CompareAndSwap(nil, &err)
		s.fail(batch, err)
		s.cur = batch[:0]
		return
	}
	if blockingRecords(batch) == 0 {
		s.cur = batch[:0] // keep the buffer; nobody waits
		return
	}
	s.syncc <- syncJob{fd: s.active, batch: batch, records: s.sinceSync, blocking: s.blockSync}
	s.inFlight = true
	s.dirty = false // the issued fsync covers everything appended so far
	s.sinceSync, s.blockSync = 0, 0
	s.cur = s.spare[:0]
	s.spare = nil
}

// commitInline writes one batch to the active segment and fsyncs when the
// policy (or force) calls for it, then completes the batch's waiters — the
// non-pipelined path, used by the Interval/Never policies and by every
// barrier (rotate, flush, close, tick leftovers). Pipelined callers
// syncBarrier first.
func (s *walStripe) commitInline(batch []pending, force bool) {
	if e := s.failed.Load(); e != nil {
		s.fail(batch, *e)
		return
	}
	err := s.appendBatch(batch)
	if err == nil && s.dirty {
		sync := force
		if !sync {
			switch s.opts.Policy {
			case SyncAlways:
				// Whatever drained this batch (notify, tick), a waiter must
				// never be released before its record is stable.
				sync = blockingRecords(batch) > 0
			case SyncInterval:
				if time.Since(s.lastSync) >= s.opts.Interval {
					sync = true
				}
			}
		}
		if sync {
			t0 := telem.Now()
			err = fdatasync(s.active)
			if h := s.opts.SyncLatency; h != nil {
				h.Observe(uint64(s.id), telem.Now()-t0)
			}
			if err == nil {
				s.dirty = false
				s.lastSync = time.Now()
				s.syncs.Add(1)
				s.syncHist[syncBucket(s.sinceSync)].Add(1)
				if s.blockSync > 0 {
					// Update the concurrency estimate from syncs that carried
					// waiters (tick-driven announce flushes say nothing about
					// mutator concurrency).
					s.setCohort(0.75*s.cohortEstimate() + 0.25*float64(s.blockSync))
				}
				s.sinceSync, s.blockSync = 0, 0
			}
		}
	}
	if err != nil {
		err = fmt.Errorf("persist: wal append: %w", err)
		s.failed.CompareAndSwap(nil, &err)
		s.fail(batch, err)
		return
	}
	for i := range batch {
		if batch[i].done != nil {
			s.waiters.Add(-1)
			batch[i].done <- nil
		}
	}
}

// fail completes a batch's waiters with err.
func (s *walStripe) fail(batch []pending, err error) {
	for i := range batch {
		if batch[i].done != nil {
			s.waiters.Add(-1)
			batch[i].done <- err
		}
	}
}

// rotate seals the active segment and opens a fresh one whose base is the
// next LSN, making its directory entry durable before anything is appended.
func (s *walStripe) rotate() error {
	if err := s.sealActive(); err != nil {
		return err
	}
	if err := s.openSegment(s.nextLSN); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.rotations.Add(1)
	return nil
}

// reserve preallocates f, the stripe's active segment, up to the first whole
// chunk that holds need bytes — a chunk being preallocChunk, or SegmentBytes
// where that is smaller. A filesystem without fallocate leaves activeAlloc 0:
// the segment grows with every append, decided once per segment.
func (s *walStripe) reserve(f *os.File, need int64) error {
	chunk := min(preallocChunk, s.opts.SegmentBytes)
	alloc := (need + chunk - 1) / chunk * chunk
	ok, err := preallocate(f, alloc)
	if !ok {
		alloc = 0
	}
	s.activeAlloc = alloc
	return err
}

// sealActive cuts the preallocated padding off the active segment, appends
// the seal record, fsyncs, and closes it: a sealed file is exactly its
// records. Truncating first means no crash leaves bytes after a seal; a kill
// between the two leaves an unsealed segment without padding.
func (s *walStripe) sealActive() error {
	if s.active == nil {
		return nil
	}
	if e := s.failed.Load(); e != nil {
		// A sticky failure may have left a partial frame at the tail.
		// Appending a valid seal after it would turn auto-repairable torn
		// damage into hard corruption the next recovery must refuse; leave
		// the segment unsealed and let recovery truncate the tail.
		err := s.active.Close()
		s.active = nil
		s.dirty = false
		return err
	}
	if err := s.active.Truncate(s.activeSize); err != nil {
		return err
	}
	seal := Record{Op: OpSeal}
	buf := appendFrame(s.encBuf[:0], s.activePads, s.activeSize, s.nextLSN, &seal)
	s.nextLSN++
	n, err := s.active.Write(buf)
	s.activeSize += int64(n)
	if err != nil {
		return err
	}
	if err := s.active.Sync(); err != nil {
		return err
	}
	err = s.active.Close()
	s.active = nil
	s.dirty = false
	return err
}

// openSegment creates and syncs a fresh active segment with the given base
// LSN, deriving the segment's pad stream from its header nonce. The file is
// preallocated a chunk ahead (reserve): appends land inside its size, so the
// fdatasync behind every acknowledgement flushes data only, where a growing
// file has it commit a new size through the filesystem journal each time.
// The caller syncs the directory (rotate; open once for all stripes).
func (s *walStripe) openSegment(base uint64) error {
	hdr, nonce, err := newHeader(segMagic, base)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(s.dir, segmentName(s.id, base)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return err
	}
	if err := s.reserve(f, headerLen); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	s.active = f
	s.activeNonce = nonce
	s.activePads = newPadStream(s.key, &nonce)
	s.activeBase = base
	s.activeSize = headerLen
	return nil
}

// Sync forces everything appended so far onto stable storage, regardless of
// policy: drain, write, fsync, on every stripe. It returns once the whole
// log is stable.
func (w *WAL) Sync() error {
	if err := w.err(); err != nil {
		return err
	}
	var first error
	for _, s := range w.groups {
		reply := make(chan error, 1)
		select {
		case s.flushc <- reply:
			if err := <-reply; err != nil && first == nil {
				first = err
			}
		case <-s.done:
			if err := w.err(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Close drains and seals every stripe, then releases the directory lock.
// The WAL is unusable afterwards; a clean Close leaves every segment
// sealed, so the next recovery finds no torn tail.
func (w *WAL) Close() error {
	if !w.closed.CompareAndSwap(false, true) {
		w.join()
		return nil
	}
	close(w.stopc)
	w.join()
	var err error
	if e := w.failed.Load(); e != nil {
		err = *e
	}
	if w.lock != nil {
		syscall.Flock(int(w.lock.Fd()), syscall.LOCK_UN)
		w.lock.Close()
	}
	return err
}

// join waits for every stripe's writer and sync goroutine to exit.
func (w *WAL) join() {
	for _, s := range w.groups {
		<-s.done
		<-s.syncdone
	}
}

// abandon simulates kill -9 for in-process tests: every stripe's writer
// stops without draining its buffer or sealing its active segment, and the
// directory lock is released so the "restarted" process can take it.
// Everything the OS already has (every completed Write syscall) stays on
// disk, exactly as after a real SIGKILL on one machine.
func (w *WAL) abandon() {
	if !w.closed.CompareAndSwap(false, true) {
		w.join()
		return
	}
	close(w.killc)
	w.join() // in-flight fsyncs finish before the fds close
	for _, s := range w.groups {
		if s.active != nil {
			s.active.Close()
			s.active = nil
		}
	}
	if w.lock != nil {
		syscall.Flock(int(w.lock.Fd()), syscall.LOCK_UN)
		w.lock.Close()
	}
}

// Stats is a point-in-time snapshot of the WAL's counters, summed across
// stripes.
type Stats struct {
	Stripes   int    // stripe groups (pinned by the data directory)
	Records   uint64 // records appended
	Batches   uint64 // group commits
	Syncs     uint64 // fsync calls on segment data
	Rotations uint64 // segment rotations
	Snapshots uint64 // snapshots taken
	Bytes     uint64 // record bytes appended
	// SyncHist is the group-commit batch-size histogram: SyncHist[i] counts
	// fsyncs that made ≤ 2^i records stable (the last bucket collects
	// everything larger), summed across stripes so the series reads the
	// same whether the log runs one stripe or sixteen. It is the direct
	// observable behind the batching claim: a healthy concurrent workload
	// piles its mass in the upper buckets.
	SyncHist [SyncHistBuckets]uint64
}

// Stats returns the WAL's counters.
func (w *WAL) Stats() Stats {
	st := Stats{
		Stripes:   len(w.groups),
		Snapshots: w.snaps.Load(),
	}
	for _, s := range w.groups {
		// Load numerators before their denominators so a snapshot taken
		// mid-traffic can't tear the derived ratios the wrong way: a sync is
		// counted only after its records are, so syncs/records from one
		// snapshot never exceeds what the stripe actually did.
		st.Syncs += s.syncs.Load()
		st.Batches += s.batches.Load()
		st.Records += s.records.Load()
		st.Rotations += s.rotations.Load()
		st.Bytes += s.bytes.Load()
		for i := range st.SyncHist {
			st.SyncHist[i] += s.syncHist[i].Load()
		}
	}
	return st
}
