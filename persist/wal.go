package persist

import (
	"fmt"
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

// maxSyncs bounds the fdatasyncs in flight on one stripe: the second one
// buys the most overlap, and each one in flight is a batch nothing can join
// (EXPERIMENTS.md, E39).
const maxSyncs = 2

var syncData = fdatasync // tests swap it to fail one sync of several

// pending is one record awaiting its stripe's next commit; t is non-nil
// when the mutator blocks for durability (SyncAlways opens, writes, and
// fetches).
type pending struct {
	rec Record
	t   *ticket
}

// ticket is a blocking record's store.Verdict: whoever commits the record
// sends exactly one verdict on c, and Wait consumes it and returns the ticket
// to the pool, so a blocking mutation allocates nothing at steady state.
type ticket struct {
	c chan error
	s *walStripe // the record's stripe
}

var tickets = sync.Pool{New: func() any { return &ticket{c: make(chan error, 1)} }}

// Wait implements store.Verdict. Unless its verdict has already arrived, the
// waiter commits the stripe itself. The ticket is recycled by the time Wait
// returns.
func (t *ticket) Wait() error {
	if len(t.c) == 0 {
		t.s.commit(false)
	}
	err := <-t.c
	tickets.Put(t)
	return err
}

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
// independently committing stripe groups, each with its own segment files
// and commit lock (walStripe). An object's records always land
// in the stripe its name hashes to, so per-object order — the property
// recovery and snapshots rely on — survives the fan-out.
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
	// stripes start; read-only afterwards.
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

// walStripe is one stripe group: an append buffer, a commit lock, a loop
// (run), and the stripe's own segment files and LSN space.
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

	// The append buffer, and the batch buffers committers drain it into.
	mu    sync.Mutex
	recs  []pending
	spare [][]pending

	notify  chan struct{}
	rotatec chan chan rotateReply
	flushc  chan chan error
	done    chan struct{}

	// cmu is the commit lock: its holder writes a batch, rotates or seals,
	// and owns the fields below.
	cmu         sync.Mutex
	active      *os.File
	activePads  padStream
	activeBase  uint64
	activeSize  int64
	activeAlloc int64 // preallocated size of the active file; 0 when it grows with every append
	nextLSN     uint64
	lastSync    time.Time
	dirty       bool   // appended records not yet covered by an fdatasync
	encBuf      []byte // reused frame encode buffer
	sinceSync   int    // records appended since the last fdatasync began

	// Guarded by smu: fdatasyncs begun (under cmu too) and settled, the
	// latter in the order they began; settledc signals each settle.
	smu      sync.Mutex
	settledc sync.Cond
	issued   uint64
	settled  uint64

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
// caller sets nextLSN and opens the active segment before start.
func newStripe(w *WAL, id int) *walStripe {
	s := &walStripe{
		id:      id,
		dir:     w.dir,
		key:     w.key,
		opts:    w.opts,
		failed:  &w.failed,
		closed:  &w.closed,
		stopc:   w.stopc,
		killc:   w.killc,
		notify:  make(chan struct{}, 1),
		rotatec: make(chan chan rotateReply),
		flushc:  make(chan chan error),
		done:    make(chan struct{}),
		nextLSN: 1,
	}
	s.settledc.L = &s.smu
	return s
}

// start launches the stripe's loop.
func (s *walStripe) start() {
	s.lastSync = time.Now()
	go s.run()
}

// stripeOf picks the stripe group for an object name, hashing exactly as the
// store's shard map does.
func (w *WAL) stripeOf(name string) *walStripe {
	return w.groups[shard.Hash(name)&w.gmask]
}

// append encodes the mutation and appends it to the name's stripe, returning
// the ticket of a blocking record (nil otherwise). Shared core of Record and
// RecordAsync.
func (w *WAL) append(r *store.JournalRecord[uint64]) (*ticket, error) {
	if err := w.err(); err != nil {
		return nil, err
	}
	rec := fromJournal(r)
	if rec.Op == 0 {
		return nil, fmt.Errorf("persist: unknown journal op %d", r.Op)
	}
	if len(r.Name) > maxName {
		// Refuse rather than write a frame the decoder must reject: one
		// oversized record would make every future recovery halt.
		return nil, fmt.Errorf("persist: object name of %d bytes exceeds %d", len(r.Name), maxName)
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
		p.t = tickets.Get().(*ticket)
		p.t.s = s
	}
	s.mu.Lock()
	// Re-check under the stripe lock: the loop's final drain on stopc
	// takes this lock after Close sets closed, so a record appended while
	// closed is still false here is guaranteed to be in that drain — no
	// record can be acknowledged and then stranded in a buffer.
	if w.closed.Load() {
		s.mu.Unlock()
		return nil, fmt.Errorf("persist: wal is closed") // p.t goes to the collector
	}
	s.recs = append(s.recs, p)
	s.mu.Unlock()
	if w.opts.Policy != SyncAlways { // else the waiter or the tick commits
		s.kick()
	}
	return p.t, nil
}

// Record implements store.Journal: encode the mutation, append it to the
// name's stripe, and — under SyncAlways, for records with durability
// semantics — commit the stripe and block until the record is stable.
// Announce and audit records never block: they are pure helping and derived
// state.
func (w *WAL) Record(r store.JournalRecord[uint64]) error {
	t, err := w.append(&r)
	if err != nil || t == nil {
		return err
	}
	return t.Wait()
}

// RecordAsync implements store.AsyncJournal: append like Record, but hand
// the durability wait back to the caller as the record's pooled ticket, so
// a pipelined caller (the network server) can keep executing requests, and
// whichever of their waits commits first takes every mutation queued on the
// stripe by then into one fdatasync.
func (w *WAL) RecordAsync(r store.JournalRecord[uint64]) (store.Verdict, error) {
	t, err := w.append(&r)
	if err != nil || t == nil {
		return nil, err // a nil *ticket must not become a non-nil Verdict
	}
	return t, nil
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

// kick nudges the stripe's loop without blocking.
func (s *walStripe) kick() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// run is the stripe's loop: it commits what no waiter does — every record
// under SyncInterval and SyncNever, the tick, and the barriers, which then
// wait out the syncs in flight before they answer, rotate or seal.
func (s *walStripe) run() {
	defer close(s.done)
	tick := time.NewTicker(s.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-s.killc:
			// Crash simulation (tests): stop dead, no drain, no seal.
			return
		case <-s.stopc:
			s.commit(true)
			s.cmu.Lock()
			s.sealActive()
			s.cmu.Unlock()
			return
		case reply := <-s.rotatec:
			s.commit(true)
			s.cmu.Lock()
			err := s.rotate()
			cut := s.activeBase
			s.cmu.Unlock()
			if err == nil {
				err = s.failure()
			}
			reply <- rotateReply{cutLSN: cut, err: err}
		case reply := <-s.flushc:
			s.commit(true)
			reply <- s.failure()
		case <-s.notify:
			s.commit(false)
		case <-tick.C:
			// Under SyncAlways announce and audit records never cause a sync
			// of their own; the forced tick makes them stable at most one
			// Interval later. Under SyncInterval the tick is the cadence.
			s.commit(s.opts.Policy == SyncAlways)
		}
	}
}

// commit drains the append buffer and writes the batch under the commit lock;
// the fdatasync that force or the policy asks for runs after it, beside at
// most one other. A third committer waits for one to settle, then takes all
// that queued meanwhile: the group commit. A forced commit (a barrier) waits
// out every sync in flight first. Waiters get their verdict once their sync
// and every earlier one have settled.
func (s *walStripe) commit(force bool) {
	s.cmu.Lock()
	s.smu.Lock()
	for s.issued-s.settled >= maxSyncs || force && s.settled != s.issued {
		s.settledc.Wait()
	}
	s.smu.Unlock()
	batch := s.drain()
	err := s.failure()
	if err == nil && len(batch) > 0 {
		if s.active == nil { // abandoned (simulated kill): write nothing
			err = fmt.Errorf("persist: wal closed before the record committed")
		} else if err = s.appendBatch(batch); err != nil {
			err = s.fail(err)
		}
	}
	var k uint64
	var f *os.File
	var n int
	if err == nil && s.dirty && s.syncDue(batch, force) {
		f, n = s.active, s.sinceSync
		s.dirty, s.sinceSync, s.lastSync = false, 0, time.Now()
		s.smu.Lock()
		s.issued++
		k = s.issued
		s.smu.Unlock()
	}
	s.cmu.Unlock()
	if f != nil {
		err = s.settle(k, s.sync(f, n))
	}
	for i := range batch {
		if batch[i].t != nil {
			batch[i].t.c <- err
		}
	}
	s.recycle(batch)
}

// syncDue reports whether committing batch must end in an fdatasync.
func (s *walStripe) syncDue(batch []pending, force bool) bool {
	switch {
	case force:
		return true
	case s.opts.Policy == SyncAlways:
		for i := range batch {
			if batch[i].t != nil {
				return true
			}
		}
	case s.opts.Policy == SyncInterval:
		return time.Since(s.lastSync) >= s.opts.Interval
	}
	return false
}

// sync makes f, the active segment, stable up to its last write, and counts
// it (records: appended since the sync before).
func (s *walStripe) sync(f *os.File, records int) error {
	t0 := telem.Now()
	err := syncData(f)
	if h := s.opts.SyncLatency; h != nil {
		h.Observe(uint64(s.id), telem.Now()-t0)
	}
	if err != nil {
		return err
	}
	s.syncs.Add(1)
	s.syncHist[syncBucket(records)].Add(1)
	return nil
}

// settle decides the k-th sync's verdict after every earlier one's. A
// failure is sticky: a later sync's success says nothing of the lost bytes.
func (s *walStripe) settle(k uint64, err error) error {
	s.smu.Lock()
	for s.settled != k-1 {
		s.settledc.Wait()
	}
	if err != nil {
		s.fail(err)
	}
	err = s.failure()
	s.settled = k
	s.settledc.Broadcast()
	s.smu.Unlock()
	return err
}

// quiesce waits until every sync begun has settled; the caller holds cmu, so
// none begins meanwhile. It precedes closing the file they sync.
func (s *walStripe) quiesce() {
	s.smu.Lock()
	for s.settled != s.issued {
		s.settledc.Wait()
	}
	s.smu.Unlock()
}

// fail sets the WAL's sticky failure unless one is set, returning err wrapped.
func (s *walStripe) fail(err error) error {
	err = fmt.Errorf("persist: wal commit: %w", err)
	s.failed.CompareAndSwap(nil, &err)
	return err
}

// failure returns the sticky failure, if any.
func (s *walStripe) failure() error {
	if e := s.failed.Load(); e != nil {
		return *e
	}
	return nil
}

// drain copies the queued records into a spare batch buffer (nil when none
// are queued); recycle hands the buffer back.
func (s *walStripe) drain() (batch []pending) {
	s.mu.Lock()
	if n := len(s.spare); n > 0 && len(s.recs) > 0 {
		batch, s.spare = s.spare[n-1], s.spare[:n-1]
	}
	batch = append(batch, s.recs...)
	clear(s.recs)
	s.recs = s.recs[:0]
	s.mu.Unlock()
	return batch
}

func (s *walStripe) recycle(batch []pending) {
	if batch != nil {
		clear(batch)
		s.mu.Lock()
		s.spare = append(s.spare, batch[:0])
		s.mu.Unlock()
	}
}

// appendBatch encodes the batch into the reused frame buffer and appends it
// to the active segment with one write, rotating first when the segment is
// over size and preallocating another chunk first when the write would cross
// the allocation.
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
		buf = appendFrame(buf, &s.activePads, s.activeSize+int64(len(buf)), s.nextLSN, &batch[i].rec)
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
	s.records.Add(uint64(len(batch)))
	s.batches.Add(1)
	return nil
}

// rotate seals the active segment and opens a fresh one whose base is the
// next LSN, its directory entry durable before any append (under cmu).
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

// sealActive waits out the syncs in flight, cuts the preallocated padding off
// the active segment, appends the seal record, fsyncs, and closes it: a
// sealed file is exactly its records. Truncating first means no crash leaves
// bytes after a seal; a kill between the two leaves an unsealed segment
// without padding. The caller holds cmu.
func (s *walStripe) sealActive() error {
	if s.active == nil {
		return nil
	}
	s.quiesce()
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
	buf := appendFrame(s.encBuf[:0], &s.activePads, s.activeSize, s.nextLSN, &seal)
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

// join waits for every stripe's loop to exit.
func (w *WAL) join() {
	for _, s := range w.groups {
		<-s.done
	}
}

// abandon simulates kill -9 for in-process tests: every stripe's loop stops
// without draining its buffer or sealing its active segment, and the
// directory lock is released so the "restarted" process can take it.
// Everything the OS already has (every completed Write syscall) stays on
// disk, exactly as after a real SIGKILL on one machine.
func (w *WAL) abandon() {
	if !w.closed.CompareAndSwap(false, true) {
		w.join()
		return
	}
	close(w.killc)
	w.join()
	for _, s := range w.groups {
		// Syncs in flight settle first; later commits find no file.
		s.cmu.Lock()
		s.quiesce()
		if s.active != nil {
			s.active.Close()
			s.active = nil
		}
		s.cmu.Unlock()
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
	Batches   uint64 // append writes
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
