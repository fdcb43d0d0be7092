package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"auditreg"
	"auditreg/store"
)

// RecoverResult summarizes what Open reconstructed from a data directory.
type RecoverResult struct {
	// Replay counts what was re-executed against the store.
	Replay ReplayStats
	// Records is the number of durable records scanned (snapshots + tails).
	Records int
	// Segments is the number of WAL segments scanned.
	Segments int
	// Stripes is the stripe-group count the directory runs at (pinned by
	// the files on disk once the directory is non-empty).
	Stripes int
	// SnapshotCut is the highest cut LSN among the snapshots that seeded
	// recovery, 0 when the directory had none.
	SnapshotCut uint64
	// TornBytes is the total size of the partial frames discarded from the
	// tails of the stripes' crashed active segments (writes never acknowledged
	// as durable); the zeros a preallocated segment ends in are never counted.
	TornBytes int64
	// AuditedNames lists the objects whose audit cursors had published
	// reports before the crash; the server re-audits them on boot.
	AuditedNames []string
	// UnknownFiles lists directory entries persist does not recognize.
	UnknownFiles []string
}

// stripeRecovery is what one stripe's recovery goroutine hands back: the
// content of its files, what it counted on the way, and the covered files a
// crash kept from being deleted. No other stripe sees it before the join.
type stripeRecovery struct {
	model       *recoverModel
	nextLSN     uint64 // the LSN the stripe's first segment of this run starts at
	segments    int
	snapshotCut uint64
	tornBytes   int64
	stale       []string
	err         error
}

// Open recovers the data directory into st — which must be fresh and
// journal-less — and returns a running WAL ready to be attached with
// st.SetJournal. A directory that cannot be replayed exactly (corrupt
// snapshot, corrupt sealed segment, impossible record structure) fails with
// an explicit error — when several stripes are damaged, the lowest one's —
// and the only damage Open repairs silently is a torn tail at the end of
// each stripe's active segment, whose byte count it reports.
//
// The directory is created if absent and held under an advisory lock for
// the WAL's lifetime (released by Close, or by the operating system on
// process death). A non-empty directory pins its stripe count (see
// Options.Stripes): recovery infers it from the files on disk, so the
// name→stripe mapping survives restarts under a different configuration and
// every stripe's files always hold whole per-object histories.
func Open(dir string, key auditreg.Key, st *store.Store[uint64], opts Options) (*WAL, *RecoverResult, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, nil, err
	}
	w, res, err := open(dir, key, st, opts, lock)
	if err != nil {
		lock.Close()
		return nil, nil, err
	}
	return w, res, nil
}

// open is recovery proper. The stripes recover side by side, a goroutine
// each (recoverStripe), sharing nothing; open waits for all of them whatever
// happens to any and joins their models in stripe order. Then the replay
// (replayInto) and the disk side of going live (goLive) run side by side,
// and only once both are done do the stripes start. Whatever fails,
// the replay's error comes first, then the lowest stripe's disk error.
func open(dir string, key auditreg.Key, st *store.Store[uint64], opts Options, lock *os.File) (*WAL, *RecoverResult, error) {
	ds, err := readDir(dir)
	if err != nil {
		return nil, nil, err
	}
	if ds.maxStripe >= 0 {
		// Pin the stripe count to the files on disk. Every run creates an
		// active segment per stripe at startup, so the highest stripe id
		// present reconstructs the previous run's count exactly.
		pinned := 1
		for pinned <= ds.maxStripe {
			pinned <<= 1
		}
		opts.Stripes = pinned
	}
	w := &WAL{
		dir:    dir,
		key:    key,
		opts:   opts,
		lock:   lock,
		gmask:  uint64(opts.Stripes - 1),
		stopc:  make(chan struct{}),
		killc:  make(chan struct{}),
		groups: make([]*walStripe, opts.Stripes),
	}
	fail := func(err error) (*WAL, *RecoverResult, error) {
		for _, s := range w.groups {
			if s != nil && s.active != nil {
				s.active.Close()
			}
		}
		return nil, nil, err
	}

	recs := make([]stripeRecovery, opts.Stripes)
	var wg sync.WaitGroup
	for sid := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[sid].nextLSN, recs[sid].err = w.recoverStripe(sid, &ds, &recs[sid])
		}()
	}
	wg.Wait()

	res := &RecoverResult{UnknownFiles: ds.others, Stripes: opts.Stripes}
	var stale []string // fully covered files to delete after replay
	for sid := range recs {
		r := &recs[sid]
		if r.err != nil {
			return fail(r.err)
		}
		res.Records += r.model.records
		res.Segments += r.segments
		res.SnapshotCut = max(res.SnapshotCut, r.snapshotCut)
		res.TornBytes += r.tornBytes
		stale = append(stale, r.stale...)
		for name := range r.model.audited {
			res.AuditedNames = append(res.AuditedNames, name)
		}
	}
	sort.Strings(res.AuditedNames)

	objs, err := joinModels(recs)
	if err != nil {
		return fail(err)
	}
	var diskErr error
	disk := make(chan struct{})
	go func() {
		defer close(disk)
		diskErr = w.goLive(recs, stale)
	}()
	res.Replay, err = replayInto(st, objs)
	<-disk
	if err == nil {
		err = diskErr
	}
	if err != nil {
		return fail(err)
	}
	w.seqBase = make(map[string]uint64, len(objs))
	for _, om := range objs {
		if om.maxSeq > 0 {
			w.seqBase[om.name] = om.maxSeq
		}
	}
	for _, s := range w.groups {
		s.start()
	}
	return w, res, nil
}

// goLive is the disk side of going live, beside the replay: it opens every
// stripe's first segment of this run (w.groups, in stripe order, stopping at
// the first error), finishes the cleanup a crash interrupted, and makes both
// durable with one directory sync before a stripe starts. Recovery
// reads the directory the same whether the removals happened or not, so a
// replay that fails meanwhile leaves nothing the next one reads otherwise.
func (w *WAL) goLive(recs []stripeRecovery, stale []string) error {
	for sid := range recs {
		s := newStripe(w, sid)
		s.nextLSN = recs[sid].nextLSN
		if err := s.openSegment(s.nextLSN); err != nil {
			return err
		}
		w.groups[sid] = s
	}
	for _, name := range stale {
		if err := os.Remove(filepath.Join(w.dir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return syncDir(w.dir)
}

// recoverStripe is one stripe's recovery, on its own goroutine: seed the
// stripe's model from its newest snapshot (seedSnapshot), stream its segment
// tail into the same model and rewrite a crashed active segment. It returns
// the LSN the stripe's first segment of this run starts at. The model is
// order-insensitive per object and one object's records all live in one
// stripe, so the models laid end to end are the single-log replay exactly.
func (w *WAL) recoverStripe(sid int, ds *dirState, out *stripeRecovery) (uint64, error) {
	m := newRecoverModel()
	out.model = m
	cut, older, err := seedSnapshot(w.dir, ds.snapshots[sid], m, w.key)
	if err != nil {
		return 0, err
	}
	out.snapshotCut, out.stale = cut, older
	nextLSN := max(1, cut)

	// The stripe's segment tail. Segments below the cut are fully covered by
	// the snapshot (a crash interrupted their deletion); every tail segment
	// but the last must be sealed; the last may end in a torn tail.
	var tail []walFile
	for _, sf := range ds.segments[sid] {
		if sf.meta < cut {
			out.stale = append(out.stale, sf.name)
			continue
		}
		tail = append(tail, sf)
	}
	for i, sf := range tail {
		path := filepath.Join(w.dir, sf.name)
		img, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		out.segments++
		nextLSN = max(nextLSN, sf.meta)
		sc, err := scanRecords(path, img, segMagic, w.key, m.intern, func(rec Record, lsn uint64) error {
			nextLSN = max(nextLSN, lsn+1)
			return m.add(&rec)
		})
		if err != nil {
			return 0, err
		}
		if sc.sealed {
			// The seal record consumed an LSN too.
			nextLSN++
			continue
		}
		if i < len(tail)-1 {
			return 0, fmt.Errorf("persist: non-final segment %s is not sealed", path)
		}
		// The crashed run's active segment: the one file whose records are
		// kept, for the rewrite, by a second pass over its image.
		out.tornBytes = sc.tornBytes
		var recs []Record
		var lsns []uint64
		_, err = scanRecords(path, img, segMagic, w.key, m.intern, func(rec Record, lsn uint64) error {
			recs, lsns = append(recs, rec), append(lsns, lsn)
			return nil
		})
		if err != nil {
			return 0, err
		}
		// The crashed run's active segment is never appended to again: its
		// torn tail may hold a partial frame whose keystream prefix already
		// reached an attacker's disk image, so reusing its (nonce, lsn)
		// stream would be a two-time pad. Rewrite the valid records into a
		// sealed replacement under a fresh nonce (atomic rename), or drop
		// the file entirely when it holds none, and start a fresh segment.
		if len(recs) > 0 {
			if err := writeSealedFile(w.dir, sf.name, segMagic, sf.meta, w.key, recs, lsns); err != nil {
				return 0, err
			}
		} else if err := os.Remove(path); err != nil {
			return 0, err
		}
	}
	return nextLSN, nil
}

// seedSnapshot streams a stripe's newest snapshot (snaps ascend by cut) into
// m. It must be complete: it was published by an atomic rename and sealed,
// so anything less is corruption, and the segments it replaced are gone. It
// returns the snapshot's cut, 0 when the stripe has none, and the names of
// the older snapshots it supersedes.
func seedSnapshot(dir string, snaps []walFile, m *recoverModel, key auditreg.Key) (cut uint64, older []string, err error) {
	if len(snaps) == 0 {
		return 0, nil, nil
	}
	newest := snaps[len(snaps)-1]
	path := filepath.Join(dir, newest.name)
	sc, err := m.addFile(path, snapMagic, key)
	if err != nil {
		return 0, nil, err
	}
	if !sc.sealed || sc.tornBytes > 0 {
		return 0, nil, fmt.Errorf("persist: snapshot %s is not sealed", path)
	}
	for _, old := range snaps[:len(snaps)-1] {
		older = append(older, old.name)
	}
	return newest.meta, older, nil
}

// Snapshot compacts the log, one stripe at a time: flush and seal the
// stripe's active segment (the stripe's cut), scan everything sealed in
// that stripe into the minimal audit-equivalent record sequence, publish it
// as a snapshot file via atomic rename, and delete the covered segments and
// older snapshots. The per-stripe compaction is sound because one object's
// records all live in one stripe, so each scan sees whole per-object
// histories. Traffic keeps flowing while the scans run; only each stripe's
// flush-and-rotate moment synchronizes with its committers. It returns the
// highest cut LSN among the stripes.
func (w *WAL) Snapshot() (uint64, error) {
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	if err := w.err(); err != nil {
		return 0, err
	}
	var maxCut uint64
	for _, s := range w.groups {
		cut, err := s.snapshot()
		if err != nil {
			return 0, err
		}
		if cut > maxCut {
			maxCut = cut
		}
	}
	w.snaps.Add(1)
	return maxCut, nil
}

// snapshot compacts one stripe; see WAL.Snapshot.
func (s *walStripe) snapshot() (uint64, error) {
	reply := make(chan rotateReply, 1)
	select {
	case s.rotatec <- reply:
	case <-s.done:
		if e := s.failed.Load(); e != nil {
			return 0, *e
		}
		return 0, fmt.Errorf("persist: wal is closed")
	}
	rr := <-reply
	if rr.err != nil {
		return 0, rr.err
	}
	cut := rr.cutLSN

	ds, err := readDir(s.dir)
	if err != nil {
		return 0, err
	}
	snaps := ds.snapshots[s.id]
	if n := len(snaps); n > 0 && snaps[n-1].meta >= cut {
		return 0, fmt.Errorf("persist: stripe %d snapshot %d already covers cut %d", s.id, snaps[n-1].meta, cut)
	}
	model := newRecoverModel()
	prevCut, covered, err := seedSnapshot(s.dir, snaps, model, s.key)
	if err != nil {
		return 0, err
	}
	if n := len(snaps); n > 0 {
		covered = append(covered, snaps[n-1].name)
	}
	for _, sf := range ds.segments[s.id] {
		if sf.meta >= cut {
			continue
		}
		covered = append(covered, sf.name)
		if sf.meta < prevCut {
			continue // already inside the previous snapshot
		}
		path := filepath.Join(s.dir, sf.name)
		sc, err := model.addFile(path, segMagic, s.key)
		if err != nil {
			return 0, err
		}
		if !sc.sealed || sc.tornBytes > 0 {
			return 0, fmt.Errorf("persist: segment %s is not sealed at snapshot time", path)
		}
	}

	recs, err := model.compact()
	if err != nil {
		return 0, err
	}
	lsns := make([]uint64, len(recs))
	for i := range lsns {
		lsns[i] = uint64(i)
	}
	if err := writeSealedFile(s.dir, snapshotName(s.id, cut), snapMagic, cut, s.key, recs, lsns); err != nil {
		return 0, err
	}
	for _, name := range covered {
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
			return 0, err
		}
	}
	if err := syncDir(s.dir); err != nil {
		return 0, err
	}
	return cut, nil
}
