package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"auditreg"
	"auditreg/store"
)

const testReaders = 8

func testKey() auditreg.Key { return DeriveKey(auditreg.KeyFromSeed(42)) }

// newTestStore builds a journal-less store shaped like the server's.
func newTestStore(t testing.TB) *store.Store[uint64] {
	t.Helper()
	st, err := store.New[uint64](auditreg.KeyFromSeed(42),
		store.WithReaders[uint64](testReaders),
		store.WithLess[uint64](func(a, b uint64) bool { return a < b }),
	)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	return st
}

// openWAL opens dir into a fresh store and attaches the WAL.
func openWAL(t testing.TB, dir string, opts Options) (*WAL, *RecoverResult, *store.Store[uint64]) {
	t.Helper()
	st := newTestStore(t)
	w, res, err := Open(dir, testKey(), st, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	st.SetJournal(w)
	return w, res, st
}

// drive runs a deterministic mixed workload: register and max-register
// objects, interleaved writes and reads from several reader principals.
// Object names embed tag so successive phases create distinct or identical
// names as the test needs.
func drive(t testing.TB, st *store.Store[uint64], seed int64, objects, ops int) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, objects)
	for i := range names {
		kind := store.Register
		if i%2 == 1 {
			kind = store.MaxRegister
		}
		names[i] = fmt.Sprintf("%v-%03d", kind, i)
		if _, err := st.Open(names[i], kind); err != nil {
			t.Fatalf("Open(%s): %v", names[i], err)
		}
	}
	for i := 0; i < ops; i++ {
		name := names[rng.Intn(len(names))]
		obj, _ := st.Lookup(name)
		if rng.Intn(100) < 40 {
			if err := obj.Write(uint64(rng.Intn(1 << 16))); err != nil {
				t.Fatalf("Write: %v", err)
			}
		} else {
			if _, err := obj.Read(rng.Intn(testReaders)); err != nil {
				t.Fatalf("Read: %v", err)
			}
		}
	}
	return names
}

// auditAll audits every named object.
func auditAll(t *testing.T, st *store.Store[uint64], names []string) map[string]store.ObjectAudit[uint64] {
	t.Helper()
	out := make(map[string]store.ObjectAudit[uint64], len(names))
	for _, name := range names {
		aud, err := st.Audit(name)
		if err != nil {
			t.Fatalf("Audit(%s): %v", name, err)
		}
		out[name] = aud
	}
	return out
}

// requireSameAudits asserts the recovered store reports exactly the audits
// of the original.
func requireSameAudits(t *testing.T, want map[string]store.ObjectAudit[uint64], st *store.Store[uint64], names []string) {
	t.Helper()
	got := auditAll(t, st, names)
	for _, name := range names {
		if !got[name].Same(want[name]) {
			t.Errorf("recovered audit for %s: %d pairs, want %d\n got %v\nwant %v",
				name, got[name].Len(), want[name].Len(), got[name].Report, want[name].Report)
		}
	}
}

// valuesOf reads every object's current value through a reader index the
// workload never uses. Call it on the original store before its WAL closes
// (the reads themselves are journaled) and compare with requireSameValues.
func valuesOf(t *testing.T, st *store.Store[uint64], names []string) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64, len(names))
	for _, name := range names {
		v, err := st.Read(name, testReaders-1)
		if err != nil {
			t.Fatalf("Read(%s): %v", name, err)
		}
		out[name] = v
	}
	return out
}

// requireSameValues asserts the recovered objects hold the original current
// values.
func requireSameValues(t *testing.T, want map[string]uint64, rec *store.Store[uint64], names []string) {
	t.Helper()
	for _, name := range names {
		got, err := rec.Read(name, testReaders-1)
		if err != nil {
			t.Fatalf("recovered Read(%s): %v", name, err)
		}
		if got != want[name] {
			t.Errorf("recovered value for %s = %d, want %d", name, got, want[name])
		}
	}
}

func TestOpenEmptyDir(t *testing.T) {
	dir := t.TempDir()
	w, res, _ := openWAL(t, dir, Options{})
	if res.Records != 0 || res.Replay.Objects != 0 {
		t.Fatalf("fresh dir recovered %+v", res)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A clean close seals; reopening finds nothing to replay but accepts
	// the sealed segment.
	w2, res2, _ := openWAL(t, dir, Options{})
	defer w2.Close()
	if res2.Records != 0 {
		t.Fatalf("reopen recovered %d records", res2.Records)
	}
}

func TestRecoverAfterCleanClose(t *testing.T) {
	for _, policy := range []Policy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			w, _, st := openWAL(t, dir, Options{Policy: policy})
			names := drive(t, st, 1, 8, 600)
			vals := valuesOf(t, st, names)
			want := auditAll(t, st, names)
			if err := w.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			w2, res, st2 := openWAL(t, dir, Options{Policy: policy})
			defer w2.Close()
			if res.TornBytes != 0 {
				t.Fatalf("clean close left %d torn bytes", res.TornBytes)
			}
			requireSameAudits(t, want, st2, names)
			requireSameValues(t, vals, st2, names)
		})
	}
}

func TestRecoverAfterCrash(t *testing.T) {
	dir := t.TempDir()
	w, _, st := openWAL(t, dir, Options{Policy: SyncAlways})
	names := drive(t, st, 2, 8, 600)
	vals := valuesOf(t, st, names)
	want := auditAll(t, st, names)
	w.abandon() // kill -9

	w2, res, st2 := openWAL(t, dir, Options{Policy: SyncAlways})
	defer w2.Close()
	// Under SyncAlways every acknowledged open/write/read is durable, so
	// the recovered audits must equal the originals exactly.
	requireSameAudits(t, want, st2, names)
	requireSameValues(t, vals, st2, names)
	if res.Replay.Fetches == 0 || res.Replay.Writes == 0 {
		t.Fatalf("replay stats empty: %+v", res.Replay)
	}
}

func TestRecoverCrashedStoreKeepsWorking(t *testing.T) {
	dir := t.TempDir()
	w, _, st := openWAL(t, dir, Options{})
	names := drive(t, st, 3, 4, 200)
	w.abandon()

	w2, _, st2 := openWAL(t, dir, Options{})
	// The recovered store accepts new traffic and journals it; a third
	// recovery sees both generations.
	obj, err := st2.Open(names[0], store.Register)
	if err != nil {
		t.Fatalf("reopen object: %v", err)
	}
	if err := obj.Write(0xBEEF); err != nil {
		t.Fatalf("post-recovery Write: %v", err)
	}
	if v, err := obj.Read(0); err != nil || v != 0xBEEF {
		t.Fatalf("post-recovery Read = %d, %v", v, err)
	}
	want := auditAll(t, st2, names)
	if err := w2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w3, _, st3 := openWAL(t, dir, Options{})
	defer w3.Close()
	requireSameAudits(t, want, st3, names)
}

func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	w, _, st := openWAL(t, dir, Options{})
	names := drive(t, st, 4, 4, 300)
	want := auditAll(t, st, names)
	w.abandon()

	// A torn final write, as a crash mid-write leaves it: the frame's leading
	// sectors landed where the log ended, the rest of its claimed extent is
	// still the preallocated zeros.
	seg := lastSegment(t, dir)
	at := validLenOf(t, seg)
	cut := (at + 8 + sectorSize) / sectorSize * sectorSize // a sector boundary past the frame's header
	half := bytes.Repeat([]byte{0xde}, int(cut-at))
	binary.BigEndian.PutUint32(half, uint32(cut-at)+100) // the frame claims to run past the cut
	f, err := os.OpenFile(seg, os.O_WRONLY, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(half, at); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, res, st2 := openWAL(t, dir, Options{})
	defer w2.Close()
	if res.TornBytes != cut-at {
		t.Fatalf("TornBytes = %d, want the %d bytes of the partial frame", res.TornBytes, cut-at)
	}
	requireSameAudits(t, want, st2, names)
}

func TestRecoverHaltsOnSealedSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotations, so sealed segments exist; one stripe so
	// the first listed segment is guaranteed sealed (a second stripe's active
	// segment would sort between this stripe's files).
	w, _, st := openWAL(t, dir, Options{SegmentBytes: 4 << 10, Stripes: 1})
	drive(t, st, 5, 8, 2000)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs := allSegments(t, dir)
	if len(segs) < 2 {
		t.Fatalf("expected rotations, got %d segments", len(segs))
	}
	// Flip one byte in the middle of the first (sealed) segment.
	corruptByte(t, segs[0], int64(headerLen+40))

	st2 := newTestStore(t)
	if _, _, err := Open(dir, testKey(), st2, Options{}); err == nil {
		t.Fatal("recovery over a corrupt sealed segment succeeded")
	} else if !strings.Contains(err.Error(), "wal-") {
		t.Fatalf("error does not name the segment: %v", err)
	}
}

func TestSnapshotCompactsAndPreservesAudits(t *testing.T) {
	dir := t.TempDir()
	// One stripe: the cut-covers-segment check below compares every file
	// against one cut LSN, which only means something inside one stripe's
	// LSN space.
	w, _, st := openWAL(t, dir, Options{SegmentBytes: 8 << 10, Stripes: 1})
	names := drive(t, st, 6, 8, 1500)
	cut, err := w.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if cut == 0 {
		t.Fatal("snapshot cut 0")
	}
	// Covered segments are gone; the snapshot file exists.
	for _, seg := range allSegments(t, dir) {
		name := filepath.Base(seg)
		if _, meta, isSeg, _ := parseFileName(name); isSeg && meta < cut {
			t.Errorf("segment %s below cut %d survived the snapshot", name, cut)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName(0, cut))); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}

	// More traffic after the snapshot, then a crash.
	drive(t, st, 7, 8, 800)
	vals := valuesOf(t, st, names)
	want := auditAll(t, st, names)
	w.abandon()

	w2, res, st2 := openWAL(t, dir, Options{})
	if res.SnapshotCut != cut {
		t.Fatalf("recovery used snapshot cut %d, want %d", res.SnapshotCut, cut)
	}
	requireSameAudits(t, want, st2, names)
	requireSameValues(t, vals, st2, names)

	// A second snapshot on the recovered log folds snapshot + tail.
	if _, err := w2.Snapshot(); err != nil {
		t.Fatalf("second Snapshot: %v", err)
	}
	want2 := auditAll(t, st2, names)
	if err := w2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	w3, _, st3 := openWAL(t, dir, Options{})
	defer w3.Close()
	requireSameAudits(t, want2, st3, names)
}

// TestSeqContinuityAcrossGenerations pins the multi-generation regression:
// snapshot compaction drops unaudited writes and replay renumbers, so
// without the WAL's per-object seq base a post-recovery write would reuse a
// sequence number still present in retained records and the NEXT recovery
// would halt on "conflicting writes" over perfectly healthy data.
func TestSeqContinuityAcrossGenerations(t *testing.T) {
	dir := t.TempDir()
	w, _, st := openWAL(t, dir, Options{})
	obj, err := st.Open("gen", store.Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Seqs 1..3; only seq 1 is audited, so compaction keeps a sparse
	// history (write 1 with its fetch, final write 3) and replay renumbers.
	if err := obj.Write(0xA); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Read(0); err != nil {
		t.Fatal(err)
	}
	if err := obj.Write(0xB); err != nil {
		t.Fatal(err)
	}
	if err := obj.Write(0xC); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	w.abandon() // crash

	// Generation 2: recover, write and read more, crash again.
	w2, _, st2 := openWAL(t, dir, Options{})
	obj2, err := st2.Open("gen", store.Register)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := obj2.Write(0xD); err != nil {
		t.Fatalf("gen-2 Write: %v", err)
	}
	if _, err := obj2.Read(1); err != nil {
		t.Fatalf("gen-2 Read: %v", err)
	}
	vals := valuesOf(t, st2, []string{"gen"})
	want := auditAll(t, st2, []string{"gen"})
	w2.abandon()

	// Generation 3 must recover cleanly — before the seq base this halted
	// with "conflicting writes at seq N".
	w3, _, st3 := openWAL(t, dir, Options{})
	defer w3.Close()
	requireSameAudits(t, want, st3, []string{"gen"})
	requireSameValues(t, vals, st3, []string{"gen"})
}

func TestDirLockExcludesSecondWAL(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openWAL(t, dir, Options{})
	defer w.Close()
	st2 := newTestStore(t)
	if _, _, err := Open(dir, testKey(), st2, Options{}); err == nil {
		t.Fatal("second Open of a locked dir succeeded")
	}
}

// TestSynthesizedWriteFromFetch crafts a log whose fetch record survived but
// whose write record did not (the write missed the final group commit): the
// fetch must stand in for the write, so the audited read is not dropped — for
// a register's slot and for a max register's value alike.
func TestSynthesizedWriteFromFetch(t *testing.T) {
	for _, kind := range []store.Kind{store.Register, store.MaxRegister} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			recs := []Record{
				{Op: OpOpen, Name: "acct", Kind: uint8(kind), Capacity: 1024},
				// No OpWrite for seq 1: only the read that observed it survived.
				{Op: OpFetch, Name: "acct", Kind: uint8(kind), Reader: 3, Seq: 1, Value: 777},
			}
			lsns := []uint64{1, 2}
			if err := writeSealedFile(dir, segmentName(0, 1), segMagic, 1, testKey(), recs, lsns); err != nil {
				t.Fatalf("writeSealedFile: %v", err)
			}

			w, res, st := openWAL(t, dir, Options{})
			defer w.Close()
			if res.Replay.Synthesized != 1 {
				t.Fatalf("synthesized %d writes, want 1", res.Replay.Synthesized)
			}
			if res.Replay.Writes != 0 {
				t.Fatalf("replayed %d writes from write records, and the log holds none", res.Replay.Writes)
			}
			aud, err := st.Audit("acct")
			if err != nil {
				t.Fatalf("Audit: %v", err)
			}
			if !aud.Report.Contains(3, 777) {
				t.Fatalf("audit %v does not contain the recovered read (3, 777)", aud.Report)
			}
			if v, err := st.Read("acct", 0); err != nil || v != 777 {
				t.Fatalf("recovered value = %d, %v; want 777", v, err)
			}
		})
	}
}

// TestFetchValueMismatchHalts crafts an impossible log — a fetch observing a
// value the write history cannot produce — and requires recovery to halt.
func TestFetchValueMismatchHalts(t *testing.T) {
	dir := t.TempDir()
	recs := []Record{
		{Op: OpOpen, Name: "acct", Kind: uint8(store.Register), Capacity: 1024},
		{Op: OpWrite, Name: "acct", Kind: uint8(store.Register), Seq: 1, Value: 10},
		{Op: OpFetch, Name: "acct", Kind: uint8(store.Register), Reader: 0, Seq: 1, Value: 11},
	}
	if err := writeSealedFile(dir, segmentName(0, 1), segMagic, 1, testKey(), recs, []uint64{1, 2, 3}); err != nil {
		t.Fatalf("writeSealedFile: %v", err)
	}
	st := newTestStore(t)
	_, _, err := Open(dir, testKey(), st, Options{})
	if err == nil || !strings.Contains(err.Error(), "fetch at seq 1 observed 11") {
		t.Fatalf("recovery = %v, want an explicit fetch-mismatch halt", err)
	}
}

// --- helpers ---

func allSegments(t testing.TB, dir string) []string {
	t.Helper()
	ds, err := readDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for sid := 0; sid <= ds.maxStripe; sid++ {
		for _, sf := range ds.segments[sid] {
			out = append(out, filepath.Join(dir, sf.name))
		}
	}
	return out
}

func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs := allSegments(t, dir)
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	return segs[len(segs)-1]
}

// validLenOf returns the offset one past the last valid frame of a record
// file: where the next write would have landed.
func validLenOf(t *testing.T, path string) int64 {
	t.Helper()
	magic := segMagic
	if strings.HasSuffix(path, ".snap") {
		magic = snapMagic
	}
	fr, err := readRecordFile(path, magic, testKey())
	if err != nil {
		t.Fatal(err)
	}
	return fr.validLen
}

func corruptByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}
