package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"auditreg"
	"auditreg/store"
)

// tailFixture is a segment image for the tail-rule tests: a header, two
// complete frames, and one more — last — long enough to span a sector
// boundary, so that a crash can cut it.
type tailFixture struct {
	img  []byte
	ps   padStream
	recs []Record
	last int64 // offset of the last frame
	cut  int64 // a sector boundary strictly inside the last frame
}

func newTailFixture(t testing.TB, key auditreg.Key) tailFixture {
	t.Helper()
	hdr, _, err := newHeader(segMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A fixed nonce fixes the ciphertext, so the rows below can count bytes.
	copy(hdr[headerLen-fileNonceLen:], fuzzNonce[:])
	ps := newPadStream(key, &fuzzNonce)
	fx := tailFixture{img: hdr, ps: ps, recs: []Record{
		{Op: OpOpen, Name: "acct", Kind: uint8(store.Register), Capacity: 64},
		{Op: OpWrite, Name: "acct", Kind: uint8(store.Register), Seq: 1, Value: 10},
		{Op: OpWrite, Name: strings.Repeat("n", 700), Kind: uint8(store.Register), Seq: 1, Value: 11},
	}}
	for i := range fx.recs {
		fx.last = int64(len(fx.img))
		fx.img = appendFrame(fx.img, &ps, fx.last, uint64(i+1), &fx.recs[i])
	}
	fx.cut = (fx.last + 8 + sectorSize) / sectorSize * sectorSize
	if fx.cut >= int64(len(fx.img)) {
		t.Fatalf("fixture: no sector boundary inside the last frame [%d, %d)", fx.last, len(fx.img))
	}
	return fx
}

// fileRecords is a whole record file, parsed and kept: what the tests look
// at where recovery only streams.
type fileRecords struct {
	fileScan
	recs []Record
	lsns []uint64
}

// freshName is the intern of a scan with no model: a string per record.
func freshName(b []byte) string { return string(b) }

// readRecordFile parses a whole segment or snapshot file with scanRecords.
func readRecordFile(path, magic string, key auditreg.Key) (fileRecords, error) {
	var fr fileRecords
	b, err := os.ReadFile(path)
	if err != nil {
		return fr, err
	}
	fr.fileScan, err = scanRecords(path, b, magic, key, freshName, func(rec Record, lsn uint64) error {
		fr.recs = append(fr.recs, rec)
		fr.lsns = append(fr.lsns, lsn)
		return nil
	})
	return fr, err
}

// TestSegmentTailRule has one row per sentence of scanRecords' tail
// rule: which ends of an unsealed segment are a clean end of log, which are
// a torn tail, and which keep halting recovery.
func TestSegmentTailRule(t *testing.T) {
	fx := newTailFixture(t, testKey())
	whole := int64(len(fx.img))
	zeros := func(n int64) []byte { return make([]byte, n) }
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	flipped := func(off int64) []byte {
		b := bytes.Clone(fx.img)
		b[off] ^= 0xFF
		return b
	}
	seal := appendFrame(nil, &fx.ps, whole, 4, &Record{Op: OpSeal})

	for _, tc := range []struct {
		name     string
		img      []byte
		recs     int   // records recovered; -1 = recovery must halt
		torn     int64 // tornBytes
		validLen int64
		sealed   bool
	}{
		{"ends after its last frame", fx.img, 3, 0, whole, false},
		{"all-zero remainder is the clean end of the log", join(fx.img, zeros(4096)), 3, 0, whole, false},
		{"a zero remainder shorter than a frame header", join(fx.img, zeros(5)), 3, 0, whole, false},
		{"file ends inside the last frame", fx.img[:whole-9], 2, whole - 9 - fx.last, fx.last, false},
		{"file ends inside the last frame's header", fx.img[:fx.last+5], 2, 5, fx.last, false},
		{"last frame cut short by zeros from a sector boundary", join(fx.img[:fx.cut], zeros(8192)), 2, fx.cut - fx.last, fx.last, false},
		{"cut short, the file ending where the frame would", join(fx.img[:fx.cut], zeros(whole-fx.cut)), 2, fx.cut - fx.last, fx.last, false},
		{"zeros from mid-sector are no torn write", join(fx.img[:fx.cut+100], zeros(8192)), -1, 0, 0, false},
		{"a hole with bytes behind it is no torn write", join(fx.img[:fx.cut], zeros(sectorSize), []byte{1}, zeros(4096)), -1, 0, 0, false},
		{"complete last frame with a bad CRC, zeros behind it", join(flipped(whole-1), zeros(4096)), -1, 0, 0, false},
		{"complete last frame with a bad CRC, nothing behind it", flipped(fx.last + frameOverhead), -1, 0, 0, false},
		{"complete earlier frame with a bad CRC", join(flipped(headerLen+frameOverhead), zeros(4096)), -1, 0, 0, false},
		{"non-zero byte after a zero frame header", join(fx.img, zeros(64), []byte{1}, zeros(64)), -1, 0, 0, false},
		{"sealed", join(fx.img, seal), 3, 0, whole + int64(len(seal)), true},
		{"bytes after seal, zeros included", join(fx.img, seal, zeros(4096)), -1, 0, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), segmentName(0, 1))
			if err := os.WriteFile(path, tc.img, 0o600); err != nil {
				t.Fatal(err)
			}
			fr, err := readRecordFile(path, segMagic, testKey())
			if tc.recs < 0 {
				if err == nil {
					t.Fatalf("recovered %d records (%d torn bytes), want a halt", len(fr.recs), fr.tornBytes)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(fr.recs) != tc.recs || fr.tornBytes != tc.torn || fr.validLen != tc.validLen || fr.sealed != tc.sealed {
				t.Fatalf("got %d records, %d torn, validLen %d, sealed %v; want %d, %d, %d, %v",
					len(fr.recs), fr.tornBytes, fr.validLen, fr.sealed, tc.recs, tc.torn, tc.validLen, tc.sealed)
			}
			for i := range fr.recs {
				if fr.recs[i] != fx.recs[i] || fr.lsns[i] != uint64(i+1) {
					t.Fatalf("record %d = %+v at lsn %d", i, fr.recs[i], fr.lsns[i])
				}
			}
		})
	}
}

// segmentFiles parses every segment of dir.
func segmentFiles(t *testing.T, dir string) map[string]fileRecords {
	t.Helper()
	out := make(map[string]fileRecords)
	for _, seg := range allSegments(t, dir) {
		fr, err := readRecordFile(seg, segMagic, testKey())
		if err != nil {
			t.Fatal(err)
		}
		out[seg] = fr
	}
	return out
}

func sizeOf(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestCleanCloseLeavesNoPadding: Close seals every segment and a sealed file
// is exactly its records, preallocated or not.
func TestCleanCloseLeavesNoPadding(t *testing.T) {
	dir := t.TempDir()
	w, _, st := openWAL(t, dir, Options{})
	drive(t, st, 31, 4, 200)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for seg, fr := range segmentFiles(t, dir) {
		if size := sizeOf(t, seg); !fr.sealed || size != fr.validLen {
			t.Errorf("%s: sealed %v, size %d, validLen %d", filepath.Base(seg), fr.sealed, size, fr.validLen)
		}
	}
}

// TestCrashedSegmentIsPaddingNotDamage: after a kill with no write in
// flight, the active segments end in preallocated zeros. Recovery reports no
// torn byte, Stats.Bytes counted record bytes and never allocated ones, and a
// directory whose segments grow per append instead — the layout of a
// filesystem without fallocate, and of every older directory — recovers to
// the same audits.
func TestCrashedSegmentIsPaddingNotDamage(t *testing.T) {
	dir, bare := t.TempDir(), filepath.Join(t.TempDir(), "bare")
	w, _, st := openWAL(t, dir, Options{})
	names := drive(t, st, 32, 6, 400)
	want := auditAll(t, st, names)
	if err := w.Sync(); err != nil { // announce records trail the traffic; let them land
		t.Fatal(err)
	}
	bytesAppended := w.Stats().Bytes
	w.abandon()

	var records int64
	for seg, fr := range segmentFiles(t, dir) {
		if fr.sealed || fr.tornBytes != 0 {
			t.Fatalf("%s: sealed %v, %d torn bytes", filepath.Base(seg), fr.sealed, fr.tornBytes)
		}
		if size := sizeOf(t, seg); size != preallocChunk && size != fr.validLen {
			t.Fatalf("%s: %d bytes on disk; want the %d preallocated, or the %d written where fallocate is not to be had",
				filepath.Base(seg), size, preallocChunk, fr.validLen)
		}
		records += fr.validLen - headerLen
	}
	if int64(bytesAppended) != records {
		t.Fatalf("Stats.Bytes = %d, the segments hold %d record bytes", bytesAppended, records)
	}

	copyDir(t, dir, bare)
	for seg, fr := range segmentFiles(t, bare) {
		if err := os.Truncate(seg, fr.validLen); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []string{dir, bare} {
		w2, res, st2 := openWAL(t, d, Options{})
		if res.TornBytes != 0 {
			t.Errorf("%s: %d torn bytes reported, none were torn", d, res.TornBytes)
		}
		requireSameAudits(t, want, st2, names)
		w2.Close()
	}
}

// TestTinySegmentsPreallocateTheirNeed: at a SegmentBytes far below the
// chunk (internal/attacker's disk sweep runs at 4 KiB) a segment is
// preallocated to what it may hold, not to a chunk, and rotation seals it
// without padding.
func TestTinySegmentsPreallocateTheirNeed(t *testing.T) {
	const segBytes = 4 << 10
	dir := t.TempDir()
	w, _, st := openWAL(t, dir, Options{SegmentBytes: segBytes, Stripes: 1})
	drive(t, st, 33, 4, 600)
	if w.Stats().Rotations == 0 {
		t.Fatal("no rotation happened")
	}
	w.abandon()
	for seg, fr := range segmentFiles(t, dir) {
		size := sizeOf(t, seg)
		switch {
		case fr.sealed && size != fr.validLen:
			t.Errorf("sealed %s: size %d, validLen %d", filepath.Base(seg), size, fr.validLen)
		case size > 2*segBytes:
			t.Errorf("%s: %d bytes on disk at SegmentBytes %d", filepath.Base(seg), size, segBytes)
		}
	}
}
