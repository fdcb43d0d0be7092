package persist

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"auditreg"
)

// File layout. Both file kinds — WAL segments and snapshots — share one
// shape: a fixed header, then frames, the last of which is an OpSeal record
// in every cleanly finished file.
//
//	magic[8] | u32 version | u64 meta | nonce[16]
//
// meta is the segment's base LSN (the LSN of its first record) or the
// snapshot's cut LSN (the snapshot covers every record with lsn < cut). The
// nonce is random per file and keys the file's keystream, so keystreams
// never repeat across files.
const (
	segMagic  = "AWLSEG1\x00"
	snapMagic = "AWLSNP1\x00"
	// fileVersion 3 switched the record keystream from SHA-256 pad blocks
	// to AES-256 in counter mode (see record.go); files of versions 1 and 2
	// fail loudly here instead of decrypting to garbage.
	fileVersion = 3
	headerLen   = 8 + 4 + 8 + fileNonceLen
)

// segmentName and snapshotName render the canonical file names: the stripe
// id first, then the LSN, both in fixed-width hex so lexicographic and
// (stripe, LSN) order stay aligned. LSN spaces are per stripe — two files of
// different stripes may legitimately share a base.
func segmentName(stripe int, baseLSN uint64) string {
	return fmt.Sprintf("wal-s%02x-%016x.seg", stripe, baseLSN)
}
func snapshotName(stripe int, cutLSN uint64) string {
	return fmt.Sprintf("snap-s%02x-%016x.snap", stripe, cutLSN)
}

// parseFileName recognizes the canonical names, yielding the stripe id and
// the numeric part. Pre-stripe names ("wal-%016x.seg", "snap-%016x.snap",
// written before WAL striping) parse as stripe 0: a legacy directory is
// adopted as a single-stripe log and its files replay exactly as written.
func parseFileName(name string) (stripe int, meta uint64, isSeg, isSnap bool) {
	parse := func(body string) (int, uint64, bool) {
		if rest, ok := strings.CutPrefix(body, "s"); ok {
			i := strings.IndexByte(rest, '-')
			if i < 1 {
				return 0, 0, false
			}
			sid, err1 := strconv.ParseUint(rest[:i], 16, 32)
			n, err2 := strconv.ParseUint(rest[i+1:], 16, 64)
			if err1 != nil || err2 != nil || sid >= MaxStripes {
				return 0, 0, false
			}
			return int(sid), n, true
		}
		n, err := strconv.ParseUint(body, 16, 64)
		return 0, n, err == nil
	}
	switch {
	case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
		s, n, ok := parse(name[4 : len(name)-4])
		return s, n, ok, false
	case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
		s, n, ok := parse(name[5 : len(name)-5])
		return s, n, false, ok
	default:
		return 0, 0, false, false
	}
}

// newHeader builds a file header with a fresh random nonce.
func newHeader(magic string, meta uint64) ([]byte, [fileNonceLen]byte, error) {
	var nonce [fileNonceLen]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, nonce, fmt.Errorf("persist: file nonce: %w", err)
	}
	hdr := make([]byte, 0, headerLen)
	hdr = append(hdr, magic...)
	hdr = binary.BigEndian.AppendUint32(hdr, fileVersion)
	hdr = binary.BigEndian.AppendUint64(hdr, meta)
	hdr = append(hdr, nonce[:]...)
	return hdr, nonce, nil
}

// parseHeader validates a file header against the expected magic.
func parseHeader(b []byte, magic string) (meta uint64, nonce [fileNonceLen]byte, err error) {
	if len(b) < headerLen {
		return 0, nonce, fmt.Errorf("persist: %d-byte file shorter than header", len(b))
	}
	if string(b[:8]) != magic {
		return 0, nonce, fmt.Errorf("persist: bad magic %q", b[:8])
	}
	if v := binary.BigEndian.Uint32(b[8:]); v != fileVersion {
		return 0, nonce, fmt.Errorf("persist: unsupported file version %d", v)
	}
	meta = binary.BigEndian.Uint64(b[12:])
	copy(nonce[:], b[20:])
	return meta, nonce, nil
}

// fileScan is what a pass over one record file found besides its records.
type fileScan struct {
	sealed    bool  // the file ends with an OpSeal record
	tornBytes int64 // bytes of the partial frame discarded at a torn tail (unsealed files only)
	validLen  int64 // offset one past the last valid frame
}

// sectorSize is the unit of the failure model the tail rule rests on: a
// crash leaves each sector of an interrupted write whole or untouched (a
// killed process tears nothing), so a write cut short ends at a sector
// boundary with the preallocated zeros still behind it.
const sectorSize = 512

// scanRecords streams the records of a whole segment or snapshot image b,
// read from path, into visit, in file order, keeping none; a record's Name
// is whatever intern made of the name's bytes. Where the frames stop, an
// unsealed file may end in three tolerated ways (validLen, tornBytes):
//
//   - nothing, or nothing but zeros: the clean end of the log, the zeros being
//     preallocated space no write reached (tornBytes 0);
//   - the file ending inside the last frame: a torn tail in a segment that
//     grows with every append;
//   - a last frame failing its CRC with zeros running from a sector boundary
//     inside the frame's claimed extent to the end of the file: a torn tail in
//     a preallocated segment.
//
// tornBytes counts the partial frame up to its last non-zero byte, never the
// zeros behind it. Everything else is corruption and returns an error naming
// the file and offset: a bad record body, bytes after a seal, a complete
// frame with a bad CRC — last frame or not — any non-zero byte after a zero
// frame header; so does a record visit refuses. Callers enforce their own
// sealing policy: recovery requires every file except the active segment to
// be sealed.
func scanRecords(path string, b []byte, magic string, key auditreg.Key, intern func([]byte) string, visit func(rec Record, lsn uint64) error) (fileScan, error) {
	var sc fileScan
	_, nonce, err := parseHeader(b, magic)
	if err != nil {
		return sc, fmt.Errorf("%s: %w", path, err)
	}
	d := frameDecoder{ps: newPadStream(key, &nonce), intern: intern}
	rest := b[headerLen:]
	off := int64(headerLen)
	for len(rest) > 0 {
		if sc.sealed {
			return sc, fmt.Errorf("persist: %s: %d bytes after seal at offset %d", path, len(rest), off)
		}
		rec, lsn, after, err := d.parseFrame(rest, off)
		if err != nil {
			// live is where the zeros that run to the end of the file begin,
			// cut the first sector boundary there; a CRC error vouches for
			// the length field's range.
			live := int64(len(bytes.TrimRight(rest, "\x00")))
			cut := (off + live + sectorSize - 1) / sectorSize * sectorSize
			clean := live == 0
			torn := errors.Is(err, errTornFrame) ||
				errors.Is(err, errFrameCRC) && cut < off+8+int64(binary.BigEndian.Uint32(rest))
			if !clean && !torn {
				return sc, fmt.Errorf("persist: %s: offset %d: %w", path, off, err)
			}
			sc.tornBytes = live
			sc.validLen = off
			return sc, nil
		}
		off += int64(len(rest) - len(after))
		rest = after
		if rec.Op == OpSeal {
			sc.sealed = true
			continue
		}
		if err := visit(rec, lsn); err != nil {
			return sc, fmt.Errorf("%s: %w", path, err)
		}
	}
	sc.validLen = off
	return sc, nil
}

// walFile is one recognized directory entry: its numeric part and its actual
// file name (legacy entries lack the stripe tag, so the name cannot be
// reconstructed from the numbers alone).
type walFile struct {
	meta uint64 // base LSN (segment) or cut LSN (snapshot)
	name string
}

// dirState is the classified content of a data directory, keyed by stripe.
type dirState struct {
	segments  map[int][]walFile // stripe -> segments, ascending by base LSN
	snapshots map[int][]walFile // stripe -> snapshots, ascending by cut LSN
	maxStripe int               // highest stripe id seen; -1 when none
	others    []string          // unrecognized entries (lock file excluded)
}

// readDir classifies the data directory's entries. Two files claiming the
// same (stripe, LSN) — possible only if someone renames a legacy file next
// to its striped twin — is corruption, not a tie to break silently.
func readDir(dir string) (dirState, error) {
	st := dirState{
		segments:  make(map[int][]walFile),
		snapshots: make(map[int][]walFile),
		maxStripe: -1,
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return st, err
	}
	for _, e := range entries {
		name := e.Name()
		if name == lockFileName || strings.HasSuffix(name, ".tmp") {
			continue
		}
		stripe, meta, isSeg, isSnap := parseFileName(name)
		switch {
		case isSeg:
			st.segments[stripe] = append(st.segments[stripe], walFile{meta: meta, name: name})
		case isSnap:
			st.snapshots[stripe] = append(st.snapshots[stripe], walFile{meta: meta, name: name})
		default:
			st.others = append(st.others, name)
			continue
		}
		if stripe > st.maxStripe {
			st.maxStripe = stripe
		}
	}
	for _, m := range []map[int][]walFile{st.segments, st.snapshots} {
		for stripe, files := range m {
			sort.Slice(files, func(i, j int) bool { return files[i].meta < files[j].meta })
			for i := 1; i < len(files); i++ {
				if files[i].meta == files[i-1].meta {
					return st, fmt.Errorf("persist: %s and %s claim the same stripe %d LSN %d",
						files[i-1].name, files[i].name, stripe, files[i].meta)
				}
			}
		}
	}
	return st, nil
}

// syncDir fsyncs the directory itself, making renames and removals durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// writeSealedFile writes a complete record file — header, records, seal —
// through a temp file and an atomic rename. Record i carries lsn lsns[i] and
// is encrypted against the file's keystream at its own offset under the
// fresh nonce; the seal takes the first lsn past them. Offsets are unique
// within the file, so no pad is ever applied twice.
func writeSealedFile(dir, name, magic string, meta uint64, key auditreg.Key, recs []Record, lsns []uint64) error {
	hdr, nonce, err := newHeader(magic, meta)
	if err != nil {
		return err
	}
	ps := newPadStream(key, &nonce)
	buf := hdr
	sealLSN := uint64(0)
	for i := range recs {
		buf = appendFrame(buf, &ps, int64(len(buf)), lsns[i], &recs[i])
		if lsns[i] >= sealLSN {
			sealLSN = lsns[i] + 1
		}
	}
	seal := Record{Op: OpSeal}
	buf = appendFrame(buf, &ps, int64(len(buf)), sealLSN, &seal)

	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}
