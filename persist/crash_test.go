package persist

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"auditreg/store"
)

// pairSet is one object's audited (reader, value) pairs.
type pairSet map[[2]uint64]bool

// pairsOf collects the audit pairs of every object the store hosts.
func pairsOf(t *testing.T, st *store.Store[uint64]) map[string]pairSet {
	t.Helper()
	out := make(map[string]pairSet)
	st.Range(func(obj *store.Object[uint64]) bool {
		aud, err := obj.Audit()
		if err != nil {
			t.Fatalf("Audit(%s): %v", obj.Name(), err)
		}
		set := make(pairSet)
		for _, e := range aud.Report.Entries() {
			set[[2]uint64{uint64(e.Reader), e.Value}] = true
		}
		out[obj.Name()] = set
		return true
	})
	return out
}

// modelPairs derives the audit pairs implied by the surviving records of a
// data directory, reading it exactly as recovery would (latest snapshot,
// then tail segments, torn tails tolerated everywhere for this oracle).
func modelPairs(t *testing.T, dir string) map[string]pairSet {
	t.Helper()
	ds, err := readDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := newRecoverModel()
	for sid := 0; sid <= ds.maxStripe; sid++ {
		var cut uint64
		if snaps := ds.snapshots[sid]; len(snaps) > 0 {
			newest := snaps[len(snaps)-1]
			cut = newest.meta
			fr, err := readRecordFile(filepath.Join(dir, newest.name), snapMagic, testKey())
			if err != nil {
				t.Fatal(err)
			}
			for i := range fr.recs {
				if err := m.add(&fr.recs[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, sf := range ds.segments[sid] {
			if sf.meta < cut {
				continue
			}
			fr, err := readRecordFile(filepath.Join(dir, sf.name), segMagic, testKey())
			if err != nil {
				t.Fatal(err)
			}
			for i := range fr.recs {
				if err := m.add(&fr.recs[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	out := make(map[string]pairSet)
	for name, om := range m.objects {
		set := make(pairSet)
		for _, f := range om.fetches {
			set[[2]uint64{uint64(f.reader), f.value}] = true
		}
		out[name] = set
	}
	return out
}

func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o700); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
}

// subset reports whether every pair of a appears in b.
func subset(a, b map[string]pairSet) (string, bool) {
	for name, pairs := range a {
		for p := range pairs {
			if !b[name][p] {
				return fmt.Sprintf("%s (%d, %d)", name, p[0], p[1]), false
			}
		}
	}
	return "", true
}

func equalPairs(a, b map[string]pairSet) bool {
	if m, ok := subset(a, b); !ok || m != "" {
		return ok
	}
	_, ok := subset(b, a)
	return ok
}

// TestCrashInjection is the randomized harness: it truncates or corrupts a
// crashed data directory at random byte offsets and asserts that recovery
// either replays cleanly — reporting exactly the audit pairs the surviving
// records imply, never silently dropping one — or halts with an explicit
// error.
func TestCrashInjection(t *testing.T) {
	const trials = 60
	baseDir := t.TempDir()
	ref := filepath.Join(baseDir, "ref")
	w, _, st := openWAL(t, ref, Options{SegmentBytes: 8 << 10})
	drive(t, st, 99, 6, 1500)
	if _, err := w.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	drive(t, st, 100, 6, 800)
	w.abandon()
	ground := modelPairs(t, ref)

	rng := rand.New(rand.NewSource(7))
	recovered, halted := 0, 0
	for trial := 0; trial < trials; trial++ {
		dir := filepath.Join(baseDir, fmt.Sprintf("trial-%03d", trial))
		copyDir(t, ref, dir)
		ds, err := readDir(dir)
		if err != nil {
			t.Fatal(err)
		}

		truncating := trial%2 == 0
		if truncating {
			// Truncate a random stripe's active (last) segment at a random
			// offset, inside its records or inside the preallocated zeros
			// behind them: the tails recovery must absorb.
			segs := ds.segments[rng.Intn(ds.maxStripe+1)]
			seg := filepath.Join(dir, segs[len(segs)-1].name)
			info, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			cutAt := int64(headerLen) + rng.Int63n(info.Size()-headerLen+1)
			if err := os.Truncate(seg, cutAt); err != nil {
				t.Fatal(err)
			}
		} else {
			// Flip a random byte in a random record file — a byte of its
			// records: the zeros behind them would draw nearly every flip.
			var files []string
			for _, sfs := range ds.segments {
				for _, sf := range sfs {
					files = append(files, sf.name)
				}
			}
			for _, sfs := range ds.snapshots {
				for _, sf := range sfs {
					files = append(files, sf.name)
				}
			}
			path := filepath.Join(dir, files[rng.Intn(len(files))])
			corruptByte(t, path, rng.Int63n(validLenOf(t, path)))
		}

		stRec := newTestStore(t)
		wRec, _, err := Open(dir, testKey(), stRec, Options{})
		if err != nil {
			halted++
			if err.Error() == "" {
				t.Fatalf("trial %d: halt without a message", trial)
			}
			continue
		}
		recovered++
		got := pairsOf(t, stRec)
		wRec.Close()
		if truncating {
			// A pure truncation must recover exactly the pairs the
			// surviving prefix implies: nothing invented, nothing silently
			// dropped.
			want := modelPairs(t, dir)
			if !equalPairs(got, want) {
				t.Fatalf("trial %d (truncate): recovered pairs differ from the surviving records", trial)
			}
		}
		// Never invent pairs beyond the uncorrupted ground truth.
		if miss, ok := subset(got, ground); !ok {
			t.Fatalf("trial %d: recovery invented pair %s", trial, miss)
		}
	}
	t.Logf("crash injection: %d recovered, %d halted", recovered, halted)
	if recovered == 0 || halted == 0 {
		t.Fatalf("harness degenerate: %d recovered, %d halted — both paths must be exercised", recovered, halted)
	}

	// The last frame of the log is complete and acknowledged like any other:
	// damage inside it must halt recovery, never pass for a torn tail and
	// recover one record short. (Its length field is left alone: a frame
	// claiming to run into the zeros behind it is what a torn write looks
	// like, as one claiming to run past the end of the file always was.)
	ds, err := readDir(ref)
	if err != nil {
		t.Fatal(err)
	}
	var seg string // a stripe's active segment that holds a frame
	for _, segs := range ds.segments {
		if name := segs[len(segs)-1].name; validLenOf(t, filepath.Join(ref, name)) > headerLen {
			seg = name
		}
	}
	start, end := lastFrameOf(t, filepath.Join(ref, seg))
	for _, off := range []int64{start + 4, start + 8, start + frameOverhead, end - 1} {
		dir := filepath.Join(baseDir, fmt.Sprintf("final-%d", off))
		copyDir(t, ref, dir)
		corruptByte(t, filepath.Join(dir, seg), off)
		if w, _, err := Open(dir, testKey(), newTestStore(t), Options{}); err == nil {
			w.Close()
			t.Fatalf("flip at offset %d of the final frame [%d, %d) recovered", off, start, end)
		}
	}
}

// lastFrameOf returns the extent of the last valid frame of a record file.
func lastFrameOf(t *testing.T, path string) (start, end int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end = validLenOf(t, path)
	for next := int64(headerLen); next < end; {
		start = next
		next += 8 + int64(binary.BigEndian.Uint32(b[start:]))
	}
	return start, end
}

// TestStripedRecoveryMatchesSingleStripe is the striped-recovery
// crash-injection check: one deterministic op log is driven into a 4-stripe
// WAL and a 1-stripe WAL, both are killed -9 with commits potentially
// mid-fsync, and the per-object seq-ordered replays must agree exactly —
// fanning the log out across stripes must not change what recovery
// reconstructs. Under SyncAlways every acknowledged mutation is durable in
// both logs, so the recovered audits and values are fully determined by the
// op log, not by how the stripes happened to batch.
func TestStripedRecoveryMatchesSingleStripe(t *testing.T) {
	const stripes = 4
	dirS, dir1 := t.TempDir(), t.TempDir()

	wS, resS, stS := openWAL(t, dirS, Options{Stripes: stripes, SegmentBytes: 8 << 10})
	if resS.Stripes != stripes {
		t.Fatalf("fresh dir opened with %d stripes, want %d", resS.Stripes, stripes)
	}
	names := drive(t, stS, 11, 9, 1200)
	valsS := valuesOf(t, stS, names)
	wantS := auditAll(t, stS, names)
	wS.abandon() // kill -9; a stripe's fsync may be in flight

	// The records must genuinely interleave across stripes for the merge to
	// be exercised: at least 3 of the 4 stripes hold records.
	occupied := 0
	dsS, err := readDir(dirS)
	if err != nil {
		t.Fatal(err)
	}
	for sid := 0; sid <= dsS.maxStripe; sid++ {
		for _, sf := range dsS.segments[sid] {
			fr, err := readRecordFile(filepath.Join(dirS, sf.name), segMagic, testKey())
			if err != nil {
				t.Fatal(err)
			}
			if len(fr.recs) > 0 {
				occupied++
				break
			}
		}
	}
	if occupied < 3 {
		t.Fatalf("op log landed in only %d stripes; need >= 3 for a meaningful merge", occupied)
	}

	w1, _, st1 := openWAL(t, dir1, Options{Stripes: 1, SegmentBytes: 8 << 10})
	drive(t, st1, 11, 9, 1200) // same seed: the identical op log
	// valuesOf reads are journaled too; mirror them so the logs stay equal.
	vals1 := valuesOf(t, st1, names)
	for name, v := range valsS {
		if vals1[name] != v {
			t.Fatalf("op logs diverged before the crash: %s = %d vs %d", name, vals1[name], v)
		}
	}
	w1.abandon()

	// Recover both. The striped dir is opened with a conflicting Stripes
	// option: the on-disk pin must win, or a reconfigured restart would
	// split objects' histories across stripes.
	wSR, resSR, stSR := openWAL(t, dirS, Options{Stripes: 1})
	defer wSR.Close()
	if resSR.Stripes != stripes {
		t.Fatalf("recovery ran %d stripes despite %d on disk", resSR.Stripes, stripes)
	}
	w1R, _, st1R := openWAL(t, dir1, Options{})
	defer w1R.Close()

	requireSameAudits(t, wantS, stSR, names)
	requireSameValues(t, valsS, stSR, names)
	got1 := auditAll(t, st1R, names)
	for _, name := range names {
		if !got1[name].Same(wantS[name]) {
			t.Errorf("single-stripe replay of %s differs from the striped op log's audits", name)
		}
	}
	requireSameValues(t, valsS, st1R, names)
}
