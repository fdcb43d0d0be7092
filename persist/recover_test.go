package persist

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"auditreg/internal/race"
	"auditreg/store"
)

// recoveryDir builds, once, the directory the recovery benchmark and the
// allocation pin open again and again: ops mixed operations over 64 objects
// on two stripes, closed cleanly. (SyncNever only builds it faster; a clean
// Close leaves the same files under any policy.)
func recoveryDir(t testing.TB, ops int) string {
	t.Helper()
	dir := t.TempDir()
	w, _, st := openWAL(t, dir, Options{Stripes: 2, Policy: SyncNever})
	drive(t, st, 5, 64, ops)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// recoverOnce opens dir into a fresh store and reports what Open alone cost;
// the directory is left as it was found (the run's own empty segments go).
func recoverOnce(t testing.TB, dir string) (res *RecoverResult, took time.Duration, mallocs uint64) {
	t.Helper()
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := newTestStore(t)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	w, res, err := Open(dir, testKey(), st, Options{})
	took = time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	w.abandon()
	had := make(map[string]bool, len(before))
	for _, e := range before {
		had[e.Name()] = true
	}
	for _, seg := range allSegments(t, dir) {
		if !had[filepath.Base(seg)] {
			os.Remove(seg)
		}
	}
	return res, took, m1.Mallocs - m0.Mallocs
}

// BenchmarkRecover times persist.Open on one directory built once: the
// microbenchmark behind recover_ms. ns/record and allocs/record are over the
// records recovered, so runs at different -benchtime compare.
func BenchmarkRecover(b *testing.B) {
	dir := recoveryDir(b, 30000)
	var records int
	var took time.Duration
	var mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, d, m := recoverOnce(b, dir)
		records += res.Records
		took += d
		mallocs += m
	}
	b.ReportMetric(float64(took.Nanoseconds())/float64(records), "ns/record")
	b.ReportMetric(float64(mallocs)/float64(records), "allocs/record")
	b.ReportMetric(float64(records)/float64(b.N), "records")
}

// TestRecoverAllocationBound pins what recovery allocates per record it
// recovers, scan and replay together: the scan decodes in place against pad
// blocks it holds by value and interns names, each replay worker compacts
// into one record buffer and pair set of its own, and what is left is what
// the store's own write and fetch allocate for the compacted form: 0.18
// measured on a 2-core x86-64 VM.
func TestRecoverAllocationBound(t *testing.T) {
	if race.Enabled {
		t.Skip("a sync.Pool discards at random under -race, and the store's writes recycle their handles")
	}
	dir := recoveryDir(t, 30000)
	recoverOnce(t, dir) // pools and lazy set-up
	res, _, mallocs := recoverOnce(t, dir)
	if res.Records < 10000 || res.Stripes != 2 {
		t.Fatalf("fixture: %d records on %d stripes", res.Records, res.Stripes)
	}
	if per := float64(mallocs) / float64(res.Records); per > 0.2 {
		t.Fatalf("recovery allocated %.2f times per record (%d over %d records), want <= 0.2", per, mallocs, res.Records)
	}
}

// nameOnStripe returns an object name the WAL routes to the given stripe.
func nameOnStripe(t *testing.T, w *WAL, stripe int) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if name := fmt.Sprintf("acct-%d", i); w.stripeOf(name).id == stripe {
			return name
		}
	}
	t.Fatalf("no name found for stripe %d", stripe)
	return ""
}

// TestRecoverHaltsOnObjectInTwoStripes: one object's records live in one
// stripe's files. A sealed segment of stripe 1 copied under a stripe 0 name
// — max-register writes only, which no per-object rule objects to twice —
// must halt recovery, naming the object and both stripes.
func TestRecoverHaltsOnObjectInTwoStripes(t *testing.T) {
	dir := t.TempDir()
	w, _, st := openWAL(t, dir, Options{Stripes: 2, SegmentBytes: 1 << 10})
	name := nameOnStripe(t, w, 1)
	obj, err := st.Open(name, store.MaxRegister)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 120; v++ {
		if err := obj.Write(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ds, err := readDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := ds.segments[1]
	if len(segs) < 3 {
		t.Fatalf("stripe 1 has %d segments, want a rotation or two", len(segs))
	}
	// Not the first (it holds the open record, and a second open halts as it
	// always did), not the last (empty but for its seal).
	img, err := os.ReadFile(filepath.Join(dir, segs[1].name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(0, 1<<32)), img, 0o600); err != nil {
		t.Fatal(err)
	}
	w2, _, err := Open(dir, testKey(), newTestStore(t), Options{})
	if err == nil {
		w2.Close()
		t.Fatal("recovery merged an object found in two stripes' files")
	}
	for _, want := range []string{fmt.Sprintf("%q", name), "stripe 0", "stripe 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("halt %q does not name %s", err, want)
		}
	}
}

// openFiles counts the process's open file descriptors.
func openFiles(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd here: %v", err)
	}
	return len(fds)
}

// TestRecoverErrorIsLowestStripe: with two stripes' sealed segments damaged,
// Open fails with the lower stripe's error every time — the stripes recover
// side by side, but which finished first is not what Open reports — and
// leaves nothing behind it: no goroutine, no open segment, no lock.
func TestRecoverErrorIsLowestStripe(t *testing.T) {
	dir := t.TempDir()
	w, _, st := openWAL(t, dir, Options{Stripes: 4, SegmentBytes: 1 << 10, Policy: SyncNever})
	for round := int64(0); round < 4; round++ {
		drive(t, st, 21+round, 16, 600)
		if err := w.Sync(); err != nil { // a stripe rotates between batches
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ds, err := readDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Damage every stripe that has a sealed segment besides its last; which
	// stripes rotated depends on how the batches fell.
	want, damaged := "", 0
	for sid := ds.maxStripe; sid >= 0; sid-- {
		if segs := ds.segments[sid]; len(segs) >= 2 {
			corruptByte(t, filepath.Join(dir, segs[0].name), headerLen+frameOverhead+1)
			want = segs[0].name
			damaged++
		}
	}
	if damaged < 2 {
		t.Fatalf("%d stripes rotated, want two to damage", damaged)
	}

	goroutines, files := runtime.NumGoroutine(), openFiles(t)
	for i := 0; i < 10; i++ {
		w, _, err := Open(dir, testKey(), newTestStore(t), Options{})
		if err == nil {
			w.Close()
			t.Fatal("recovery of damaged stripes succeeded")
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("open %d: halt %q is not the lowest damaged stripe's, in %s", i, err, want)
		}
		// Open returned, so its files are closed and the next Open gets the
		// directory at once; its goroutines have all passed their last
		// statement, and are gone as soon as the scheduler lets them.
		if f := openFiles(t); f > files {
			t.Fatalf("open %d left %d files open, had %d", i, f, files)
		}
		for wait := 0; runtime.NumGoroutine() > goroutines; wait++ {
			if wait == 1000 {
				t.Fatalf("open %d left %d goroutines, had %d", i, runtime.NumGoroutine(), goroutines)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestFailedReplayClosesEverything: a replay that fails — conflicting
// register writes at one seq — while the stripes' first segments are opened
// beside it returns the replay's error every time, and leaves no file open
// and the directory unlocked, whichever side finished first.
func TestFailedReplayClosesEverything(t *testing.T) {
	dir := t.TempDir()
	w, _, st := openWAL(t, dir, Options{Stripes: 4})
	drive(t, st, 9, 16, 400)
	name := nameOnStripe(t, w, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	const base = 1 << 32
	recs := []Record{
		{Op: OpOpen, Name: name, Kind: uint8(store.Register)},
		{Op: OpWrite, Name: name, Kind: uint8(store.Register), Seq: 1, Value: 10},
		{Op: OpWrite, Name: name, Kind: uint8(store.Register), Seq: 1, Value: 11},
	}
	if err := writeSealedFile(dir, segmentName(2, base), segMagic, base, testKey(), recs, []uint64{base, base + 1, base + 2}); err != nil {
		t.Fatal(err)
	}

	files := openFiles(t)
	var want string
	for i := 0; i < 10; i++ {
		w, _, err := Open(dir, testKey(), newTestStore(t), Options{})
		if err == nil {
			w.Close()
			t.Fatal("recovery replayed conflicting writes")
		}
		if i == 0 {
			want = err.Error()
		}
		if !strings.Contains(err.Error(), "conflicting writes") || err.Error() != want {
			t.Fatalf("open %d: %q, want the replay's error %q", i, err, want)
		}
		if f := openFiles(t); f > files {
			t.Fatalf("open %d left %d files open, had %d", i, f, files)
		}
	}
	lock, err := lockDir(dir)
	if err != nil {
		t.Fatalf("the failed opens kept the lock: %v", err)
	}
	lock.Close()
}

// TestOpenRefusesVersion2: a directory written at file version 2, whose
// keystream this version no longer derives, is refused cleanly — an error
// naming the file and its version, every file as it was, the lock released,
// so that a second Open fails the same way and not on the lock.
func TestOpenRefusesVersion2(t *testing.T) {
	dir := t.TempDir()
	w, _, st := openWAL(t, dir, Options{Stripes: 2})
	drive(t, st, 7, 8, 200)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs := allSegments(t, dir)
	for _, seg := range segs { // a v2 header differs in its version alone
		img, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint32(img[8:], 2)
		if err := os.WriteFile(seg, img, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	image := func() map[string]string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string]string, len(entries))
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(b)
		}
		return files
	}
	before := image()
	var first error
	for i := 0; i < 2; i++ {
		w, _, err := Open(dir, testKey(), newTestStore(t), Options{})
		if err == nil {
			w.Close()
			t.Fatal("a version 2 directory opened")
		}
		if !strings.Contains(err.Error(), segs[0]) || !strings.Contains(err.Error(), "unsupported file version 2") {
			t.Fatalf("open %d: %q does not name %s and its version", i, err, segs[0])
		}
		if first == nil {
			first = err
		} else if err.Error() != first.Error() {
			t.Fatalf("second open: %q, first %q", err, first)
		}
		if !reflect.DeepEqual(image(), before) {
			t.Fatalf("open %d changed the directory", i)
		}
	}
}

// recovered is everything TestRecoveryIsScheduleIndependent compares between
// two recoveries of the same bytes.
type recovered struct {
	First, Second RecoverResult
	Pairs         map[string]pairSet
	Values        map[string]uint64
	NextPairs     map[string]pairSet
}

// TestRecoveryIsScheduleIndependent: how many stripes scan side by side and
// how many workers replay changes nothing recovery produces. Seeded
// histories — a snapshot, a tail, published audits, a kill and a frame torn
// off a tail — are recovered at GOMAXPROCS 1 and 4 from the same bytes, run
// on for a second generation (sequence numbers continue above the recovered
// ones, or its own recovery would halt) and recovered again: audits, values
// and every RecoverResult field must equal the GOMAXPROCS=1 run's.
func TestRecoveryIsScheduleIndependent(t *testing.T) {
	for _, stripes := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			ref := filepath.Join(t.TempDir(), "ref")
			w, _, st := openWAL(t, ref, Options{Stripes: stripes, SegmentBytes: 8 << 10, Policy: SyncNever})
			names := drive(t, st, int64(40+stripes), 12, 1500)
			if _, err := w.Snapshot(); err != nil {
				t.Fatal(err)
			}
			drive(t, st, int64(50+stripes), 12, 1500)
			pool, err := st.NewAuditPool()
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names[:5] {
				if _, err := pool.AuditObject(name); err != nil {
					t.Fatal(err)
				}
			}
			for i, name := range names { // a write behind every audit record: the tear below costs none
				if err := st.Write(name, uint64(1<<17+i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			w.abandon()
			// Tear the last frame off one stripe's crashed segment.
			ds, err := readDir(ref)
			if err != nil {
				t.Fatal(err)
			}
			var torn string
			for _, segs := range ds.segments {
				if seg := filepath.Join(ref, segs[len(segs)-1].name); validLenOf(t, seg) > headerLen {
					torn = seg
				}
			}
			if err := os.Truncate(torn, validLenOf(t, torn)-5); err != nil {
				t.Fatal(err)
			}

			var base recovered
			for _, procs := range []int{1, 4} {
				got := recoverTwice(t, ref, procs, names)
				if got.First.Stripes != stripes || got.First.TornBytes == 0 || len(got.First.AuditedNames) != 5 ||
					got.First.SnapshotCut == 0 || got.First.Replay.Fetches == 0 {
					t.Fatalf("GOMAXPROCS=%d: fixture recovered as %+v", procs, got.First)
				}
				if procs == 1 {
					base = got
					continue
				}
				if !reflect.DeepEqual(got.First, base.First) || !reflect.DeepEqual(got.Second, base.Second) {
					t.Errorf("GOMAXPROCS=%d recovered\n%+v\n%+v\nGOMAXPROCS=1 recovered\n%+v\n%+v", procs, got.First, got.Second, base.First, base.Second)
				}
				if !equalPairs(got.Pairs, base.Pairs) || !equalPairs(got.NextPairs, base.NextPairs) || !reflect.DeepEqual(got.Values, base.Values) {
					t.Errorf("GOMAXPROCS=%d recovered other audits or values than GOMAXPROCS=1", procs)
				}
			}
		})
	}
}

// TestRecoverReplaysTheSnapshotForm: recovery replays each object's compacted
// form, so a log and the snapshot Snapshot makes of it recover alike. A
// seeded four-stripe log is recovered as written and, from a copy, after a
// Snapshot: values, audit pairs and ReplayStats must be equal. A write the
// log holds only as the fetches that observed it is a write record in the
// snapshot, so Writes and Synthesized compare as one sum.
func TestRecoverReplaysTheSnapshotForm(t *testing.T) {
	ref := filepath.Join(t.TempDir(), "ref")
	w, _, st := openWAL(t, ref, Options{Stripes: 4, SegmentBytes: 8 << 10, Policy: SyncNever})
	names := drive(t, st, 31, 12, 3000)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "snap")
	copyDir(t, ref, snap)
	w, _, _ = openWAL(t, snap, Options{})
	if _, err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recoverDir := func(dir string) (ReplayStats, map[string]pairSet, map[string]uint64) {
		w, res, st := openWAL(t, dir, Options{})
		pairs := pairsOf(t, st)
		vals := valuesOf(t, st, names)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return res.Replay, pairs, vals
	}
	logStats, logPairs, logVals := recoverDir(ref)
	snapStats, snapPairs, snapVals := recoverDir(snap)
	if logStats.Objects != len(names) || logStats.Writes == 0 || logStats.Fetches == 0 {
		t.Fatalf("fixture replayed %+v", logStats)
	}
	if !equalPairs(logPairs, snapPairs) || !reflect.DeepEqual(logVals, snapVals) {
		t.Errorf("the log and its snapshot recovered other audits or values")
	}
	if logStats.Objects != snapStats.Objects || logStats.Fetches != snapStats.Fetches ||
		logStats.Writes+logStats.Synthesized != snapStats.Writes+snapStats.Synthesized || snapStats.Synthesized != 0 {
		t.Errorf("the log replayed %+v, its snapshot %+v", logStats, snapStats)
	}
}

// recoverTwice recovers a copy of ref at the given GOMAXPROCS, drives a
// second generation on it, closes, and recovers that.
func recoverTwice(t *testing.T, ref string, procs int, names []string) recovered {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	dir := filepath.Join(t.TempDir(), "copy")
	copyDir(t, ref, dir)

	var got recovered
	w, res, st := openWAL(t, dir, Options{Policy: SyncNever})
	got.First = *res
	got.Pairs = pairsOf(t, st)
	got.Values = valuesOf(t, st, names)
	// Values no object has held: a max register breaks a tie between equal
	// values by nonce, at random, and what the next reads log hangs on it.
	rng := rand.New(rand.NewSource(60))
	for i := 0; i < 800; i++ {
		obj, _ := st.Lookup(names[rng.Intn(len(names))])
		var err error
		if rng.Intn(100) < 40 {
			err = obj.Write(uint64(1<<18 + i))
		} else {
			_, err = obj.Read(rng.Intn(testReaders))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	want := pairsOf(t, st)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w, res, st = openWAL(t, dir, Options{})
	defer w.Close()
	got.Second = *res
	got.NextPairs = pairsOf(t, st)
	if !equalPairs(got.NextPairs, want) {
		t.Errorf("GOMAXPROCS=%d: the second generation's audits did not survive its restart", procs)
	}
	return got
}
