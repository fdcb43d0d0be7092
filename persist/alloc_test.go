package persist

import (
	"testing"

	"auditreg/internal/race"
	"auditreg/store"
)

// TestFrameEncodeAllocationBound pins the WAL writer's per-record encode
// cost: appending an encrypted frame into a reused batch buffer allocates
// nothing. The cursor derives its pad blocks by value, so walking fresh
// keystream — every run below appends at the next offset — is as free as
// re-walking the block the last frame ended in.
func TestFrameEncodeAllocationBound(t *testing.T) {
	ps := newPadStream(testKey(), &fuzzNonce)
	rec := Record{Op: OpFetch, Name: "acct/0000001", Kind: uint8(store.Register), Reader: 3, Seq: 9, Value: 0xA1B2}
	buf := make([]byte, 0, 4096)
	off := int64(headerLen)
	if n := testing.AllocsPerRun(1000, func() {
		out := appendFrame(buf, &ps, off, 7, &rec)
		if len(out) < frameOverhead {
			t.Fatal("short frame")
		}
		off += int64(len(out))
	}); n != 0 {
		t.Fatalf("frame encode allocated %v times per run, want 0", n)
	}
}

// TestFrameDecodeAllocationBound pins the recovery-side decode cost: a frame
// is decrypted into the decoder's own buffer against a pad block held by
// value, so the one allocation left is the record's name string — and a
// scan that interns names against its model (the second case) has none.
func TestFrameDecodeAllocationBound(t *testing.T) {
	ps := newPadStream(testKey(), &fuzzNonce)
	rec := Record{Op: OpFetch, Name: "acct/0000001", Kind: uint8(store.Register), Reader: 3, Seq: 9, Value: 0xA1B2}
	frame := appendFrame(nil, &ps, int64(headerLen), 7, &rec)
	m := newRecoverModel()
	if err := m.add(&rec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		intern func([]byte) string
		bound  float64
	}{
		{"fresh names", freshName, 1},
		{"interned names", m.intern, 0},
	} {
		d := &frameDecoder{ps: ps, intern: tc.intern}
		if n := testing.AllocsPerRun(1000, func() {
			got, lsn, rest, err := d.parseFrame(frame, int64(headerLen))
			if err != nil || lsn != 7 || len(rest) != 0 || got != rec {
				t.Fatalf("parse: %v %d %d %+v", err, lsn, len(rest), got)
			}
		}); n > tc.bound {
			t.Errorf("%s: frame decode allocated %v times per run, want <= %v", tc.name, n, tc.bound)
		}
	}
}

// TestBlockingRecordAllocations pins what one WAL.Record costs the heap:
// nothing. A blocking write commits its stripe on its caller's goroutine —
// batch buffers recycled, the keystream cursor deriving pad blocks by value —
// and waits out its fdatasync on a pooled ticket. An announce returns before
// any commit touches it and allocates nothing on its caller's side; the
// stripe's loop is parked for that measurement, since when its tick runs
// relative to the count would otherwise decide the result.
func TestBlockingRecordAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("a sync.Pool discards at random under -race")
	}
	w, _, _ := openWAL(t, t.TempDir(), Options{Policy: SyncAlways, Stripes: 1})
	defer w.Close()
	record := func(r store.JournalRecord[uint64]) func() {
		return func() {
			if err := w.Record(r); err != nil {
				t.Fatalf("Record(%v): %v", r.Op, err)
			}
		}
	}
	write := record(store.JournalRecord[uint64]{Op: store.JournalWrite, Name: "acct/0000001", Kind: store.Register, Seq: 1, Value: 0xA1B2})
	announce := record(store.JournalRecord[uint64]{Op: store.JournalAnnounce, Name: "acct/0000001", Kind: store.Register, Reader: 3, Seq: 1})

	for range 50 { // warm the buffers and the ticket pool
		write()
	}
	if n := testing.AllocsPerRun(200, write); n != 0 {
		t.Errorf("blocking write: WAL.Record allocated %v times per run, want 0", n)
	}

	// park holds the stripe's loop in a flush barrier until the returned
	// channel is read: appends queue in the buffer, untouched.
	park := func() chan error {
		reply := make(chan error)
		w.groups[0].flushc <- reply
		return reply
	}
	parked := park()
	for range 300 { // grow the append buffer past what the count appends
		announce()
	}
	<-parked
	parked = park()
	n := testing.AllocsPerRun(200, announce)
	if err := <-parked; err != nil {
		t.Fatalf("flush: %v", err)
	}
	if n != 0 {
		t.Errorf("announce: WAL.Record allocated %v times per run, want 0", n)
	}
}
