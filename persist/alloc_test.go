package persist

import (
	"testing"

	"auditreg/store"
)

// TestFrameEncodeAllocationBound pins the WAL writer's per-record encode
// cost: appending an encrypted frame into a reused batch buffer allocates
// nothing except the pad blocks the stream derives — one small cached block
// per 32 keystream bytes, amortized across adjacent records of the batch
// (the BlockPads window serves re-walks of the same region for free).
func TestFrameEncodeAllocationBound(t *testing.T) {
	ps := newPadStream(testKey(), &fuzzNonce)
	rec := Record{Op: OpFetch, Name: "acct/0000001", Kind: uint8(store.Register), Reader: 3, Seq: 9, Value: 0xA1B2}
	buf := make([]byte, 0, 4096)
	off := int64(headerLen)
	// Warm the pad window for the offsets the loop below revisits.
	_ = appendFrame(buf, ps, off, 7, &rec)
	if n := testing.AllocsPerRun(1000, func() {
		out := appendFrame(buf, ps, off, 7, &rec)
		if len(out) < frameOverhead {
			t.Fatal("short frame")
		}
	}); n != 0 {
		t.Fatalf("frame encode allocated %v times per run (pad window warm)", n)
	}
}

// TestFrameDecodeAllocationBound pins the recovery-side decode cost: a frame
// is decrypted into the decoder's own buffer against a pad block held by
// value, so the one allocation left is the record's name string — and a
// scan that interns names against its model (the second case) has none.
func TestFrameDecodeAllocationBound(t *testing.T) {
	ps := newPadStream(testKey(), &fuzzNonce)
	rec := Record{Op: OpFetch, Name: "acct/0000001", Kind: uint8(store.Register), Reader: 3, Seq: 9, Value: 0xA1B2}
	frame := appendFrame(nil, ps, int64(headerLen), 7, &rec)
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
