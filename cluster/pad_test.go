package cluster

import (
	"strings"
	"testing"

	"auditreg"
)

// TestPackUnpack round-trips the packing at every legal share width and its
// boundary values.
func TestPackUnpack(t *testing.T) {
	for shareLen := 1; shareLen <= 4; shareLen++ {
		widBits := 64 - 8*uint(shareLen)
		maxWid := uint64(1)<<widBits - 1
		maxShare := uint64(1)<<(8*uint(shareLen)) - 1
		for _, wid := range []uint64{0, 1, 7, maxWid} {
			for _, share := range []uint64{0, 1, 0xAB, maxShare} {
				p := Pack(wid, share, shareLen)
				gw, gs := Unpack(p, shareLen)
				if gw != wid || gs != share {
					t.Fatalf("shareLen=%d: Unpack(Pack(%d, %#x)) = (%d, %#x)", shareLen, wid, share, gw, gs)
				}
			}
		}
		// Ordering: wid dominates the packed comparison, which is what
		// makes writeMax newest-wid-wins.
		if Pack(2, 0, shareLen) <= Pack(1, maxShare, shareLen) {
			t.Fatalf("shareLen=%d: wid 2 packs below wid 1's largest share", shareLen)
		}
	}
}

// TestSharePadDomains checks that every derivation input separates pads:
// two pads agreeing across a changed node, name, wid, or secret would let
// one node's share leak another's.
func TestSharePadDomains(t *testing.T) {
	secret := auditreg.KeyFromSeed(1)
	base := SharePad(secret, 1, "obj", 1, 4)
	for name, other := range map[string]uint64{
		"node":   SharePad(secret, 2, "obj", 1, 4),
		"name":   SharePad(secret, 1, "obj2", 1, 4),
		"wid":    SharePad(secret, 1, "obj", 2, 4),
		"secret": SharePad(auditreg.KeyFromSeed(2), 1, "obj", 1, 4),
	} {
		if other == base {
			t.Errorf("pad collision when only %s differs", name)
		}
	}
	if again := SharePad(secret, 1, "obj", 1, 4); again != base {
		t.Errorf("SharePad not deterministic: %#x vs %#x", again, base)
	}
	for shareLen := 1; shareLen <= 4; shareLen++ {
		if p := SharePad(secret, 1, "obj", 1, shareLen); p>>(8*uint(shareLen)) != 0 {
			t.Errorf("shareLen=%d pad %#x wider than the share", shareLen, p)
		}
	}
}

// TestPadMemoNeverReusesAcrossInputs drives the read path's pad cache the way
// a reader does — one memo per (object, position), the wids of successive
// answers repeating, advancing, falling back (a stale node), starting at the
// wid an empty memo might be mistaken for and reaching the largest — and holds every answer to a fresh derivation. A
// memo knows only the wid it was last asked: what keeps a changed node or
// name from reusing a pad is that they never share a memo, so the test keeps
// a memo per (name, node) exactly as readRound.pads does and interleaves
// them.
func TestPadMemoNeverReusesAcrossInputs(t *testing.T) {
	secret := auditreg.KeyFromSeed(5)
	names := []string{"obj", "obj2"}
	const nodes, shareLen = 5, 3
	memos := make(map[string][]padMemo)
	for _, name := range names {
		memos[name] = make([]padMemo, nodes)
	}
	maxWid := uint64(1)<<(64-8*shareLen) - 1
	for step, wid := range []uint64{0, 0, 1, 1, 1, 2, 1, 2, 7, 7, maxWid, maxWid, 0, 3} {
		for _, name := range names {
			for i := range memos[name] {
				node := uint32(i + 1)
				got := memos[name][i].get(secret, node, name, wid, shareLen)
				if want := SharePad(secret, node, name, wid, shareLen); got != want {
					t.Fatalf("step %d: memoized pad of (%q, node %d, wid %d) = %#x, want %#x", step, name, node, wid, got, want)
				}
			}
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		memos["obj"][0].get(secret, 1, "obj", 3, shareLen)
		memos["obj"][0].get(secret, 1, "obj", 4, shareLen)
	}); avg != 0 {
		t.Fatalf("padMemo.get allocates %.1f times per call, want 0", avg)
	}
}

// TestSharePadVectors pins the derivation bit for bit — shares already on
// disk sit under these pads — on both sides of the stack buffer's edge (a
// 118-byte name is the longest it holds) and of wire.MaxName. The values were
// taken from the implementation that assembled every input in one 1.1 KiB
// buffer.
func TestSharePadVectors(t *testing.T) {
	secret := auditreg.KeyFromSeed(7)
	for _, v := range []struct {
		nameLen int
		pad     uint64
	}{
		{0, 0x8e936ab8}, {12, 0x2a2fe399}, {118, 0x894ecdc0}, {119, 0x301493c3},
		{400, 0x43ed2c10}, {1024, 0xa0335023}, {1025, 0x253d11fd},
	} {
		if got := SharePad(secret, 3, strings.Repeat("n", v.nameLen), 0x1234567, 4); got != v.pad {
			t.Errorf("%d-byte name: pad %#x, want %#x", v.nameLen, got, v.pad)
		}
	}
}

// TestShareBytesRoundTrip pins the byte-order contract between the IDA
// share slices and their packed uint64 transport form.
func TestShareBytesRoundTrip(t *testing.T) {
	for _, b := range [][]byte{{0x01}, {0xAB, 0xCD}, {0x00, 0x01, 0x02}, {0xDE, 0xAD, 0xBE, 0xEF}} {
		v := ShareToUint(b)
		out := make([]byte, len(b))
		uintToShare(out, v)
		for i := range b {
			if out[i] != b[i] {
				t.Fatalf("round trip %x -> %#x -> %x", b, v, out)
			}
		}
	}
}

// TestSharePadAllocFree pins the pad derivation's zero-allocation contract:
// it runs once per share per cluster write, read, and audit-merge row. The
// CI bench-smoke job runs this by its Alloc name.
func TestSharePadAllocFree(t *testing.T) {
	secret := auditreg.KeyFromSeed(3)
	if avg := testing.AllocsPerRun(200, func() {
		SharePad(secret, 3, "bench/object", 12345, 3)
	}); avg != 0 {
		t.Fatalf("SharePad allocates %.1f times per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		Pack(5, 0xAB, 3)
		Unpack(0xDEADBEEF, 3)
	}); avg != 0 {
		t.Fatalf("Pack/Unpack allocate %.1f times per call, want 0", avg)
	}
}
