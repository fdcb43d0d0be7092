package client

import (
	"testing"

	"auditreg"
	"auditreg/internal/race"
	"auditreg/server"
	"auditreg/store"
)

// TestRoundTripAllocationFree pins what a request costs the client at
// steady state: nothing. The frame buffer, the leg and the channel the
// caller parks on are all recycled, the flush reuses its iovec, and the
// response is decoded in the read loop's buffer. The server runs in process,
// so the counts include it: its silent-read path is allocation-free too, and
// its write path amortizes one pad block over four sequence numbers —
// below one allocation per op, which AllocsPerRun truncates to zero.
func TestRoundTripAllocationFree(t *testing.T) {
	if race.Enabled {
		t.Skip("a sync.Pool discards at random under -race")
	}
	ln := listenTCP(t)
	serve(t, server.Config{Readers: 4}, ln)
	cl, err := Dial(ln.Addr().String(), WithConns(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	obj, err := cl.Open("alloc/reg", store.Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 8; i++ { // warm the pools, the history chunks, the pad windows
		if err := obj.Write(1); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if _, err := obj.Read(0); err != nil {
			t.Fatalf("Read: %v", err)
		}
	}
	if n := testing.AllocsPerRun(2000, func() {
		if err := obj.Write(1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Write round trip allocated %v times per run (client and server together), want < 1", n)
	}
	if _, err := obj.Read(0); err != nil { // the one effective read; the rest are silent
		t.Fatalf("Read: %v", err)
	}
	if n := testing.AllocsPerRun(2000, func() {
		if _, err := obj.Read(0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("silent Read round trip allocated %v times per run, want 0", n)
	}
}

// TestTailAuditAllocationBound pins what a tailing auditor pays for looking
// again when nothing happened: one one-row AUDIT round trip, a constant
// handful of allocations on both ends — the request body, the server's
// decoded name and its one-row response — whatever the length of the history
// behind the cursor. (At the parent commit the client alone allocated per
// audited pair: the cumulative report was re-decoded and re-deduplicated on
// every audit.)
func TestTailAuditAllocationBound(t *testing.T) {
	if race.Enabled {
		t.Skip("a sync.Pool discards at random under -race")
	}
	ln := listenTCP(t)
	serve(t, server.Config{Readers: 4}, ln)
	cl, err := Dial(ln.Addr().String(), WithConns(1), WithKey(auditreg.KeyFromSeed(91))) // serve's key
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	obj, err := cl.Open("alloc/tail", store.Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	aud, err := obj.Auditor()
	if err != nil {
		t.Fatalf("Auditor: %v", err)
	}
	var v uint64
	for _, history := range []int{50, 1600} {
		for ; v < uint64(history); v++ {
			if err := obj.Write(v + 1); err != nil {
				t.Fatalf("Write: %v", err)
			}
			if _, err := obj.Read(int(v % 4)); err != nil {
				t.Fatalf("Read: %v", err)
			}
		}
		rep, err := aud.Audit() // folds what is new; the runs below find nothing new
		if err != nil || rep.Len() != history {
			t.Fatalf("audit at %d writes of history: %d pairs, err %v", history, rep.Len(), err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if rep, err := aud.Audit(); err != nil || rep.Len() != history {
				t.Fatalf("quiescent re-audit: %d pairs, err %v", rep.Len(), err)
			}
		}); n > 12 {
			t.Errorf("quiescent re-audit at %d writes of history allocated %v times (client and server together), want a constant <= 12", history, n)
		} else {
			t.Logf("quiescent re-audit at %d writes of history: %v allocations", history, n)
		}
	}
}
