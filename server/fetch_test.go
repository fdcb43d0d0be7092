package server

import (
	"testing"

	"auditreg"
	"auditreg/store"
	"auditreg/wire"
)

// statsByName returns a server's STATS pairs by name.
func statsByName(srv *Server) map[string]uint64 {
	m := make(map[string]uint64)
	for _, p := range srv.statPairs(srv.snapshotCounters()) {
		m[p.Name] = p.Value
	}
	return m
}

// answer executes one request on c and returns its response frame.
func answer(t *testing.T, c *conn, verb wire.Verb, body []byte) wire.Frame {
	t.Helper()
	c.execute(1, verb, body)
	if len(c.pend) != 1 {
		t.Fatalf("%v: %d responses pending, want 1", verb, len(c.pend))
	}
	f, _, err := wire.ParseFrame(append([]byte(nil), c.pend[0].B...))
	if err != nil {
		t.Fatalf("%v: parse response: %v", verb, err)
	}
	recycle(c)
	return f
}

// TestFetchVerbs runs READ-FETCH and SHARE-FETCH against one MaxRegister, on
// an honest server and on one with CorruptShares. The two verbs are one
// fetch: the same Fetched, Seq and unmasked value, each counted under its
// own STATS names, and only SHARE-FETCH insists on a MaxRegister and is
// where CorruptShares lies.
func TestFetchVerbs(t *testing.T) {
	const value = 0xBEEF12
	for _, corrupt := range []bool{false, true} {
		srv, err := New(Config{Key: auditreg.KeyFromSeed(9), Readers: 4, CorruptShares: corrupt})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		c := &conn{srv: srv}
		obj, err := srv.Store().Open("fetch/max", store.MaxRegister)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if err := obj.Write(value); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if _, err := srv.Store().Open("fetch/reg", store.Register); err != nil {
			t.Fatalf("Open: %v", err)
		}

		type result struct {
			fetched bool
			seq     uint64
			value   uint64
		}
		// fetch reads the object as reader, with the cache at prevSeq, and
		// returns the response with its value unmasked.
		fetch := func(verb wire.Verb, reader uint8, prevSeq uint64) result {
			t.Helper()
			f := answer(t, c, verb, (&wire.ReadFetchReq{Name: "fetch/max", Reader: reader, PrevSeq: prevSeq}).Append(nil))
			if f.Verb != verb {
				t.Fatalf("%v answered %v", verb, f.Verb)
			}
			var resp wire.ReadFetchResp
			if err := resp.Decode(f.Body); err != nil {
				t.Fatalf("%v: decode: %v", verb, err)
			}
			r := result{fetched: resp.Fetched, seq: resp.Seq}
			if resp.Seq != prevSeq {
				r.value = resp.Value ^ wire.ValueMask(c.session, "fetch/max", reader, resp.Seq)
			}
			return r
		}

		results := make(map[wire.Verb]result)
		for reader, verb := range []wire.Verb{wire.VerbReadFetch, wire.VerbShareFetch} {
			first := fetch(verb, uint8(reader), ^uint64(0))
			if again := fetch(verb, uint8(reader), first.seq); again != (result{seq: first.seq}) {
				t.Errorf("corrupt=%v %v: re-fetch at the cached seq = %+v, want silent and valueless", corrupt, verb, again)
			}
			results[verb] = first
		}
		read, share := results[wire.VerbReadFetch], results[wire.VerbShareFetch]
		if want := (result{fetched: true, seq: read.seq, value: value}); read != want {
			t.Errorf("corrupt=%v: READ-FETCH = %+v, want %+v", corrupt, read, want)
		}
		want := read
		if corrupt {
			want.value ^= 1 // the low bit of the packed share, flipped on the wire
		}
		if share != want {
			t.Errorf("corrupt=%v: SHARE-FETCH = %+v, want %+v", corrupt, share, want)
		}

		st := statsByName(srv)
		corrupts := uint64(0)
		if corrupt {
			corrupts = 1
		}
		for name, want := range map[string]uint64{
			"reads-fetched": 1, "reads-silent": 1,
			"share-fetches": 1, "share-silent": 1,
			"share-corrupts-served": corrupts,
			"announces":             2,
		} {
			if st[name] != want {
				t.Errorf("corrupt=%v: %s = %d, want %d", corrupt, name, st[name], want)
			}
		}

		// A share object is a max register: SHARE-FETCH refuses a Register
		// and counts nothing, where READ-FETCH reads it.
		f := answer(t, c, wire.VerbShareFetch, (&wire.ReadFetchReq{Name: "fetch/reg", Reader: 0, PrevSeq: ^uint64(0)}).Append(nil))
		var er wire.ErrResp
		if f.Verb != wire.VerbErr || er.Decode(f.Body) != nil || er.Code != wire.CodeShareMode {
			t.Errorf("corrupt=%v: SHARE-FETCH on a Register answered %v %+v, want CodeShareMode", corrupt, f.Verb, er)
		}
		if f := answer(t, c, wire.VerbReadFetch, (&wire.ReadFetchReq{Name: "fetch/reg", Reader: 0, PrevSeq: ^uint64(0)}).Append(nil)); f.Verb != wire.VerbReadFetch {
			t.Errorf("corrupt=%v: READ-FETCH on a Register answered %v", corrupt, f.Verb)
		}
		after := statsByName(srv)
		if after["share-fetches"] != 1 || after["share-silent"] != 1 || after["reads-fetched"] != 2 {
			t.Errorf("corrupt=%v: after the Register fetches: share-fetches %d share-silent %d reads-fetched %d, want 1 1 2",
				corrupt, after["share-fetches"], after["share-silent"], after["reads-fetched"])
		}
	}
}
