package server_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"auditreg"
	"auditreg/client"
	"auditreg/server"
	"auditreg/store"
	"auditreg/wire"
)

// frameLog captures every frame the server transmits or receives, via the
// server's FrameTap hook.
type frameLog struct {
	mu     sync.Mutex
	frames []taggedFrame
}

type taggedFrame struct {
	outbound bool
	raw      []byte
}

func (l *frameLog) tap(outbound bool, frame []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.frames = append(l.frames, taggedFrame{outbound, append([]byte(nil), frame...)})
}

func (l *frameLog) snapshot() []taggedFrame {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]taggedFrame(nil), l.frames...)
}

// TestNoDecryptedReaderSetOnTheWire is the wire-level leak-freedom check:
// after driving known traffic, it decodes every frame the server transmitted
// and asserts that no decrypted reader set — and no cleartext read value —
// ever appeared in any of them, while the masked fields do unmask to the
// ground truth with the right pads. Reader sets are decrypted only
// client-side, by key holders.
func TestNoDecryptedReaderSetOnTheWire(t *testing.T) {
	key := auditreg.KeyFromSeed(99)
	log := &frameLog{}
	srv := startServer(t, server.Config{Key: key, Readers: 8, FrameTap: log.tap})
	addr := addrOf(t, srv)

	cl, err := client.Dial(addr, client.WithKey(key), client.WithConns(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	const name = "secret/ledger"
	obj, err := cl.Open(name, store.Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	// Known traffic: distinctive values, three reader principals.
	written := map[uint64]bool{0: true} // 0 is the initial value
	for i := 1; i <= 6; i++ {
		v := 0xA1B2_0000_0000_0000 + uint64(i)
		written[v] = true
		if err := obj.Write(v); err != nil {
			t.Fatalf("Write: %v", err)
		}
		for j := 0; j < 3; j++ {
			if _, err := obj.Read(j); err != nil {
				t.Fatalf("Read: %v", err)
			}
		}
	}
	aud, err := obj.Auditor()
	if err != nil {
		t.Fatalf("Auditor: %v", err)
	}
	remote, err := aud.Audit()
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}

	// Ground truth, computed server-side without the network.
	ground, err := srv.Store().Audit(name)
	if err != nil {
		t.Fatalf("local Audit: %v", err)
	}
	if !remote.Same(ground) {
		t.Fatalf("remote audit %v != ground truth %v", remote.Report, ground.Report)
	}
	truth := map[uint64]uint64{} // value -> true reader bitmask
	for _, e := range ground.Report.Entries() {
		truth[e.Value] |= 1 << uint(e.Reader)
	}

	// Walk the frame log: pair requests to responses by id, collect the
	// session secret from OPEN responses, and check every transmitted
	// frame.
	frames := log.snapshot()
	var session [wire.SessionLen]byte
	haveSession := false
	reqs := map[uint64]wire.ReadFetchReq{}
	auditResps, fetchResps := 0, 0
	for _, tf := range frames {
		f, rest, err := wire.ParseFrame(tf.raw)
		if err != nil || len(rest) != 0 {
			t.Fatalf("tap captured a malformed frame: %v", err)
		}
		if !tf.outbound {
			if f.Verb == wire.VerbReadFetch {
				var req wire.ReadFetchReq
				if err := req.Decode(f.Body); err != nil {
					t.Fatalf("request decode: %v", err)
				}
				reqs[f.ID] = req
			}
			continue
		}
		switch f.Verb {
		case wire.VerbOpen:
			var resp wire.OpenResp
			if err := resp.Decode(f.Body); err != nil {
				t.Fatalf("OpenResp decode: %v", err)
			}
			session = resp.Session
			haveSession = true
		case wire.VerbReadFetch:
			fetchResps++
			var resp wire.ReadFetchResp
			if err := resp.Decode(f.Body); err != nil {
				t.Fatalf("ReadFetchResp decode: %v", err)
			}
			req, ok := reqs[f.ID]
			if !ok {
				t.Fatalf("fetch response %d without a captured request", f.ID)
			}
			if resp.Seq == req.PrevSeq {
				if resp.Value != 0 {
					t.Fatalf("silent fetch response carries value %#x", resp.Value)
				}
				continue
			}
			// A value was shipped: it must be masked on the wire and
			// unmask, under the session pad, to a genuinely written value.
			if !haveSession {
				t.Fatal("fetch response before any OPEN response")
			}
			plain := resp.Value ^ wire.ValueMask(session, name, req.Reader, resp.Seq)
			if !written[plain] {
				t.Fatalf("fetch response for seq %d unmasks to %#x, not a written value", resp.Seq, plain)
			}
			if written[resp.Value] {
				t.Fatalf("fetch response transmitted cleartext value %#x", resp.Value)
			}
		case wire.VerbAudit:
			auditResps++
			var resp wire.AuditResp
			if err := resp.Decode(f.Body); err != nil {
				t.Fatalf("AuditResp decode: %v", err)
			}
			// One row per sequence number, read or not: both words masked,
			// both unmasking to the ground truth (the object is quiescent, so
			// the current row is final too).
			clear := append([]wire.AuditRow(nil), resp.Rows...)
			wire.MaskAuditRows(key, resp.Nonce, clear)
			for i, row := range resp.Rows {
				if !written[clear[i].Value] {
					t.Fatalf("audit row %d unmasks to %#x, not a written value", i, clear[i].Value)
				}
				if written[row.Value] {
					t.Fatalf("audit row %d transmitted cleartext value %#x", i, row.Value)
				}
				want := truth[clear[i].Value]
				if row.Readers == want && want != 0 {
					t.Fatalf("audit row %d transmitted the decrypted reader set %#b", i, want)
				}
				if clear[i].Readers != want {
					t.Fatalf("audit row %d unmasks to %#b, want %#b", i, clear[i].Readers, want)
				}
			}
		}
		// Raw-bytes sweep, independent of the decoders: the 16-byte
		// cleartext (value, readers) row a naive audit response would
		// contain must not appear anywhere in any transmitted frame.
		for value, readers := range truth {
			if readers == 0 {
				continue
			}
			var row [16]byte
			binary.BigEndian.PutUint64(row[:8], value)
			binary.BigEndian.PutUint64(row[8:], readers)
			if bytes.Contains(tf.raw, row[:]) {
				t.Fatalf("transmitted frame (verb %v) contains cleartext audit row for value %#x", f.Verb, value)
			}
		}
	}
	if auditResps == 0 || fetchResps == 0 {
		t.Fatalf("frame log incomplete: %d audit responses, %d fetch responses", auditResps, fetchResps)
	}

	// Sanity for the check itself: a hypothetical cleartext audit response
	// WOULD trip the raw-bytes sweep.
	cleartext := wire.AuditResp{Kind: wire.KindRegister}
	for value, readers := range truth {
		cleartext.Rows = append(cleartext.Rows, wire.AuditRow{Value: value, Readers: readers})
	}
	leaky := wire.AppendFrame(nil, 1, wire.VerbAudit, cleartext.Append(nil))
	tripped := false
	for value, readers := range truth {
		if readers == 0 {
			continue
		}
		var row [16]byte
		binary.BigEndian.PutUint64(row[:8], value)
		binary.BigEndian.PutUint64(row[8:], readers)
		if bytes.Contains(leaky, row[:]) {
			tripped = true
		}
	}
	if !tripped {
		t.Fatal("self-check failed: the sweep cannot detect a cleartext row")
	}
}

// TestRecycledBuffersHoldNoPlaintextReaderSets extends the wire-level sweep
// to the frame-buffer arena: pooled buffers keep their contents between
// uses, so if any layer ever placed a decrypted reader set (or a cleartext
// audit row) in a frame, the secret would linger in recycled memory beyond
// the request that produced it. After driving audit-heavy traffic, the test
// drains the arena and sweeps every recycled buffer's full capacity — the
// bytes past len() included — for the cleartext rows of the ground truth.
func TestRecycledBuffersHoldNoPlaintextReaderSets(t *testing.T) {
	key := auditreg.KeyFromSeed(123)
	srv := startServer(t, server.Config{Key: key, Readers: 8})
	addr := addrOf(t, srv)

	cl, err := client.Dial(addr, client.WithKey(key), client.WithConns(2))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	const name = "secret/arena"
	obj, err := cl.Open(name, store.Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	aud, err := obj.Auditor()
	if err != nil {
		t.Fatalf("Auditor: %v", err)
	}
	for i := 1; i <= 8; i++ {
		if err := obj.Write(0xBEEF_0000_0000_0000 + uint64(i)); err != nil {
			t.Fatalf("Write: %v", err)
		}
		for j := 0; j < 4; j++ {
			if _, err := obj.Read(j); err != nil {
				t.Fatalf("Read: %v", err)
			}
		}
		if _, err := aud.Audit(); err != nil {
			t.Fatalf("Audit: %v", err)
		}
	}
	ground, err := srv.Store().Audit(name)
	if err != nil {
		t.Fatalf("local Audit: %v", err)
	}
	truth := map[uint64]uint64{}
	for _, e := range ground.Report.Entries() {
		truth[e.Value] |= 1 << uint(e.Reader)
	}
	if len(truth) < 8 {
		t.Fatalf("ground truth too small: %d rows", len(truth))
	}

	// Drain the arena: every buffer the traffic above recycled comes back
	// out with its stale contents intact. Sweep the full capacity.
	var bufs []*wire.Buf
	for _, class := range []int{64, 2 << 10, 32 << 10} {
		for i := 0; i < 64; i++ {
			bufs = append(bufs, wire.GetBuf(class))
		}
	}
	swept := 0
	for _, b := range bufs {
		raw := b.B[:cap(b.B)]
		swept += len(raw)
		for value, readers := range truth {
			var row [16]byte
			binary.BigEndian.PutUint64(row[:8], value)
			binary.BigEndian.PutUint64(row[8:], readers)
			if bytes.Contains(raw, row[:]) {
				t.Fatalf("recycled buffer retains cleartext audit row for value %#x", value)
			}
		}
	}
	for _, b := range bufs {
		wire.PutBuf(b)
	}
	if swept == 0 {
		t.Fatal("swept no recycled bytes")
	}
}

// TestPooledBufferRetention drives heavily concurrent mixed traffic through
// the pooled request path; under -race (CI runs it so) any frame buffer
// retained past its PutBuf — a reuse-after-recycle, which would also be a
// confidentiality hazard — shows up as a data race between the retaining
// goroutine and the buffer's next owner.
func TestPooledBufferRetention(t *testing.T) {
	key := auditreg.KeyFromSeed(321)
	srv := startServer(t, server.Config{Key: key, Readers: 8})
	addr := addrOf(t, srv)

	cl, err := client.Dial(addr, client.WithKey(key), client.WithConns(4))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	objs := make([]*client.Object, 8)
	for i := range objs {
		kind := store.Register
		if i%2 == 1 {
			kind = store.MaxRegister
		}
		if objs[i], err = cl.Open(fmt.Sprintf("stress/%d", i), kind); err != nil {
			t.Fatalf("Open: %v", err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			obj := objs[g]
			aud, err := obj.Auditor()
			if err != nil {
				t.Errorf("Auditor: %v", err)
				return
			}
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					if err := obj.Write(uint64(g)<<32 + uint64(i)); err != nil {
						t.Errorf("Write: %v", err)
						return
					}
				case 3:
					if _, err := aud.Latest(); err != nil {
						t.Errorf("Latest: %v", err)
						return
					}
				default:
					if _, err := obj.Read(g % obj.Readers()); err != nil {
						t.Errorf("Read: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSessionSecretsDifferPerConnection pins that two connections get
// distinct session secrets, so one principal's masked values are opaque to
// another principal even if frames are observed across sessions.
func TestSessionSecretsDifferPerConnection(t *testing.T) {
	key := auditreg.KeyFromSeed(7)
	log := &frameLog{}
	srv := startServer(t, server.Config{Key: key, FrameTap: log.tap})
	addr := addrOf(t, srv)

	var sessions [][wire.SessionLen]byte
	for i := 0; i < 2; i++ {
		cl, err := client.Dial(addr, client.WithConns(1))
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		if _, err := cl.Open("obj", store.Register); err != nil {
			t.Fatalf("Open: %v", err)
		}
		cl.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(sessions) < 2 && time.Now().Before(deadline) {
		sessions = sessions[:0]
		for _, tf := range log.snapshot() {
			if !tf.outbound {
				continue
			}
			f, _, err := wire.ParseFrame(tf.raw)
			if err != nil || f.Verb != wire.VerbOpen {
				continue
			}
			var resp wire.OpenResp
			if err := resp.Decode(f.Body); err != nil {
				continue
			}
			sessions = append(sessions, resp.Session)
		}
		time.Sleep(time.Millisecond)
	}
	if len(sessions) < 2 {
		t.Fatalf("captured %d OPEN responses, want 2", len(sessions))
	}
	if sessions[0] == sessions[1] {
		t.Fatal("two connections share one session secret")
	}
}
