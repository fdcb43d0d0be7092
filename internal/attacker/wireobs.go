package attacker

import (
	"fmt"
	"sync"

	"auditreg"
	"auditreg/client"
	"auditreg/server"
	"auditreg/store"
	"auditreg/wire"
)

// Wire-frame observer (E18, wire channel). The observer taps the audit
// channel of a live auditd — every frame the server exchanges with an
// auditor client — and tries to learn what the paper says the audit
// machinery must not reveal: whether a given reader read (read occurrence)
// and which reader read (reader identity). Reader principals' own channels
// are out of scope by the deployment model (each principal's connection is
// private to it — TLS in production — and a principal's own traffic
// trivially reveals its own actions); the audit channel is the one the
// auditing machinery adds, and the claim is that it carries reader sets only
// under fresh pads, so an observer of its frames — bytes, sizes, counts —
// sits at chance.
//
// The positive control replays the same games against the frames a leaky
// server would have sent: the captured audit responses with their masks
// stripped (the lab holds the key, so it can compute exactly the plaintext-
// tracking-bit frames of a naive implementation). The observer must detect
// those, or the game has no power.

// frameTap is a resettable FrameTap sink: the lab scopes each trial's
// observation window by resetting it right before the audited phase.
type frameTap struct {
	mu     sync.Mutex
	frames []tappedFrame
}

type tappedFrame struct {
	outbound bool
	raw      []byte
}

func (t *frameTap) tap(outbound bool, frame []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.frames = append(t.frames, tappedFrame{outbound, append([]byte(nil), frame...)})
}

func (t *frameTap) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.frames = t.frames[:0]
}

func (t *frameTap) snapshot() []tappedFrame {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]tappedFrame(nil), t.frames...)
}

// wireReaders is the reader count of the lab's objects; the observer gets
// one tracking-bit feature per reader.
const wireReaders = 4

// wireLab is one in-process auditd with a frame tap plus a victim client
// (the read traffic under test) and an auditor client (the observed
// channel). Trials use fresh objects.
type wireLab struct {
	key    auditreg.Key
	tap    *frameTap
	victim *client.Client
	audit  *client.Client
	ctr    int
}

func wireGames(l *lab, cfg Config) ([]Distinguisher, error) {
	w := &wireLab{key: auditreg.KeyFromSeed(cfg.Seed), tap: &frameTap{}}
	_, addr, err := l.serve(server.Config{Key: w.key, Readers: wireReaders, FrameTap: w.tap.tap}, nil)
	if err != nil {
		return nil, err
	}
	// Single-connection clients: the per-conn open cache keeps every trial's
	// observation window down to exactly the audit exchange.
	if w.victim, err = l.dial(addr, client.WithConns(1)); err != nil {
		return nil, err
	}
	if w.audit, err = l.dial(addr, client.WithKey(w.key), client.WithConns(1)); err != nil {
		return nil, err
	}
	// In the read games traffic volume is identical in both branches by
	// construction, so the only possible signal is the audited row's masked
	// reader set. The positive control sees the frames a leaky server
	// (plaintext tracking bits) would have transmitted.
	return append(readGames("wire", wireFeatures(), w.trial), w.auditTail(false), w.auditTail(true)), nil
}

// wireFeatures names the audit-channel feature vector: traffic shape
// (counts, sizes) plus the tracking bits of the audited row.
func wireFeatures() []string {
	names := []string{"frames", "bytes", "audit-rows", "row-found"}
	for j := 0; j < wireReaders; j++ {
		names = append(names, fmt.Sprintf("row-bit-%d", j))
	}
	return names
}

// auditTail is the tailing-auditor game: an auditor that already audited the
// object audits it again, and the secret is whether, in between, a second
// reader read the same current value. The response to a cursor is a function
// of the sequence range alone — the current row goes out again, whole, under
// a fresh nonce either way — so frames, bytes and rows are identical in both
// branches. leaky selects the positive control: the window replayed as an
// entry-index delta would have answered it, sending only the rows that hold a
// pair the auditor does not have yet — one row more exactly when the second
// reader read.
func (l *wireLab) auditTail(leaky bool) Distinguisher {
	return Distinguisher{
		Name:     gameName("wire/audit-tail", leaky),
		Control:  leaky,
		Features: []string{"frames", "bytes", "audit-rows"},
		Trial: func(b int) ([]float64, error) {
			obj, aud, _, err := l.open()
			if err != nil {
				return nil, err
			}
			if _, err := obj.Read(1); err != nil {
				return nil, err
			}
			before, err := aud.Audit()
			if err != nil {
				return nil, err
			}
			if b == 1 {
				if _, err := obj.Read(0); err != nil {
					return nil, err
				}
			}
			// Drain as trial does, with a read that is silent in both
			// branches: it must add no pair of its own.
			if _, err := obj.Read(1); err != nil {
				return nil, err
			}
			l.tap.reset()
			if _, err := aud.Audit(); err != nil {
				return nil, err
			}
			var known *auditreg.Report[uint64]
			if leaky {
				known = &before.Report
			}
			feats, err := wireFeaturesOf(l.tap.snapshot(), 0, false, l.key, known)
			if err != nil {
				return nil, err
			}
			return feats[:3], nil
		},
	}
}

// open starts one round: a fresh object holding one written value, and the
// auditor's handle on it.
func (l *wireLab) open() (obj *client.Object, aud *client.Auditor, value uint64, err error) {
	l.ctr++
	name := fmt.Sprintf("e18/wire/%08d", l.ctr)
	value = 0xE18_0000_0000 + uint64(l.ctr)
	if obj, err = l.victim.Open(name, store.Register); err != nil {
		return nil, nil, 0, err
	}
	if err = obj.Write(value); err != nil {
		return nil, nil, 0, err
	}
	aobj, err := l.audit.Open(name, store.Register)
	if err != nil {
		return nil, nil, 0, err
	}
	aud, err = aobj.Auditor()
	return obj, aud, value, err
}

// trial plays one round: fresh object, one write, the game's reads, a
// drain, then — inside the observation window — one audit.
func (l *wireLab) trial(unmasked bool, play game, b int) ([]float64, error) {
	obj, aud, value, err := l.open()
	if err != nil {
		return nil, err
	}
	if err := play(obj, b); err != nil {
		return nil, err
	}
	// Drain, identically in both branches: reader 2 never read this object,
	// so its first read is always an effective fetch and its second always
	// silent. A read puts nothing on the wire that outlives it any more (the
	// server performs the announce itself, so the client pipelines nothing
	// behind the fetch), and the single connection is FIFO: the second read
	// returns only after the server consumed every frame the game reads
	// above caused. After it, no victim frame can land inside the observation
	// window, and the drain's own traffic is independent of the secret.
	for i := 0; i < 2; i++ {
		if _, err := obj.Read(2); err != nil {
			return nil, err
		}
	}
	l.tap.reset()
	if _, err := aud.Audit(); err != nil {
		return nil, err
	}
	return wireFeaturesOf(l.tap.snapshot(), value, unmasked, l.key, nil)
}

// wireFeaturesOf extracts the observer's features from one window of audit-
// channel frames. The row under test is the current row, the last of the
// response (rows are one per sequence number, in order, and every game reads
// the newest value): the observer is given that much, and finds masked bits
// there. With unmask set, audit rows are stripped of their masks first — the
// positive control's leaky world — and the row is the one holding value. With
// known set, the window is replayed as an entry-index delta would have sent
// it: a row that holds no pair outside known is not sent.
func wireFeaturesOf(frames []tappedFrame, value uint64, unmask bool, key auditreg.Key, known *auditreg.Report[uint64]) ([]float64, error) {
	var totalBytes, rows, found float64
	bits := make([]float64, wireReaders)
	for j := range bits {
		bits[j] = 0.5 // absent row: no information either way
	}
	for _, tf := range frames {
		totalBytes += float64(len(tf.raw))
		if !tf.outbound {
			continue
		}
		f, rest, err := wire.ParseFrame(tf.raw)
		if err != nil || len(rest) != 0 {
			return nil, fmt.Errorf("attacker: tapped a malformed frame: %v", err)
		}
		if f.Verb != wire.VerbAudit {
			continue
		}
		var resp wire.AuditResp
		if err := resp.Decode(f.Body); err != nil {
			return nil, fmt.Errorf("attacker: audit response: %w", err)
		}
		clear := append([]wire.AuditRow(nil), resp.Rows...)
		wire.MaskAuditRows(key, resp.Nonce, clear)
		for i, row := range resp.Rows {
			if known != nil {
				fresh := false
				for j := 0; j < wireReaders; j++ {
					fresh = fresh || clear[i].Readers>>uint(j)&1 == 1 && !known.Contains(j, clear[i].Value)
				}
				if !fresh {
					totalBytes -= 16
					continue
				}
			}
			rows++
			hit := i == len(resp.Rows)-1 && !resp.More
			if unmask {
				row, hit = clear[i], clear[i].Value == value
			}
			if !hit {
				continue
			}
			found = 1
			for j := 0; j < wireReaders; j++ {
				bits[j] = float64((row.Readers >> uint(j)) & 1)
			}
		}
	}
	feats := []float64{float64(len(frames)), totalBytes, rows, found}
	return append(feats, bits...), nil
}
