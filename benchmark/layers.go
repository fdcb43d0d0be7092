package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"auditreg"
	"auditreg/client"
	"auditreg/cluster"
	"auditreg/internal/ida"
	"auditreg/internal/telem"
	"auditreg/persist"
	"auditreg/server"
	"auditreg/store"
	"auditreg/wire"
)

// layerRun replays the run's op stream into each layer in isolation, timing
// the layer's public functions from outside. Sub-microsecond calls are timed
// in homogeneous batches (one span per batch), so that two clock reads are
// spread over a few hundred calls; calls of a microsecond or more are timed
// one by one. Every number is a median over batches or calls.
type layerRun struct {
	st    stream
	calls int // calls per replayed function
	dir   string
	log   spanLog
	out   map[string]float64

	// Client-side share of one op's wire work (request encode + response
	// decode), kept apart for the budget behind stack.unaccounted_us: the
	// server-side share is already inside the server's stage histograms.
	wireClientNs float64
}

// batchSize is how many calls one batch span covers.
const batchSize = 256

// batches times f in batches of up to batchSize calls, one span per batch, and
// returns the median ns per call. f is handed the batch's first call index
// and its length.
func (lr *layerRun) batches(name string, n int, f func(first, k int)) float64 {
	var per []float64
	for first := 0; first < n; first += batchSize {
		k := min(batchSize, n-first)
		t0 := nanotime()
		f(first, k)
		t1 := nanotime()
		lr.log.spans = append(lr.log.spans, span{Name: name, Parent: -1, Start: t0, End: t1, N: k})
		per = append(per, float64(t1-t0)/float64(k))
	}
	return quantile(per, 0.5)
}

// each times n single calls, one span per call, and returns their durations
// in ns.
func (lr *layerRun) each(name string, n int, f func(i int) error) ([]float64, error) {
	per := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := nanotime()
		err := f(i)
		t1 := nanotime()
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", name, err)
		}
		lr.log.add(name, -1, uint64(i), t0, t1)
		per = append(per, float64(t1-t0))
	}
	return per, nil
}

// writeValues returns the values of the stream's first n writes, in order:
// increasing, as the rungs see them.
func (lr *layerRun) writeValues(n int) []uint64 {
	vals := make([]uint64, 0, n)
	for j := uint64(0); len(vals) < n; j++ {
		if o := lr.st.at(0, j); o.kind == opWrite {
			vals = append(vals, o.val)
		}
	}
	return vals
}

// run replays every layer. Layers are independent; the first failure stops
// the run, since a layer that cannot be driven is a broken benchmark.
func (lr *layerRun) run() error {
	for _, f := range []func() error{
		lr.algorithms, lr.otp, lr.store, lr.wire, lr.persist, lr.dispersal, lr.shareLeg,
	} {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

// handles is K independent objects of one algorithm, driven in rounds:
// every object takes one write, then one effective read, then one silent
// read. Spreading a batch over K objects is what lets effective reads — at
// most one per write per reader — be timed as a homogeneous batch.
type handles struct {
	write, read func(k int, v uint64) error
	audit       func(k int) error
}

func (lr *layerRun) rounds(prefix, wName, rName, sName string, h handles, k int) error {
	rounds := max(lr.calls/k, 2)
	vals := lr.writeValues(rounds * k)
	var werr error
	phase := func(f func(int, uint64) error, r int) func(first, n int) {
		return func(first, n int) {
			for i := first; i < first+n; i++ {
				if err := f(i, vals[r*k+i]); err != nil {
					werr = err
				}
			}
		}
	}
	var w, rd, sl []float64
	for r := 0; r < rounds; r++ {
		w = append(w, lr.batches(prefix+"."+wName, k, phase(h.write, r)))
		rd = append(rd, lr.batches(prefix+"."+rName, k, phase(h.read, r)))
		if sName != "" {
			sl = append(sl, lr.batches(prefix+"."+sName, k, phase(h.read, r)))
		}
	}
	if werr != nil {
		return fmt.Errorf("replay %s: %w", prefix, werr)
	}
	lr.out[prefix+"."+wName+"_ns"] = quantile(w, 0.5)
	lr.out[prefix+"."+rName+"_ns"] = quantile(rd, 0.5)
	if sName != "" {
		lr.out[prefix+"."+sName+"_ns"] = quantile(sl, 0.5)
	}
	if h.audit != nil {
		per, err := lr.each(prefix+".audit", k, h.audit)
		if err != nil {
			return err
		}
		lr.out[prefix+".audit_us_per_1k_writes"] = quantile(per, 0.5) / 1e3 / float64(rounds) * 1e3
	}
	return nil
}

// algorithms replays into bare Algorithm 1–3 objects through the root
// package's constructors: no store, no names, no locks around handles.
func (lr *layerRun) algorithms() error {
	const k, m = batchSize, store.DefaultReaders
	key := auditreg.KeyFromSeed(lr.st.seed)
	rounds := max(lr.calls/k, 2)
	less := func(a, b uint64) bool { return a < b }

	var derived func() uint64
	regW := make([]*auditreg.Writer[uint64], k)
	regR := make([]*auditreg.Reader[uint64], k)
	regA := make([]*auditreg.Register[uint64], k)
	maxW := make([]*auditreg.MaxWriter[uint64], k)
	maxR := make([]*auditreg.MaxReader[uint64], k)
	for i := 0; i < k; i++ {
		pads, err := auditreg.NewBlockPads(key, m)
		if err != nil {
			return err
		}
		if i == 0 {
			derived = pads.(interface{ Derivations() uint64 }).Derivations
		}
		reg, err := auditreg.NewRegister[uint64](m, 0, pads, auditreg.WithCapacity[uint64](rounds+2))
		if err != nil {
			return err
		}
		regA[i], regW[i] = reg, reg.Writer()
		if regR[i], err = reg.Reader(0); err != nil {
			return err
		}
		mr, err := auditreg.NewMaxRegister[uint64](m, 0, less, pads, auditreg.WithMaxCapacity[uint64](rounds+2))
		if err != nil {
			return err
		}
		if maxW[i], err = mr.Writer(auditreg.NewSeededNonces(lr.st.seed+uint64(i), uint8(i))); err != nil {
			return err
		}
		if maxR[i], err = mr.Reader(0); err != nil {
			return err
		}
	}
	err := lr.rounds("core", "write", "read", "silent_read", handles{
		write: func(i int, v uint64) error { return regW[i].Write(v) },
		read:  func(i int, _ uint64) error { regR[i].Read(); return nil },
		audit: func(i int) error { _, err := regA[i].Auditor().Audit(); return err },
	}, k)
	if err != nil {
		return err
	}
	// Register 0 shares its pad source with max register 0, which has not
	// run yet: the derivations so far are the register's alone.
	lr.out["otp.derivations_per_write"] = float64(derived()) / float64(rounds)
	if err := lr.rounds("maxreg", "write", "read", "", handles{
		write: func(i int, v uint64) error { return maxW[i].WriteMax(v) },
		read:  func(i int, _ uint64) error { maxR[i].Read(); return nil },
	}, k); err != nil {
		return err
	}

	const ks = batchSize / 4
	upd := make([][comps]*auditreg.SnapshotUpdater[uint64], ks)
	scan := make([]*auditreg.SnapshotScanner[uint64], ks)
	for i := 0; i < ks; i++ {
		pads, err := auditreg.NewBlockPads(key, m)
		if err != nil {
			return err
		}
		sn, err := auditreg.NewSnapshot[uint64](comps, m, 0, pads, auditreg.WithSnapshotCapacity[uint64](max(lr.calls/ks, 2)+2))
		if err != nil {
			return err
		}
		for c := range upd[i] {
			if upd[i][c], err = sn.Updater(c, auditreg.NewSeededNonces(lr.st.seed+uint64(i*comps+c), uint8(c))); err != nil {
				return err
			}
		}
		if scan[i], err = sn.Scanner(0); err != nil {
			return err
		}
	}
	return lr.rounds("snapshot", "update", "scan", "", handles{
		write: func(i int, v uint64) error { return upd[i][v%comps].Update(v) },
		read:  func(i int, _ uint64) error { scan[i].Scan(); return nil },
	}, ks)
}

// otp times pad lookups in sequence-number order, as a writer performs them.
func (lr *layerRun) otp() error {
	pads, err := auditreg.NewBlockPads(auditreg.KeyFromSeed(lr.st.seed), store.DefaultReaders)
	if err != nil {
		return err
	}
	var sink uint64
	lr.out["otp.mask_ns"] = lr.batches("otp.mask", lr.calls, func(first, n int) {
		for s := first; s < first+n; s++ {
			sink ^= pads.Mask(uint64(s))
		}
	})
	_ = sink
	return nil
}

// store replays caller 0's ops into a bare store holding the rung's objects.
// Ops are replayed in blocks of batchSize: a block's writes as one batch,
// then its reads as one batch, so each kind is timed without a clock read
// per call while objects and mix stay the stream's.
func (lr *layerRun) store() error {
	sp := lr.st.sp
	st, err := store.New[uint64](auditreg.KeyFromSeed(lr.st.seed),
		store.WithLess[uint64](func(a, b uint64) bool { return a < b }),
		store.WithNonces[uint64](func(id uint64) auditreg.NonceSource {
			return auditreg.NewSeededNonces(lr.st.seed+id, uint8(id))
		}))
	if err != nil {
		return err
	}
	names := make([]string, sp.objects)
	for i := range names {
		names[i] = objName(i)
		kind := sp.kindOf(i)
		if kind == store.Snapshot {
			kind = store.Register // Scan/UpdateAt have no name-keyed form; snapshot.* covers them
		}
		if _, err := st.Open(names[i], kind); err != nil {
			return err
		}
	}
	var opErr error
	var w, rd, lk []float64
	block := make([]op, 0, batchSize)
	for j := uint64(0); j < uint64(lr.calls); j += batchSize {
		block = block[:0]
		for i := uint64(0); i < batchSize; i++ {
			block = append(block, lr.st.at(0, j+i))
		}
		var writes, reads []op
		for _, o := range block {
			switch o.kind {
			case opWrite:
				writes = append(writes, o)
			case opRead:
				reads = append(reads, o)
			}
		}
		if len(writes) > 0 {
			w = append(w, lr.batches("store.write", len(writes), func(first, n int) {
				for _, o := range writes[first : first+n] {
					if err := st.Write(names[o.obj], o.val); err != nil {
						opErr = err
					}
				}
			}))
		}
		if len(reads) > 0 {
			rd = append(rd, lr.batches("store.read", len(reads), func(first, n int) {
				for _, o := range reads[first : first+n] {
					if _, err := st.Read(names[o.obj], 0); err != nil {
						opErr = err
					}
				}
			}))
		}
		lk = append(lk, lr.batches("store.lookup", len(block), func(first, n int) {
			for _, o := range block[first : first+n] {
				st.Lookup(names[o.obj])
			}
		}))
	}
	if opErr != nil {
		return fmt.Errorf("replay store: %w", opErr)
	}
	lr.out["store.write_ns"] = quantile(w, 0.5)
	lr.out["store.read_ns"] = quantile(rd, 0.5)
	lr.out["store.lookup_ns"] = quantile(lk, 0.5)

	per, err := lr.each("store.audit", sp.objects, func(i int) error {
		_, err := st.Audit(names[i])
		return err
	})
	if err != nil {
		return err
	}
	lr.out["store.audit_us"] = quantile(per, 0.5) / 1e3
	pool, err := st.NewAuditPool()
	if err != nil {
		return err
	}
	per, err = lr.each("store.pool_flush", 1, func(int) error { return pool.Flush() })
	if err != nil {
		return err
	}
	lr.out["store.pool_flush_ms"] = per[0] / 1e6
	return nil
}

// wire encodes and decodes the frames caller 0's ops put on the wire: the
// WRITE / READ-FETCH pair on the single-node rungs (and store-local, which
// has no wire of its own), SHARE-WRITE / SHARE-FETCH — one node's leg — on
// the cluster rungs.
func (lr *layerRun) wire() error {
	share := lr.st.sp.rung == rungCluster
	const shareLen = 3
	n := lr.calls
	ops := make([]op, n)
	for j := range ops {
		ops[j] = lr.st.at(0, uint64(j))
	}
	reqs := make([]byte, 0, n*48)
	resps := make([]byte, 0, n*40)
	var encErr error
	finish := func(buf []byte, start int, id uint64, verb wire.Verb) {
		if err := wire.EndFrame(buf, start, id, verb); err != nil {
			encErr = err
		}
	}
	reqEnc := lr.batches("wire.encode_request", n, func(first, k int) {
		for j := first; j < first+k; j++ {
			o, name, start := ops[j], objName(ops[j].obj), len(reqs)
			reqs = wire.BeginFrame(reqs)
			switch {
			case o.kind == opWrite && share:
				reqs = (&wire.ShareWriteReq{Name: name, Wid: uint64(j) + 1, Share: o.val & 0xffffff, ShareLen: shareLen}).Append(reqs)
				finish(reqs, start, uint64(j), wire.VerbShareWrite)
			case o.kind == opWrite:
				reqs = (&wire.WriteReq{Name: name, Value: o.val}).Append(reqs)
				finish(reqs, start, uint64(j), wire.VerbWrite)
			case share:
				reqs = (&wire.ShareFetchReq{Name: name, Reader: 0, PrevSeq: uint64(j)}).Append(reqs)
				finish(reqs, start, uint64(j), wire.VerbShareFetch)
			default:
				reqs = (&wire.ReadFetchReq{Name: name, Reader: 0, PrevSeq: uint64(j)}).Append(reqs)
				finish(reqs, start, uint64(j), wire.VerbReadFetch)
			}
		}
	})
	respEnc := lr.batches("wire.encode_response", n, func(first, k int) {
		for j := first; j < first+k; j++ {
			o, start := ops[j], len(resps)
			resps = wire.BeginFrame(resps)
			switch {
			case o.kind == opWrite && share:
				resps = (&wire.ShareWriteResp{Wid: uint64(j) + 1}).Append(resps)
				finish(resps, start, uint64(j), wire.VerbShareWrite)
			case o.kind == opWrite:
				finish(resps, start, uint64(j), wire.VerbWrite)
			case share:
				resps = (&wire.ShareFetchResp{Seq: uint64(j), Value: uint64(j) * 0x9e3779b97f4a7c15, Fetched: true}).Append(resps)
				finish(resps, start, uint64(j), wire.VerbShareFetch)
			default:
				resps = (&wire.ReadFetchResp{Seq: uint64(j), Value: uint64(j) * 0x9e3779b97f4a7c15, Fetched: true}).Append(resps)
				finish(resps, start, uint64(j), wire.VerbReadFetch)
			}
		}
	})
	if encErr != nil {
		return fmt.Errorf("replay wire: %w", encErr)
	}

	var decErr error
	decode := func(name string, stream []byte, body func(wire.Verb, []byte) error) float64 {
		rest := stream
		return lr.batches(name, n, func(_, k int) {
			for i := 0; i < k; i++ {
				f, tail, err := wire.ParseFrame(rest)
				if err == nil {
					err = body(f.Verb, f.Body)
				}
				if err != nil {
					decErr = err
					return
				}
				rest = tail
			}
		})
	}
	reqDec := decode("wire.decode_request", reqs, func(v wire.Verb, b []byte) error {
		switch v {
		case wire.VerbWrite:
			return new(wire.WriteReq).DecodeView(b)
		case wire.VerbShareWrite:
			return new(wire.ShareWriteReq).DecodeView(b)
		case wire.VerbShareFetch:
			return new(wire.ShareFetchReq).DecodeView(b)
		default:
			return new(wire.ReadFetchReq).DecodeView(b)
		}
	})
	respDec := decode("wire.decode_response", resps, func(v wire.Verb, b []byte) error {
		switch v {
		case wire.VerbWrite:
			return nil // an empty ack
		case wire.VerbShareWrite:
			return new(wire.ShareWriteResp).Decode(b)
		case wire.VerbShareFetch:
			return new(wire.ShareFetchResp).Decode(b)
		default:
			return new(wire.ReadFetchResp).Decode(b)
		}
	})
	if decErr != nil {
		return fmt.Errorf("replay wire: %w", decErr)
	}
	lr.out["wire.encode_ns"] = reqEnc + respEnc
	lr.out["wire.decode_ns"] = reqDec + respDec
	lr.wireClientNs = reqEnc + respDec
	return nil
}

// timedJournal stands between a store and its WAL so that WAL.Record is
// timed from outside, call by call.
type timedJournal struct {
	wal *persist.WAL
	mu  sync.Mutex
	ns  []float64
}

func (t *timedJournal) Record(r store.JournalRecord[uint64]) error {
	t0 := nanotime()
	err := t.wal.Record(r)
	d := float64(nanotime() - t0)
	if r.Op == store.JournalWrite {
		t.mu.Lock()
		t.ns = append(t.ns, d)
		t.mu.Unlock()
	}
	return err
}

// persist journals the stream's writes through a SyncAlways WAL on a real
// directory from two writers (the rungs' caller count), then reopens the
// directory to time recovery's replay of those records.
func (lr *layerRun) persist() error {
	const writers = 2
	dir := filepath.Join(lr.dir, "persist-replay")
	key := auditreg.KeyFromSeed(lr.st.seed)
	open := func(lat *telem.Hist) (*store.Store[uint64], *persist.WAL, error) {
		st, err := store.New[uint64](key, store.WithLess[uint64](func(a, b uint64) bool { return a < b }))
		if err != nil {
			return nil, nil, err
		}
		wal, _, err := persist.Open(dir, persist.DeriveKey(key), st, persist.Options{Policy: persist.SyncAlways, SyncLatency: lat})
		return st, wal, err
	}
	fsync := telem.NewHist(0)
	st, wal, err := open(fsync)
	if err != nil {
		return err
	}
	tj := &timedJournal{wal: wal}
	st.SetJournal(tj)
	const objects = 64
	for i := 0; i < objects; i++ {
		if _, err := st.Open(objName(i), store.Register); err != nil {
			return errors.Join(err, wal.Close())
		}
	}
	before := wal.Stats()
	// Fsync-bound: a fixed record count would take seconds on a slow disk,
	// so the replay stops at whichever comes first.
	records, deadline := max(lr.calls/64, 16), time.Now().Add(750*time.Millisecond)
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for c := 0; c < writers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, v := range lr.writeValues(records / writers) {
				if i&7 == 7 && time.Now().After(deadline) {
					return
				}
				if errs[c] = st.Write(objName((i*writers+c)%objects), v*writers+uint64(c)); errs[c] != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	after := wal.Stats()
	if err := errors.Join(append(errs, wal.Close())...); err != nil {
		return fmt.Errorf("replay persist: %w", err)
	}
	recs, syncs := float64(after.Records-before.Records), float64(after.Syncs-before.Syncs)
	lr.out["persist.record_us"] = quantile(tj.ns, 0.5) / 1e3
	lr.out["persist.fsync_p50_us"] = snapshotQuantileUs(fsync.Snapshot(), telem.Snapshot{}, 0.5)
	lr.out["persist.records_per_sync"] = recs / max(syncs, 1)
	lr.out["persist.bytes_per_record"] = float64(after.Bytes-before.Bytes) / max(recs, 1)

	per, err := lr.each("persist.replay", 1, func(int) error {
		_, wal, err := open(nil)
		if err != nil {
			return err
		}
		return wal.Close()
	})
	if err != nil {
		return err
	}
	lr.out["persist.replay_us_per_record"] = per[0] / 1e3 / float64(after.Records)
	return nil
}

// dispersal times the arithmetic a cluster op adds on the client: IDA split,
// reconstruct and verified reconstruct at n=5 k=3, and one share pad.
func (lr *layerRun) dispersal() error {
	cod, err := ida.New(clusterN, clusterN-2*clusterF)
	if err != nil {
		return err
	}
	k := cod.Threshold()
	vals := lr.writeValues(lr.calls)
	data := make([][]byte, len(vals))
	for i, v := range vals {
		data[i] = binary.BigEndian.AppendUint64(nil, v)
	}
	shares := make([][][]byte, len(vals))
	lr.out["ida.split_ns"] = lr.batches("ida.split", len(vals), func(first, n int) {
		for i := first; i < first+n; i++ {
			shares[i] = cod.Split(data[i])
		}
	})
	// The share maps are the cluster client's to build, not ida's.
	subset := func(i, n int) map[int][]byte {
		m := make(map[int][]byte, n)
		for s := 0; s < n; s++ {
			m[s] = shares[i][s]
		}
		return m
	}
	exact, surplus := make([]map[int][]byte, len(vals)), make([]map[int][]byte, len(vals))
	for i := range vals {
		exact[i], surplus[i] = subset(i, k), subset(i, k+clusterF)
	}
	var decErr error
	lr.out["ida.reconstruct_ns"] = lr.batches("ida.reconstruct", len(vals), func(first, n int) {
		for i := first; i < first+n; i++ {
			if got, err := cod.Reconstruct(exact[i], 8); err != nil || binary.BigEndian.Uint64(got) != vals[i] {
				decErr = fmt.Errorf("reconstruct %d: got %x, %v", vals[i], got, err)
			}
		}
	})
	lr.out["ida.verify_ns"] = lr.batches("ida.verify", len(vals), func(first, n int) {
		for i := first; i < first+n; i++ {
			if got, bad, err := cod.Verify(surplus[i], 8); err != nil || len(bad) != 0 || binary.BigEndian.Uint64(got) != vals[i] {
				decErr = fmt.Errorf("verify %d: got %x, bad %v, %v", vals[i], got, bad, err)
			}
		}
	})
	if decErr != nil {
		return fmt.Errorf("replay ida: %w", decErr)
	}
	secret := auditreg.KeyFromSeed(lr.st.seed)
	var sink uint64
	lr.out["cluster.sharepad_ns"] = lr.batches("cluster.sharepad", len(vals), func(first, n int) {
		for i := first; i < first+n; i++ {
			sink ^= cluster.SharePad(secret, uint32(i%clusterN)+1, objName(i%lr.st.sp.objects), uint64(i)+1, cod.ShareSize(8))
		}
	})
	_ = sink
	return nil
}

// shareLeg times one lone SHARE-WRITE or SHARE-FETCH round trip to one
// volatile node over one connection: what a single leg of a cluster op costs
// when nothing else is in flight.
func (lr *layerRun) shareLeg() (err error) {
	n, err := bootNode(server.Config{Key: auditreg.KeyFromSeed(lr.st.seed), NodeID: 1})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, n.stop()) }()
	cl, err := client.Dial(n.addr, client.WithConns(1), client.WithNode(1))
	if err != nil {
		return err
	}
	defer cl.Close()
	obj, err := cl.Open("leg", store.MaxRegister)
	if err != nil {
		return err
	}
	per, err := lr.each("client.share_rtt", max(lr.calls/32, 16), func(i int) error {
		if i%2 == 0 {
			_, err := obj.ShareWrite(uint64(i/2)+1, uint64(i)&0xffffff, 3)
			return err
		}
		_, err := obj.ShareRead(0)
		return err
	})
	if err != nil {
		return err
	}
	lr.out["client.share_rtt_p50_us"] = quantile(per, 0.5) / 1e3
	return nil
}
