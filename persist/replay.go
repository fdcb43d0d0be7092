package persist

import (
	"cmp"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"auditreg"
	"auditreg/store"
)

// recoverModel accumulates the logical content of a record stream (snapshot
// plus segment tail) before it is compacted: into a fresh snapshot, or into
// the records recovery re-executes against a store. Records may arrive in any
// interleaving across objects; within one object the model keeps arrival
// order and the compaction sorts by sequence number.
type recoverModel struct {
	objects map[string]*objModel
	order   []string
	audited map[string]bool
	hit     *objModel // the object intern found last: the record add folds next

	records int
}

type objModel struct {
	name     string
	kind     store.Kind
	capacity uint32
	openSeen bool   // an explicit OpOpen record arrived
	maxSeq   uint64 // highest sequence number any record carries
	writes   []writeEv
	fetches  []fetchEv
}

type writeEv struct {
	seq   uint64 // Register install seq; 0 for MaxRegister
	value uint64
}

type fetchEv struct {
	reader int
	seq    uint64
	value  uint64
}

func newRecoverModel() *recoverModel {
	return &recoverModel{objects: make(map[string]*objModel), audited: make(map[string]bool)}
}

// intern returns the model's own string for an object it already holds: a
// scan allocates a name per object, not per record. The object it found is
// kept for obj, so a scanned record looks its object up once.
func (m *recoverModel) intern(name []byte) string {
	if m.hit = m.objects[string(name)]; m.hit != nil {
		return m.hit.name
	}
	return string(name)
}

// addFile streams one whole record file into the model; whether it had to be
// sealed is the caller's rule.
func (m *recoverModel) addFile(path, magic string, key auditreg.Key) (fileScan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return fileScan{}, err
	}
	return scanRecords(path, b, magic, key, m.intern, func(rec Record, _ uint64) error { return m.add(&rec) })
}

// obj returns (creating if needed) the model of the named object. A missing
// open record — possible when the open missed the final group commit but a
// later mutation record survived — synthesizes one from the mutation's kind.
func (m *recoverModel) obj(name string, kind store.Kind) (*objModel, error) {
	om := m.hit
	if om == nil || om.name != name {
		om = m.objects[name]
	}
	if om == nil {
		om = &objModel{name: name, kind: kind}
		m.objects[name] = om
		m.order = append(m.order, name)
		return om, nil
	}
	if om.kind != kind {
		return nil, fmt.Errorf("persist: object %q recorded as both %v and %v", name, om.kind, kind)
	}
	return om, nil
}

// add folds one record into the model.
func (m *recoverModel) add(rec *Record) error {
	m.records++
	kind := store.Kind(rec.Kind)
	switch rec.Op {
	case OpOpen:
		if kind != store.Register && kind != store.MaxRegister {
			return fmt.Errorf("persist: open record for %q with unreplayable kind %d", rec.Name, rec.Kind)
		}
		om, err := m.obj(rec.Name, kind)
		if err != nil {
			return err
		}
		if om.openSeen {
			return fmt.Errorf("persist: duplicate open record for %q", rec.Name)
		}
		om.openSeen = true
		om.capacity = rec.Capacity
	case OpWrite:
		om, err := m.obj(rec.Name, kind)
		if err != nil {
			return err
		}
		if kind == store.Register && rec.Seq == 0 {
			return fmt.Errorf("persist: register write record for %q with seq 0", rec.Name)
		}
		if rec.Seq > om.maxSeq {
			om.maxSeq = rec.Seq
		}
		om.writes = append(om.writes, writeEv{seq: rec.Seq, value: rec.Value})
	case OpFetch:
		om, err := m.obj(rec.Name, kind)
		if err != nil {
			return err
		}
		if rec.Seq > om.maxSeq {
			om.maxSeq = rec.Seq
		}
		om.fetches = append(om.fetches, fetchEv{reader: int(rec.Reader), seq: rec.Seq, value: rec.Value})
	case OpAnnounce:
		// Pure helping: nothing to replay.
	case OpAudit:
		m.audited[rec.Name] = true
	case OpSeal:
		// Seals are consumed by the file reader; one here is corruption.
		return fmt.Errorf("persist: seal record in record stream")
	default:
		return fmt.Errorf("persist: unknown record op %d", uint8(rec.Op))
	}
	return nil
}

// readerSet marks the readers seen in one slot; a record's reader is a byte.
type readerSet [4]uint64

// add marks reader r and reports whether it was marked already.
func (s *readerSet) add(r int) (dup bool) {
	w, bit := &s[r>>6&3], uint64(1)<<(r&63)
	dup = *w&bit != 0
	*w |= bit
	return dup
}

// ReplayStats summarizes what recovery re-executed. Recovery replays each
// object's compacted form — the records a snapshot taken now would hold —
// so the counts are of that form, not of the records in the log.
type ReplayStats struct {
	Objects     int // objects re-opened
	Writes      int // writes re-executed after compaction, each held by a write record
	Fetches     int // effective reads re-executed (and re-audited): one per (reader, value) pair
	Synthesized int // writes re-executed after compaction that only fetch records testify to
}

// joinModels lays the stripes' models end to end, in stripe order. One
// object's records all live in one stripe, so the join is a concatenation:
// an object two stripes' files both speak of (a renamed or copied segment)
// is corruption, never two histories to merge.
func joinModels(stripes []stripeRecovery) ([]*objModel, error) {
	var objs []*objModel
	owner := make(map[string]int) // object -> the stripe whose files hold it
	for sid := range stripes {
		m := stripes[sid].model
		for _, name := range m.order {
			if first, ok := owner[name]; ok {
				return nil, fmt.Errorf("persist: object %q has records in the files of stripe %d and of stripe %d", name, first, sid)
			}
			owner[name] = sid
			objs = append(objs, m.objects[name])
		}
	}
	return objs, nil
}

// replayInto re-executes the joined models against a fresh store, which must
// be journal-less (recovery must not re-journal itself); the caller attaches
// the WAL afterwards. The objects are opened one after the other, so the
// store is built in the same order on every run; then GOMAXPROCS workers
// each take the next object not yet taken, compact it exactly as Snapshot
// would, and re-execute the result (replayRecords), using the store as
// serving does — any number of goroutines, one object's operations in
// sequence — so the resulting audit state is exactly the models' pair set,
// whichever worker took which object. Any observation that cannot be
// reproduced halts rather than dropping an audited read, with the error of
// the first such object in order, whatever the workers' timing.
func replayInto(st *store.Store[uint64], objs []*objModel) (ReplayStats, error) {
	var stats ReplayStats
	if st.Journaled() {
		return stats, fmt.Errorf("persist: replay target store already has a journal attached")
	}
	opened := make([]*store.Object[uint64], len(objs))
	for i, om := range objs {
		var opts []store.OpenOption
		if om.capacity > 0 {
			opts = append(opts, store.WithObjectCapacity(int(om.capacity)))
		}
		obj, err := st.Open(om.name, om.kind, opts...)
		if err != nil {
			return stats, fmt.Errorf("persist: replay open %q: %w", om.name, err)
		}
		opened[i] = obj
	}
	stats.Objects = len(objs)

	// A worker takes the next object not yet taken, compacting it into one
	// record buffer and pair set of its own; its stats are summed below.
	errs := make([]error, len(objs))
	parts := make([]ReplayStats, min(runtime.GOMAXPROCS(0), len(objs)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var part ReplayStats
			var recs []Record
			paired := make(map[[2]uint64]bool)
			for i := int(next.Add(1)) - 1; i < len(objs); i = int(next.Add(1)) - 1 {
				var synth int
				if recs, synth, errs[i] = objs[i].compact(recs[:0], paired); errs[i] == nil {
					errs[i] = replayRecords(opened[i], recs, &part)
					// Of the writes just re-executed, synth had no write record.
					part.Writes -= synth
					part.Synthesized += synth
				}
			}
			parts[k] = part
		}()
	}
	wg.Wait()
	for _, part := range parts {
		stats.Writes += part.Writes
		stats.Fetches += part.Fetches
		stats.Synthesized += part.Synthesized
	}
	for _, err := range errs {
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// replayRecords re-executes one object's compacted records against it: a
// write installs its value, a fetch re-executes the effective read and must
// observe the value the log recorded.
func replayRecords(obj *store.Object[uint64], recs []Record, stats *ReplayStats) error {
	for i := range recs {
		switch r := &recs[i]; r.Op {
		case OpWrite:
			if err := obj.Write(r.Value); err != nil {
				return fmt.Errorf("persist: replay write %q: %w", r.Name, err)
			}
			stats.Writes++
		case OpFetch:
			val, _, _, err := obj.ReadFetch(int(r.Reader))
			if err != nil {
				return fmt.Errorf("persist: replay fetch %q reader %d: %w", r.Name, r.Reader, err)
			}
			if val != r.Value {
				return fmt.Errorf("persist: replay fetch %q reader %d at seq %d observed %d, log recorded %d — refusing to drop an audited read", r.Name, r.Reader, r.Seq, val, r.Value)
			}
			stats.Fetches++
		}
	}
	return nil
}

// compact emits the minimal record sequence that reproduces the model's
// audit state: per object, one open record and its compacted records (see
// objModel.compact); plus one audit record per object that had a published
// report. Original sequence numbers are preserved so records in segment
// tails beyond the snapshot keep interleaving correctly.
func (m *recoverModel) compact() ([]Record, error) {
	var out []Record
	paired := make(map[[2]uint64]bool)
	for _, name := range m.order {
		om := m.objects[name]
		out = append(out, Record{Op: OpOpen, Name: name, Kind: uint8(om.kind), Capacity: om.capacity})
		var err error
		if out, _, err = om.compact(out, paired); err != nil {
			return nil, err
		}
	}
	for _, name := range m.order {
		if m.audited[name] {
			out = append(out, Record{Op: OpAudit, Name: name, Kind: uint8(m.objects[name].kind)})
		}
	}
	return out, nil
}

// compact validates the object's history and appends its compacted form to
// out: one fetch per (reader, value) pair, each behind a write of the value
// it observed unless the object already holds it, and a final write
// restoring the current value. It sorts the model's own lists in place and
// uses paired — cleared here — as its scratch set of pairs already emitted,
// so a caller compacting many objects allocates neither per object. synth
// counts the emitted writes no write record holds: re-created from the fetch
// records that observed them.
func (om *objModel) compact(out []Record, paired map[[2]uint64]bool) (_ []Record, synth int, err error) {
	clear(paired)
	switch om.kind {
	case store.Register:
		return om.compactRegister(out, paired)
	case store.MaxRegister:
		return om.compactMax(out, paired)
	}
	return nil, 0, fmt.Errorf("persist: compact %q: unreplayable kind %v", om.name, om.kind)
}

// compactRegister walks a Register's writes and fetches side by side in
// install-seq order (sorted stably: a slot's records stay in arrival order),
// one sequence-number slot at a time. A slot's writes must agree and its
// readers be distinct; its fetches must have observed the write's value or,
// with the write record missing, agree on one value — which the slot's write
// is then re-created from. Slots ascend and hold a reader once, so every
// reader's emitted fetch seqs strictly increase, as in any real history. The
// final write restores the highest slot's value.
func (om *objModel) compactRegister(out []Record, paired map[[2]uint64]bool) (_ []Record, synth int, err error) {
	slices.SortStableFunc(om.writes, func(a, b writeEv) int { return cmp.Compare(a.seq, b.seq) })
	slices.SortStableFunc(om.fetches, func(a, b fetchEv) int { return cmp.Compare(a.seq, b.seq) })
	w, f := om.writes, om.fetches
	var seq, value, held uint64 // the slot, its value, the value the emitted writes installed last
	var hasWrite, holds bool
	for len(w) > 0 || len(f) > 0 {
		if len(f) == 0 || len(w) > 0 && w[0].seq <= f[0].seq {
			seq = w[0].seq
		} else {
			seq = f[0].seq
		}
		hasWrite = false
		for ; len(w) > 0 && w[0].seq == seq; w = w[1:] {
			if hasWrite && value != w[0].value {
				return nil, 0, fmt.Errorf("persist: %q: conflicting writes at seq %d (%d and %d)", om.name, seq, value, w[0].value)
			}
			hasWrite, value = true, w[0].value
		}
		var seen readerSet
		for i := 0; len(f) > 0 && f[0].seq == seq; i, f = i+1, f[1:] {
			fe := f[0]
			if seen.add(fe.reader) {
				return nil, 0, fmt.Errorf("persist: %q: duplicate fetch record for reader %d at seq %d", om.name, fe.reader, seq)
			}
			// Seq 0 is the initial value: no write slot to check against.
			if seq > 0 && hasWrite && value != fe.value {
				return nil, 0, fmt.Errorf("persist: %q: fetch at seq %d observed %d but the write installed %d", om.name, seq, fe.value, value)
			}
			if seq > 0 && !hasWrite && i > 0 && value != fe.value {
				return nil, 0, fmt.Errorf("persist: %q: fetches at seq %d observed both %d and %d", om.name, seq, value, fe.value)
			}
			value = fe.value
			k := [2]uint64{uint64(fe.reader), fe.value}
			if paired[k] {
				continue
			}
			paired[k] = true
			if seq > 0 && (!holds || held != value) {
				out = append(out, Record{Op: OpWrite, Name: om.name, Kind: uint8(store.Register), Seq: seq, Value: value})
				held, holds = value, true
				if !hasWrite {
					synth++
				}
			}
			out = append(out, Record{Op: OpFetch, Name: om.name, Kind: uint8(store.Register), Reader: uint8(fe.reader), Seq: seq, Value: fe.value})
		}
	}
	if seq > 0 && (!holds || held != value) {
		out = append(out, Record{Op: OpWrite, Name: om.name, Kind: uint8(store.Register), Seq: seq, Value: value})
		if !hasWrite {
			synth++
		}
	}
	return out, synth, nil
}

// compactMax walks a MaxRegister's fetches in seq (chronological) order:
// readers distinct per seq, and observed values nondecreasing, as a max
// register's reads are. A fetch's write is re-created from its value; the
// writes, sorted by value, only say whether a write record held that value
// and what the final write — the highest value written or observed — is.
func (om *objModel) compactMax(out []Record, paired map[[2]uint64]bool) (_ []Record, synth int, err error) {
	slices.SortStableFunc(om.writes, func(a, b writeEv) int { return cmp.Compare(a.value, b.value) })
	slices.SortStableFunc(om.fetches, func(a, b fetchEv) int { return cmp.Compare(a.seq, b.seq) })
	written := func(v uint64) bool {
		_, ok := slices.BinarySearchFunc(om.writes, v, func(w writeEv, v uint64) int { return cmp.Compare(w.value, v) })
		return ok
	}
	var top, held uint64 // the highest value written or observed; the highest emitted
	hasTop, holds := len(om.writes) > 0, false
	if hasTop {
		top = om.writes[len(om.writes)-1].value
	}
	var seen readerSet // readers at the current seq
	for i, fe := range om.fetches {
		if i > 0 && fe.seq != om.fetches[i-1].seq {
			seen = readerSet{}
		}
		if seen.add(fe.reader) {
			return nil, 0, fmt.Errorf("persist: %q: duplicate fetch record for reader %d at seq %d", om.name, fe.reader, fe.seq)
		}
		if i > 0 && fe.value < om.fetches[i-1].value {
			return nil, 0, fmt.Errorf("persist: %q: fetched values not nondecreasing (%d after %d)", om.name, fe.value, om.fetches[i-1].value)
		}
		// Seq 0 observes the initial value; nothing to re-create for it.
		if fe.seq > 0 && (!hasTop || fe.value > top) {
			top, hasTop = fe.value, true
		}
		k := [2]uint64{uint64(fe.reader), fe.value}
		if paired[k] {
			continue
		}
		paired[k] = true
		if fe.seq > 0 && (!holds || held < fe.value) {
			out = append(out, Record{Op: OpWrite, Name: om.name, Kind: uint8(store.MaxRegister), Value: fe.value})
			held, holds = fe.value, true
			if !written(fe.value) {
				synth++
			}
		}
		out = append(out, Record{Op: OpFetch, Name: om.name, Kind: uint8(store.MaxRegister), Reader: uint8(fe.reader), Seq: fe.seq, Value: fe.value})
	}
	if hasTop && (!holds || held < top) {
		out = append(out, Record{Op: OpWrite, Name: om.name, Kind: uint8(store.MaxRegister), Value: top})
		if !written(top) {
			synth++
		}
	}
	return out, synth, nil
}
