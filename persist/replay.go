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
// plus segment tail) before it is replayed into a store or compacted into a
// fresh snapshot. Records may arrive in any interleaving across objects;
// within one object the model keeps arrival order and sorts by sequence
// number where replay demands it.
type recoverModel struct {
	objects map[string]*objModel
	order   []string
	audited map[string]bool

	records   int
	announces int
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
// scan allocates a name per object, not per record.
func (m *recoverModel) intern(name []byte) string {
	if om, ok := m.objects[string(name)]; ok {
		return om.name
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
	om, ok := m.objects[name]
	if !ok {
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
		m.announces++
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

// regEvent is one sequence-number slot of a Register's replay schedule: the
// write that installed it (possibly absent — then the slot's fetches testify
// to its value) and the effective reads that observed it, a window of the
// model's fetch list.
type regEvent struct {
	seq      uint64
	value    uint64
	hasWrite bool
	fetches  []fetchEv
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

// registerSchedule validates and orders a Register object's events: writes
// sorted by install seq, fetches attached to the seq they observed. It sorts
// the model's own lists (stably: a slot's records stay in arrival order) and
// walks them side by side, allocating the schedule and nothing per record.
// It returns the schedule and the final register value (the value of the
// highest slot), hasFinal false when the object saw no events. Slots ascend
// and hold a reader once, so every reader's fetch seqs strictly increase
// along the schedule, as they do in any real history.
func (om *objModel) registerSchedule() (events []regEvent, finalValue uint64, hasFinal bool, err error) {
	slices.SortStableFunc(om.writes, func(a, b writeEv) int { return cmp.Compare(a.seq, b.seq) })
	slices.SortStableFunc(om.fetches, func(a, b fetchEv) int { return cmp.Compare(a.seq, b.seq) })
	w, f := om.writes, om.fetches
	events = make([]regEvent, 0, len(w)+1)
	for len(w) > 0 || len(f) > 0 {
		ev := regEvent{}
		if len(f) == 0 || len(w) > 0 && w[0].seq <= f[0].seq {
			ev.seq = w[0].seq
		} else {
			ev.seq = f[0].seq
		}
		for ; len(w) > 0 && w[0].seq == ev.seq; w = w[1:] {
			if ev.hasWrite && ev.value != w[0].value {
				return nil, 0, false, fmt.Errorf("persist: %q: conflicting writes at seq %d (%d and %d)", om.name, ev.seq, ev.value, w[0].value)
			}
			ev.hasWrite, ev.value = true, w[0].value
		}
		n := 0
		for n < len(f) && f[n].seq == ev.seq {
			n++
		}
		ev.fetches, f = f[:n:n], f[n:]
		var seen readerSet
		for i, fe := range ev.fetches {
			if seen.add(fe.reader) {
				return nil, 0, false, fmt.Errorf("persist: %q: duplicate fetch record for reader %d at seq %d", om.name, fe.reader, fe.seq)
			}
			// Seq 0 is the initial value: no write slot to check against.
			if ev.seq > 0 {
				if ev.hasWrite && ev.value != fe.value {
					return nil, 0, false, fmt.Errorf("persist: %q: fetch at seq %d observed %d but the write installed %d", om.name, fe.seq, fe.value, ev.value)
				}
				if !ev.hasWrite && i > 0 && ev.value != fe.value {
					return nil, 0, false, fmt.Errorf("persist: %q: fetches at seq %d observed both %d and %d", om.name, fe.seq, ev.value, fe.value)
				}
			}
			ev.value = fe.value
		}
		events = append(events, ev)
	}
	if n := len(events); n > 0 {
		lastEv := events[n-1]
		if lastEv.seq > 0 || lastEv.hasWrite {
			finalValue, hasFinal = lastEv.value, true
		}
	}
	return events, finalValue, hasFinal, nil
}

// maxSchedule validates and orders a MaxRegister object's events: fetches in
// seq (chronological) order — whose observed values must be nondecreasing,
// as a max register's reads are — and writes in value order. Both are the
// model's own lists, sorted in place.
func (om *objModel) maxSchedule() (writes []writeEv, fetches []fetchEv, err error) {
	slices.SortStableFunc(om.writes, func(a, b writeEv) int { return cmp.Compare(a.value, b.value) })
	slices.SortStableFunc(om.fetches, func(a, b fetchEv) int { return cmp.Compare(a.seq, b.seq) })
	var seen readerSet // readers at the current seq
	var lastVal uint64
	for i, f := range om.fetches {
		if i > 0 && f.seq != om.fetches[i-1].seq {
			seen = readerSet{}
		}
		if seen.add(f.reader) {
			return nil, nil, fmt.Errorf("persist: %q: duplicate fetch record for reader %d at seq %d", om.name, f.reader, f.seq)
		}
		if i > 0 && f.value < lastVal {
			return nil, nil, fmt.Errorf("persist: %q: fetched values not nondecreasing (%d after %d)", om.name, f.value, lastVal)
		}
		lastVal = f.value
	}
	return om.writes, om.fetches, nil
}

// ReplayStats summarizes what recovery reconstructed.
type ReplayStats struct {
	Objects     int // objects re-opened
	Writes      int // write records replayed
	Fetches     int // effective reads replayed (and re-audited)
	Synthesized int // writes re-created from the fetch records that observed them
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
// replay them side by side, using the store as serving does — any number of
// goroutines, one object's operations in sequence — so every operation
// completes and the resulting audit state is exactly the models' pair set,
// whichever worker took which object. Any observation that cannot be
// reproduced — a fetch whose value the replayed object does not return —
// halts rather than dropping an audited read, with the error of the first
// such object in order, whatever the workers' timing.
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

	// A worker takes the next object not yet taken; its own stats, summed below.
	errs := make([]error, len(objs))
	parts := make([]ReplayStats, min(runtime.GOMAXPROCS(0), len(objs)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var part ReplayStats
			for i := int(next.Add(1)) - 1; i < len(objs); i = int(next.Add(1)) - 1 {
				switch om := objs[i]; om.kind {
				case store.Register:
					errs[i] = replayRegister(opened[i], om, &part)
				case store.MaxRegister:
					errs[i] = replayMax(opened[i], om, &part)
				default:
					errs[i] = fmt.Errorf("persist: replay %q: unreplayable kind %v", om.name, om.kind)
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

func replayRegister(obj *store.Object[uint64], om *objModel, stats *ReplayStats) error {
	events, _, _, err := om.registerSchedule()
	if err != nil {
		return err
	}
	for _, ev := range events {
		if ev.seq > 0 {
			if err := obj.Write(ev.value); err != nil {
				return fmt.Errorf("persist: replay write %q: %w", om.name, err)
			}
			if ev.hasWrite {
				stats.Writes++
			} else {
				stats.Synthesized++
			}
		}
		for _, f := range ev.fetches {
			if err := replayFetch(obj, om.name, f, stats); err != nil {
				return err
			}
		}
	}
	return nil
}

func replayMax(obj *store.Object[uint64], om *objModel, stats *ReplayStats) error {
	writes, fetches, err := om.maxSchedule()
	if err != nil {
		return err
	}
	var appliedMax uint64
	hasApplied := false
	apply := func(v uint64, synth bool) error {
		if err := obj.Write(v); err != nil {
			return fmt.Errorf("persist: replay writeMax %q: %w", om.name, err)
		}
		if !hasApplied || v > appliedMax {
			appliedMax, hasApplied = v, true
		}
		if synth {
			stats.Synthesized++
		} else {
			stats.Writes++
		}
		return nil
	}
	wi := 0
	for _, f := range fetches {
		for wi < len(writes) && writes[wi].value <= f.value {
			if err := apply(writes[wi].value, false); err != nil {
				return err
			}
			wi++
		}
		// Seq 0 observes the initial value; nothing to synthesize for it.
		if f.seq > 0 && (!hasApplied || appliedMax < f.value) {
			if err := apply(f.value, true); err != nil {
				return err
			}
		}
		if err := replayFetch(obj, om.name, f, stats); err != nil {
			return err
		}
	}
	for ; wi < len(writes); wi++ {
		if err := apply(writes[wi].value, false); err != nil {
			return err
		}
	}
	return nil
}

// replayFetch re-executes one effective read and verifies it observes the
// recorded value.
func replayFetch(obj *store.Object[uint64], name string, f fetchEv, stats *ReplayStats) error {
	val, _, _, err := obj.ReadFetch(f.reader)
	if err != nil {
		return fmt.Errorf("persist: replay fetch %q reader %d: %w", name, f.reader, err)
	}
	if val != f.value {
		return fmt.Errorf("persist: replay fetch %q reader %d at seq %d observed %d, log recorded %d — refusing to drop an audited read", name, f.reader, f.seq, val, f.value)
	}
	stats.Fetches++
	return nil
}

// compact emits the minimal record sequence that reproduces the model's
// audit state: per object, one open record, one write per value that must be
// observable, one fetch per audited (reader, value) pair, and a final write
// restoring the current value; plus one audit record per object that had a
// published report. Original sequence numbers are preserved so records in
// segment tails beyond the snapshot keep interleaving correctly.
func (m *recoverModel) compact() ([]Record, error) {
	var out []Record
	for _, name := range m.order {
		om := m.objects[name]
		out = append(out, Record{Op: OpOpen, Name: name, Kind: uint8(om.kind), Capacity: om.capacity})
		var err error
		switch om.kind {
		case store.Register:
			out, err = om.compactRegister(out)
		case store.MaxRegister:
			out, err = om.compactMax(out)
		default:
			err = fmt.Errorf("persist: compact %q: unreplayable kind %v", name, om.kind)
		}
		if err != nil {
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

func (om *objModel) compactRegister(out []Record) ([]Record, error) {
	events, finalValue, hasFinal, err := om.registerSchedule()
	if err != nil {
		return nil, err
	}
	paired := make(map[[2]uint64]bool) // (reader, value) pairs already emitted
	var lastEmitted uint64
	hasEmitted := false
	for _, ev := range events {
		for _, f := range ev.fetches {
			k := [2]uint64{uint64(f.reader), f.value}
			if paired[k] {
				continue
			}
			paired[k] = true
			if ev.seq > 0 && (!hasEmitted || lastEmitted != ev.value) {
				out = append(out, Record{Op: OpWrite, Name: om.name, Kind: uint8(store.Register), Seq: ev.seq, Value: ev.value})
				lastEmitted, hasEmitted = ev.value, true
			}
			out = append(out, Record{Op: OpFetch, Name: om.name, Kind: uint8(store.Register), Reader: uint8(f.reader), Seq: ev.seq, Value: f.value})
		}
	}
	if hasFinal && (!hasEmitted || lastEmitted != finalValue) {
		out = append(out, Record{Op: OpWrite, Name: om.name, Kind: uint8(store.Register), Seq: events[len(events)-1].seq, Value: finalValue})
	}
	return out, nil
}

func (om *objModel) compactMax(out []Record) ([]Record, error) {
	writes, fetches, err := om.maxSchedule()
	if err != nil {
		return nil, err
	}
	var finalMax uint64
	hasMax := false
	note := func(v uint64) {
		if !hasMax || v > finalMax {
			finalMax, hasMax = v, true
		}
	}
	for _, wr := range writes {
		note(wr.value)
	}
	paired := make(map[[2]uint64]bool)
	var lastEmitted uint64
	hasEmitted := false
	for _, f := range fetches {
		if f.seq > 0 {
			note(f.value)
		}
		k := [2]uint64{uint64(f.reader), f.value}
		if paired[k] {
			continue
		}
		paired[k] = true
		if f.seq > 0 && (!hasEmitted || lastEmitted < f.value) {
			out = append(out, Record{Op: OpWrite, Name: om.name, Kind: uint8(store.MaxRegister), Value: f.value})
			lastEmitted, hasEmitted = f.value, true
		}
		out = append(out, Record{Op: OpFetch, Name: om.name, Kind: uint8(store.MaxRegister), Reader: uint8(f.reader), Seq: f.seq, Value: f.value})
	}
	if hasMax && (!hasEmitted || lastEmitted < finalMax) {
		out = append(out, Record{Op: OpWrite, Name: om.name, Kind: uint8(store.MaxRegister), Value: finalMax})
	}
	return out, nil
}
