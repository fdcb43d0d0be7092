package main

import (
	"fmt"
	"sort"
	"unsafe"

	"auditreg"
	"auditreg/cluster"
	"auditreg/store"
)

// entry is one audited (reader, value) pair.
type entry = auditreg.Entry[uint64]

// viewEntry is one audited (scanner, view) pair of a snapshot object.
type viewEntry struct {
	reader int
	view   [comps]uint64
}

// result is what one op returned to its caller.
type result struct {
	val  uint64
	view []uint64 // snapshot scans only
}

// callerLog is one caller's observations. Caller c reads as reader index c
// and owns its log, so recording needs no lock. Consecutive equal reads of
// an object are recorded once: the audit is a set.
type callerLog struct {
	seen     []bool
	last     []uint64
	lastView [][comps]uint64
	pairs    []obsPair
	views    []obsView
	regress  int // max-register reads that went backwards
}

type obsPair struct {
	obj int
	val uint64
}

type obsView struct {
	obj  int
	view [comps]uint64
}

// gate is the correctness check shared by all rungs: it records what every
// read returned and, after the run, demands that each value was really
// written to that object and that a fresh audit reports exactly the observed
// (reader, value) set — no pair missing, no pair invented.
type gate struct {
	st   stream
	logs []callerLog
	// bound[c] is one past the highest op index caller c has attempted; a
	// value claiming a later write cannot have been written.
	bound []uint64
}

func newGate(st stream) *gate {
	g := &gate{st: st, logs: make([]callerLog, st.callers), bound: make([]uint64, st.callers)}
	for c := range g.logs {
		g.logs[c] = callerLog{
			seen:     make([]bool, st.sp.objects),
			last:     make([]uint64, st.sp.objects),
			lastView: make([][comps]uint64, st.sp.objects),
		}
	}
	return g
}

// observe records what caller c's read of object obj returned.
func (g *gate) observe(c, obj int, res result) {
	l := &g.logs[c]
	if res.view != nil {
		var v [comps]uint64
		copy(v[:], res.view)
		if l.seen[obj] && v == l.lastView[obj] {
			return
		}
		l.seen[obj], l.lastView[obj] = true, v
		l.views = append(l.views, obsView{obj, v})
		return
	}
	if l.seen[obj] && res.val == l.last[obj] {
		return
	}
	if res.val < l.last[obj] && g.st.sp.kindOf(obj) == store.MaxRegister {
		l.regress++
	}
	l.seen[obj], l.last[obj] = true, res.val
	l.pairs = append(l.pairs, obsPair{obj, res.val})
}

// bytes is the heap the observation logs hold, so that heap_mb can leave the
// harness's own bookkeeping out.
func (g *gate) bytes() uint64 {
	var n uintptr
	for c := range g.logs {
		l := &g.logs[c]
		n += uintptr(cap(l.pairs))*unsafe.Sizeof(obsPair{}) + uintptr(cap(l.views))*unsafe.Sizeof(obsView{})
	}
	return uint64(n)
}

// written reports whether value v can have been written to component comp of
// object obj: the initial value, the preload, or a write op of the stream
// that some caller has already reached.
func (g *gate) written(obj, comp int, v uint64) bool {
	if v == 0 {
		return true
	}
	if v == g.st.preload(obj) {
		return comp == 0
	}
	c, j, ok := g.st.writer(v)
	if !ok || j >= g.bound[c] {
		return false
	}
	o := g.st.at(c, j)
	if o.kind != opWrite || o.obj != obj {
		return false
	}
	return g.st.sp.kindOf(obj) != store.Snapshot || o.comp == comp
}

// wrongReads counts observed values that were never written to their object,
// plus max-register reads that went backwards.
func (g *gate) wrongReads() int {
	n := 0
	for c := range g.logs {
		l := &g.logs[c]
		n += l.regress
		for _, p := range l.pairs {
			if !g.written(p.obj, 0, p.val) {
				n++
			}
		}
		for _, vw := range l.views {
			for i, v := range vw.view {
				if !g.written(vw.obj, i, v) {
					n++
				}
			}
		}
	}
	return n
}

// expectation is the observed set of every object, folded from the logs.
type expectation struct {
	pairs []map[entry]struct{}
	views []map[viewEntry]struct{}
	read  [][]bool // read[obj][reader]: the reader fetched on the object
}

func (g *gate) expected() expectation {
	n := g.st.sp.objects
	ex := expectation{
		pairs: make([]map[entry]struct{}, n),
		views: make([]map[viewEntry]struct{}, n),
		read:  make([][]bool, n),
	}
	for i := 0; i < n; i++ {
		ex.pairs[i] = map[entry]struct{}{}
		ex.views[i] = map[viewEntry]struct{}{}
		ex.read[i] = make([]bool, len(g.logs))
	}
	for c := range g.logs {
		l := &g.logs[c]
		for _, p := range l.pairs {
			ex.pairs[p.obj][entry{Reader: c, Value: p.val}] = struct{}{}
		}
		for _, vw := range l.views {
			ex.views[vw.obj][viewEntry{c, vw.view}] = struct{}{}
		}
		for obj, seen := range l.seen {
			ex.read[obj][c] = seen
		}
	}
	return ex
}

// checkExact is two-sided audit exactness for a single-node object: the
// audit must hold every observed pair and nothing else.
func checkExact[K comparable](name string, want map[K]struct{}, got []K) error {
	have := make(map[K]struct{}, len(got))
	for _, e := range got {
		if _, ok := want[e]; !ok {
			return fmt.Errorf("audit %s: audited pair %v was never observed", name, e)
		}
		have[e] = struct{}{}
	}
	for e := range want {
		if _, ok := have[e]; !ok {
			return fmt.Errorf("audit %s: observed pair %v is missing from the audit", name, e)
		}
	}
	return nil
}

// checkAudit applies checkExact to a store audit of object obj.
func (ex expectation) checkAudit(obj int, aud store.ObjectAudit[uint64]) (pairs int, err error) {
	if aud.Kind != store.Snapshot {
		return aud.Report.Len(), checkExact(aud.Object, ex.pairs[obj], aud.Report.Entries())
	}
	got := make([]viewEntry, len(aud.Views))
	for i, v := range aud.Views {
		if len(v.View) != comps {
			return 0, fmt.Errorf("audit %s: view of %d components, want %d", aud.Object, len(v.View), comps)
		}
		got[i].reader = v.Reader
		copy(got[i].view[:], v.View)
	}
	return len(got), checkExact(aud.Object, ex.views[obj], got)
}

// checkMerged is the cluster rule (the one cmd/loadgen's cluster cell uses):
// the merge must cover all n node logs and blame none of them; every
// observed pair must be charged; a pair charged or left undecided beyond the
// observed set is legal only when it carries a value some write attempted
// and a reader that did fetch on the object (a read that overlapped a write
// fetched shares of both). The public initial value 0 is never charged.
func (g *gate) checkMerged(ex expectation, obj, n int, m cluster.Merged) (pairs int, err error) {
	if m.Nodes != n {
		return 0, fmt.Errorf("audit %s: merged %d of %d node logs", m.Object, m.Nodes, n)
	}
	if len(m.Corrupted) != 0 {
		return 0, fmt.Errorf("audit %s: merge blames node logs %v", m.Object, m.Corrupted)
	}
	got := m.Report.Entries()
	have := make(map[entry]struct{}, len(got))
	for _, e := range got {
		have[e] = struct{}{}
		if _, ok := ex.pairs[obj][e]; ok {
			continue
		}
		if !g.written(obj, 0, e.Value) {
			return 0, fmt.Errorf("audit %s: merged pair %v has a value no write attempted", m.Object, e)
		}
		if e.Reader >= len(ex.read[obj]) || !ex.read[obj][e.Reader] {
			return 0, fmt.Errorf("audit %s: merged pair %v charges a reader that never fetched", m.Object, e)
		}
	}
	for e := range ex.pairs[obj] {
		if _, ok := have[e]; !ok && e.Value != 0 {
			return 0, fmt.Errorf("audit %s: observed pair %v is missing from the merged audit", m.Object, e)
		}
	}
	for _, u := range m.Undecided {
		if u.Reader >= len(ex.read[obj]) || !ex.read[obj][u.Reader] {
			return 0, fmt.Errorf("audit %s: undecided pair (reader %d, wid %d) from a reader that never fetched", m.Object, u.Reader, u.Wid)
		}
	}
	return len(got), nil
}

// checkSuspects demands that the cluster client blamed exactly the planted
// corruptor: want is nil on an honest cluster and {3} on cluster-byz.
func checkSuspects(what string, got, want []uint32) error {
	got = append([]uint32(nil), got...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != len(want) {
		return fmt.Errorf("%s = %v, want %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	return nil
}
