package linearizability

import (
	"fmt"

	"auditreg/internal/history"
)

// AuditableRegisterModel is the sequential specification of Algorithm 1:
// reads return the latest written value; an audit returns exactly the pairs
// (j, v) of reads linearized before it.
type AuditableRegisterModel struct {
	// Initial is the register's initial value.
	Initial uint64
}

// Init implements Model.
func (m AuditableRegisterModel) Init() State {
	return regState{cur: m.Initial, pairs: map[history.Pair]struct{}{}}
}

type regState struct {
	cur   uint64
	pairs map[history.Pair]struct{}
}

// Apply implements State.
func (s regState) Apply(op history.Op) (State, bool) {
	switch op.Call {
	case "write":
		return regState{cur: op.Arg, pairs: s.pairs}, true
	case "read":
		if op.Out != s.cur {
			return nil, false
		}
		next := clonePairs(s.pairs)
		next[history.Pair{Reader: op.Proc, Value: op.Out}] = struct{}{}
		return regState{cur: s.cur, pairs: next}, true
	case "audit":
		return s, samePairSet(s.pairs, op.OutSet)
	default:
		return nil, false
	}
}

// Key implements State.
func (s regState) Key() string {
	return fmt.Sprintf("%d|%s", s.cur, pairSetKey(s.pairs))
}

// AuditableMaxModel is the sequential specification of Algorithm 2: reads
// return the largest value written; audits report effective reads.
type AuditableMaxModel struct {
	// Initial is the max register's initial value.
	Initial uint64
}

// Init implements Model.
func (m AuditableMaxModel) Init() State {
	return maxState{cur: m.Initial, pairs: map[history.Pair]struct{}{}}
}

type maxState struct {
	cur   uint64
	pairs map[history.Pair]struct{}
}

// Apply implements State.
func (s maxState) Apply(op history.Op) (State, bool) {
	switch op.Call {
	case "writeMax":
		cur := s.cur
		if op.Arg > cur {
			cur = op.Arg
		}
		return maxState{cur: cur, pairs: s.pairs}, true
	case "read":
		if op.Out != s.cur {
			return nil, false
		}
		next := clonePairs(s.pairs)
		next[history.Pair{Reader: op.Proc, Value: op.Out}] = struct{}{}
		return maxState{cur: s.cur, pairs: next}, true
	case "audit":
		return s, samePairSet(s.pairs, op.OutSet)
	default:
		return nil, false
	}
}

// Key implements State.
func (s maxState) Key() string {
	return fmt.Sprintf("%d|%s", s.cur, pairSetKey(s.pairs))
}

// RegisterModel is the plain (non-auditable) MWMR register specification;
// audits are rejected. Used to sanity-check the checker itself.
type RegisterModel struct {
	// Initial is the register's initial value.
	Initial uint64
}

// Init implements Model.
func (m RegisterModel) Init() State { return plainState{cur: m.Initial} }

type plainState struct {
	cur uint64
}

// Apply implements State.
func (s plainState) Apply(op history.Op) (State, bool) {
	switch op.Call {
	case "write":
		return plainState{cur: op.Arg}, true
	case "read":
		return s, op.Out == s.cur
	default:
		return nil, false
	}
}

// Key implements State.
func (s plainState) Key() string { return fmt.Sprintf("%d", s.cur) }

// SnapshotModel is the sequential specification of an n-component auditable
// snapshot with per-component single writers: update(i, v) encoded as Call
// "update" with Proc = i and Arg = v; scans return the component vector in
// OutVec and, in Out, the history's name for that vector (equal vectors,
// equal names); an audit returns exactly the pairs (scanner, name) of the
// scans linearized before it.
type SnapshotModel struct {
	// N is the component count.
	N int
}

// Init implements Model.
func (m SnapshotModel) Init() State {
	return snapState{view: make([]uint64, m.N), pairs: map[history.Pair]struct{}{}}
}

type snapState struct {
	view  []uint64
	pairs map[history.Pair]struct{}
}

// Apply implements State.
func (s snapState) Apply(op history.Op) (State, bool) {
	switch op.Call {
	case "update":
		if op.Proc < 0 || op.Proc >= len(s.view) {
			return nil, false
		}
		next := make([]uint64, len(s.view))
		copy(next, s.view)
		next[op.Proc] = op.Arg
		return snapState{view: next, pairs: s.pairs}, true
	case "scan":
		if len(op.OutVec) != len(s.view) {
			return nil, false
		}
		for i := range s.view {
			if op.OutVec[i] != s.view[i] {
				return nil, false
			}
		}
		next := clonePairs(s.pairs)
		next[history.Pair{Reader: op.Proc, Value: op.Out}] = struct{}{}
		return snapState{view: s.view, pairs: next}, true
	case "audit":
		return s, samePairSet(s.pairs, op.OutSet)
	default:
		return nil, false
	}
}

// Key implements State.
func (s snapState) Key() string { return fmt.Sprintf("%v|%s", s.view, pairSetKey(s.pairs)) }
