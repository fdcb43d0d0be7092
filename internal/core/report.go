package core

import (
	"fmt"
	"sort"
	"strings"
)

// Entry is one audited access: reader j effectively read Value.
type Entry[V comparable] struct {
	// Reader is the reader index j.
	Reader int
	// Value is the register value the reader obtained.
	Value V
}

// Report is an audit response: the set of pairs (j, v) such that p_j has an
// effective read of v linearized before the audit. Entries appear in
// discovery order (ascending sequence number, then ascending reader index
// within a row); the set semantics of the paper are preserved — no pair
// appears twice.
type Report[V comparable] struct {
	entries []Entry[V]
}

// NewReport builds a report from explicit entries, deduplicated, preserving
// first occurrence order. It is exported for tests and specifications.
func NewReport[V comparable](entries ...Entry[V]) Report[V] {
	seen := make(map[Entry[V]]struct{}, len(entries))
	out := make([]Entry[V], 0, len(entries))
	for _, e := range entries {
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		out = append(out, e)
	}
	return Report[V]{entries: out}
}

// NewReportView wraps entries without copying or deduplicating. The entries
// must be distinct already and must not be mutated afterwards; appending to a
// slice the view was capped from is fine. It is the zero-copy counterpart of
// NewReport for producers that maintain the set invariant themselves.
func NewReportView[V comparable](entries []Entry[V]) Report[V] {
	return Report[V]{entries: entries}
}

// Len returns the number of distinct audited pairs.
func (r Report[V]) Len() int { return len(r.entries) }

// Entries returns a copy of the audited pairs.
func (r Report[V]) Entries() []Entry[V] {
	out := make([]Entry[V], len(r.entries))
	copy(out, r.entries)
	return out
}

// From returns the entries after the first n, in discovery order, without
// copying: what a consumer that already folded n entries of this auditor's
// cumulative report has not seen. Read-only, like every view.
func (r Report[V]) From(n int) []Entry[V] { return r.entries[n:] }

// Contains reports whether the pair (reader, value) was audited.
func (r Report[V]) Contains(reader int, value V) bool {
	for _, e := range r.entries {
		if e.Reader == reader && e.Value == value {
			return true
		}
	}
	return false
}

// ValuesRead returns the distinct values reader j was audited reading, in
// discovery order.
func (r Report[V]) ValuesRead(reader int) []V {
	var out []V
	for _, e := range r.entries {
		if e.Reader == reader {
			out = append(out, e.Value)
		}
	}
	return out
}

// ReadersOf returns the sorted indices of readers audited reading value.
func (r Report[V]) ReadersOf(value V) []int {
	var out []int
	for _, e := range r.entries {
		if e.Value == value {
			out = append(out, e.Reader)
		}
	}
	sort.Ints(out)
	return out
}

// Equal reports whether two reports contain the same set of pairs,
// irrespective of order.
func (r Report[V]) Equal(other Report[V]) bool {
	if len(r.entries) != len(other.entries) {
		return false
	}
	set := make(map[Entry[V]]struct{}, len(r.entries))
	for _, e := range r.entries {
		set[e] = struct{}{}
	}
	for _, e := range other.entries {
		if _, ok := set[e]; !ok {
			return false
		}
	}
	return true
}

// String renders the report as "{(j, v), ...}" sorted by reader then value
// formatting, for stable test output.
func (r Report[V]) String() string {
	parts := make([]string, len(r.entries))
	for i, e := range r.entries {
		parts[i] = fmt.Sprintf("(%d, %v)", e.Reader, e.Value)
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}
