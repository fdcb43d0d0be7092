package main

import (
	"bufio"
	"encoding/json"
	"os"
)

// span is one timed interval at a layer boundary, recorded from outside the
// program: the harness wraps the calls it makes into each layer's public
// API. Spans of one op share its id; parent is an index into the same log,
// -1 for a root. n is how many calls the interval covers (isolated replays
// time batches of sub-microsecond calls under one span).
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Op     uint64 `json:"op_id"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n"`
}

// spanLog is one goroutine's spans, kept in memory until the run ends.
type spanLog struct {
	spans []span
}

// begin opens a span and returns its index; end closes it.
func (l *spanLog) begin(name string, parent int32, op uint64) int32 {
	l.spans = append(l.spans, span{Name: name, Parent: parent, Op: op, Start: nanotime(), N: 1})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) end(i int32) { l.spans[i].End = nanotime() }

// add records a span whose interval the caller has already measured.
func (l *spanLog) add(name string, parent int32, op uint64, start, end int64) {
	l.spans = append(l.spans, span{Name: name, Parent: parent, Op: op, Start: start, End: end, N: 1})
}

// selfTimes returns, per span name, every span's self time per call in ns:
// its duration minus the part its children cover, over n.
func selfTimes(logs []*spanLog) map[string][]float64 {
	out := map[string][]float64{}
	for _, l := range logs {
		child := make([]int64, len(l.spans))
		for _, s := range l.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range l.spans {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[i])/float64(s.N))
		}
	}
	return out
}

// writeSpans writes the logs as JSON lines.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, l := range logs {
		for i := range l.spans {
			if err := enc.Encode(&l.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
