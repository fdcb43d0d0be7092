package telem

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteStages writes the stage snapshots as Prometheus text exposition
// (version 0.0.4): one cumulative histogram family
// auditreg_stage_duration_seconds{stage=...} plus quantized-quantile gauges
// auditreg_stage_latency_ns{stage=...,q=...} for scrapers that want the
// STATS-frame summaries without doing histogram math. Only non-empty
// buckets get a _bucket line (plus the mandatory +Inf); the full bucket
// layout is fixed (powers of two in nanoseconds), so sparse output loses
// nothing.
func WriteStages(w io.Writer, stages []StageSnapshot) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# HELP auditreg_stage_duration_seconds Per-stage pipeline latency, quantized to power-of-two nanosecond buckets. Aggregate-only: no per-object or per-reader dimensions.\n")
	fmt.Fprintf(bw, "# TYPE auditreg_stage_duration_seconds histogram\n")
	for _, st := range stages {
		var cum uint64
		for i, n := range st.Buckets {
			if n == 0 {
				continue
			}
			cum += n
			fmt.Fprintf(bw, "auditreg_stage_duration_seconds_bucket{stage=%q,le=%q} %d\n",
				st.Name, formatSeconds(BucketBound(i)), cum)
		}
		fmt.Fprintf(bw, "auditreg_stage_duration_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", st.Name, st.Count)
		fmt.Fprintf(bw, "auditreg_stage_duration_seconds_sum{stage=%q} %s\n", st.Name, formatSeconds(st.Sum))
		fmt.Fprintf(bw, "auditreg_stage_duration_seconds_count{stage=%q} %d\n", st.Name, st.Count)
	}
	fmt.Fprintf(bw, "# HELP auditreg_stage_latency_ns Quantized per-stage latency summaries (bucket upper bounds, nanoseconds).\n")
	fmt.Fprintf(bw, "# TYPE auditreg_stage_latency_ns gauge\n")
	for _, st := range stages {
		fmt.Fprintf(bw, "auditreg_stage_latency_ns{stage=%q,q=\"p50\"} %d\n", st.Name, st.Quantile(0.50))
		fmt.Fprintf(bw, "auditreg_stage_latency_ns{stage=%q,q=\"p99\"} %d\n", st.Name, st.Quantile(0.99))
		fmt.Fprintf(bw, "auditreg_stage_latency_ns{stage=%q,q=\"max\"} %d\n", st.Name, st.Max())
	}
	return bw.Flush()
}

// formatSeconds renders a nanosecond count as seconds without float round
// trips ("0.000016384"), the unit Prometheus histograms conventionally use.
func formatSeconds(ns uint64) string {
	sec := ns / 1e9
	frac := ns % 1e9
	if frac == 0 {
		return strconv.FormatUint(sec, 10)
	}
	s := fmt.Sprintf("%d.%09d", sec, frac)
	return strings.TrimRight(s, "0")
}

// ParseText parses Prometheus text exposition into a flat map keyed by the
// sample's full name-with-labels (exactly as it appears on the line, e.g.
// `auditreg_stage_latency_ns{stage="store-op",q="p50"}`). It is the
// scraper-side inverse of WriteStages, shared by cmd/loadgen and the E18
// metrics observer; comment lines are skipped and unparsable values ignored.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is everything after the last space; label values never
		// contain spaces in our exposition.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// SortedKeys returns the map's keys sorted — scrape deltas need a stable
// feature order across trials.
func SortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
