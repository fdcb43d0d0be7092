package main

import (
	"fmt"
	"math"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"

	"auditreg/cluster"
	"auditreg/internal/telem"
	"auditreg/server"
	"auditreg/wire"
)

// counterSet is one snapshot of everything the rung's layers already export:
// STATS counters, the servers' stage histograms, the client's round-trip
// histogram and the cluster client's detection counters. Two snapshots
// bracket a window; their difference is what the window did.
type counterSet struct {
	stats   map[string]uint64             // STATS pairs, summed over nodes
	stages  map[string]map[float64]uint64 // stage → bucket bound (s) → count, summed over nodes
	rtt     telem.Snapshot                // client.Client.RTT (single-node rungs)
	cluster cluster.Counters
	reads   struct{ reads, retries, stale, corrupted uint64 }
}

func (cs *counterSet) addStats(pairs []wire.StatPair) {
	for _, p := range pairs {
		cs.stats[p.Name] += p.Value
	}
}

// addStages scrapes srv's Prometheus endpoint in process (no socket) and
// folds its stage histograms in. The exposition carries cumulative counts of
// the non-empty log₂ buckets; they are turned back into per-bucket counts so
// that snapshots can be subtracted.
func (cs *counterSet) addStages(srv *server.Server) error {
	rec := httptest.NewRecorder()
	srv.MetricsMux().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		return fmt.Errorf("scrape /metrics: status %d", rec.Code)
	}
	samples, err := telem.ParseText(rec.Body)
	if err != nil {
		return err
	}
	type bucket struct {
		le  float64
		cum uint64
	}
	byStage := map[string][]bucket{}
	const prefix = `auditreg_stage_duration_seconds_bucket{stage="`
	for key, v := range samples {
		rest, ok := strings.CutPrefix(key, prefix)
		if !ok {
			continue
		}
		stage, rest, ok := strings.Cut(rest, `",le="`)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
		if err != nil {
			continue // +Inf repeats the total
		}
		byStage[stage] = append(byStage[stage], bucket{le, uint64(v)})
	}
	if cs.stages == nil {
		cs.stages = map[string]map[float64]uint64{}
	}
	for stage, bs := range byStage {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		if cs.stages[stage] == nil {
			cs.stages[stage] = map[float64]uint64{}
		}
		var prev uint64
		for _, b := range bs {
			cs.stages[stage][b.le] += b.cum - prev
			prev = b.cum
		}
	}
	return nil
}

// stat returns how much the named STATS counter grew from before to cs.
func (cs counterSet) stat(before counterSet, name string) float64 {
	return float64(cs.stats[name] - before.stats[name])
}

// stageQuantileUs returns the q-quantile, in µs, of the stage's observations
// between before and cs, estimated from the log₂ buckets (see
// bucketQuantile). 0 when the stage saw nothing.
func (cs counterSet) stageQuantileUs(before counterSet, stage string, q float64) float64 {
	delta := map[float64]uint64{}
	var total uint64
	for le, n := range cs.stages[stage] {
		if d := n - before.stages[stage][le]; d > 0 {
			delta[le] = d
			total += d
		}
	}
	return bucketQuantile(delta, total, q) * 1e6
}

// snapshotQuantileUs is stageQuantileUs for a telem histogram read directly:
// the q-quantile, in µs, of what after holds beyond before.
func snapshotQuantileUs(after, before telem.Snapshot, q float64) float64 {
	delta := map[float64]uint64{}
	var total uint64
	for i, n := range after.Buckets {
		if d := n - before.Buckets[i]; d > 0 {
			delta[float64(telem.BucketBound(i))/1e9] = d
			total += d
		}
	}
	return bucketQuantile(delta, total, q) * 1e6
}

// bucketQuantile estimates the q-quantile, in seconds, from per-bucket counts
// keyed by upper bound. The buckets are log₂ (each spans bound/2..bound), so
// the estimate interpolates linearly inside the bucket the rank falls in, as
// Prometheus' histogram_quantile does: it cannot be more than a factor of two
// off, and a sum of such estimates is not biased upward the way a sum of
// upper bounds is.
func bucketQuantile(counts map[float64]uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	bounds := make([]float64, 0, len(counts))
	for le := range counts {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	rank := math.Min(q*float64(total), float64(total-1))
	var cum float64
	for _, le := range bounds {
		n := float64(counts[le])
		if cum+n > rank {
			return le/2 + le/2*(rank-cum+0.5)/n
		}
		cum += n
	}
	return bounds[len(bounds)-1]
}
