package main

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// window is what one closed-loop pass over the op stream measured.
type window struct {
	ops, reads, writes, reports, failed uint64

	wall     time.Duration
	cpu      time.Duration // process user+sys
	mallocs  uint64
	lat      [2]latHist // lat[opRead], lat[opWrite]: caller-side latency of the timed ops
	firstErr error

	// slices is the pass cut into sliceWidth pieces, the unfinished last one
	// left out; empty when the pass had no time limit or was shorter than two.
	slices []sliceStat
}

// sliceWidth is the grain of a pass's time series. The machine's speed moves
// in episodes of a few hundred milliseconds to many seconds; at this grain an
// episode spoils the slices it covers and leaves the others as they were.
const sliceWidth = 250 * time.Millisecond

// sliceStat is what all callers together did in one slice of a pass.
type sliceStat struct {
	rate     float64    // ops/s
	cpuPerOp float64    // process user+sys µs per op
	p50      [2]float64 // µs, by op kind; 0 when the slice timed no such op
}

// callerSlice is one caller's share of a slice.
type callerSlice struct {
	ops uint64
	cpu time.Duration // process CPU when the slice ended; caller 0 reads it
	lat [2]latHist
}

// rate is the pass's throughput in ops/s.
func (w *window) rate() float64 { return float64(w.ops) / w.wall.Seconds() }

// latency is the p-quantile latency of kind in µs.
func (w *window) latency(kind opKind, p float64) float64 { return w.lat[kind].quantile(p) / 1e3 }

// latHist is a fixed-size latency histogram: 64 linear sub-buckets per power
// of two of nanoseconds, so a bucket is at most 1.6 % wide. Fixed size keeps
// the harness's own memory out of heap_mb however long the run; quantiles
// interpolate inside the bucket, so they stay continuous.
type latHist struct {
	n      uint64
	counts [40 * 64]uint32
}

func (h *latHist) index(ns int64) int {
	if ns < 64 {
		return int(max(ns, 0))
	}
	exp := bits.Len64(uint64(ns)) - 7 // ns>>exp is in [64, 128)
	return min((exp+1)*64+int(uint64(ns)>>uint(exp))-64, len(h.counts)-1)
}

// lower is the smallest latency bucket i holds.
func (h *latHist) lower(i int) float64 {
	if i < 64 {
		return float64(i)
	}
	exp := i/64 - 1
	return float64(uint64(64+i%64) << uint(exp))
}

func (h *latHist) record(ns int64) {
	h.counts[h.index(ns)]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in ns, 0 when empty.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); rank < next {
			lo, hi := h.lower(i), h.lower(i+1)
			return lo + (hi-lo)*(rank-cum+0.5)/float64(c)
		} else {
			cum = next
		}
	}
	return h.lower(len(h.counts) - 1)
}

// stopRule ends a pass once every caller has done ops ops, or — if dur is
// set — once dur has passed, whichever comes first.
type stopRule struct {
	ops uint64
	dur time.Duration
}

// driver is the closed loop: callers goroutines, each a sequential process
// that issues its next op only when the previous one has returned, reading
// as reader index c. next[c] is the caller's position in the op stream and
// carries over from warm-up to the timed pass.
type driver struct {
	st   stream
	r    rung
	g    *gate
	next []uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run executes one pass. With spans != nil every timed op is also recorded
// as a root span with the call into the rung's layer as its child.
func (d *driver) run(stop stopRule, spans []*spanLog) window {
	type tally struct {
		w      window
		slices []callerSlice
		last   int // the slice the caller was in when it finished
		pad    [64]byte
	}
	per := make([]tally, d.st.callers)
	if stop.dur > 0 {
		for c := range per {
			per[c].slices = make([]callerSlice, int(stop.dur/sliceWidth)+2)
		}
	}
	mask := d.st.sp.sampleMask
	layer := d.st.sp.layer()
	names := [2]string{layer + ".read", layer + ".write"}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0, cpu0 := ms.Mallocs, processCPU()
	var wg sync.WaitGroup
	t0 := nanotime()
	for c := 0; c < d.st.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := &per[c].w
			var sl *spanLog
			if spans != nil {
				sl = spans[c]
			}
			slices, cur, curOps := per[c].slices, 0, uint64(0)
			j, end := d.next[c], d.next[c]+stop.ops
			for ; j < end; j++ {
				timed := j&mask == 0
				if timed && stop.dur > 0 && nanotime()-t0 >= int64(stop.dur) {
					break
				}
				traced := timed && sl != nil
				var root int32
				if traced {
					root = sl.begin("op", -1, j)
				}
				o := d.st.at(c, j)
				var s0, s1 int64
				if timed {
					s0 = nanotime()
				}
				res, err := d.r.do(c, o)
				if timed {
					s1 = nanotime()
				}
				w.ops++
				switch {
				case err != nil:
					w.failed++
					if w.firstErr == nil {
						w.firstErr = fmt.Errorf("caller %d op %d (%+v): %w", c, j, o, err)
					}
				case o.kind == opRead:
					w.reads++
					d.g.observe(c, o.obj, res)
				case o.kind == opWrite:
					w.writes++
				default:
					w.reports++
				}
				if timed && slices != nil {
					// An op belongs to the slice it ended in.
					if now := int((s1 - t0) / int64(sliceWidth)); now != cur && now < len(slices) {
						slices[cur].ops = w.ops - 1 - curOps
						if c == 0 {
							slices[cur].cpu = processCPU()
						}
						cur, curOps = now, w.ops-1
					}
				}
				if timed && o.kind != opReport {
					w.lat[o.kind].record(s1 - s0)
					if slices != nil {
						slices[cur].lat[o.kind].record(s1 - s0)
					}
				}
				if traced {
					if o.kind != opReport {
						sl.add(names[o.kind], root, j, s0, s1)
					}
					sl.end(root)
				}
			}
			d.next[c], d.g.bound[c] = j, j
			per[c].last = cur
		}(c)
	}
	wg.Wait()
	var out window
	out.wall = time.Duration(nanotime() - t0)
	out.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms)
	out.mallocs = ms.Mallocs - mallocs0
	for c := range per {
		w := &per[c].w
		out.ops += w.ops
		out.reads += w.reads
		out.writes += w.writes
		out.reports += w.reports
		out.failed += w.failed
		for k := range out.lat {
			out.lat[k].merge(&w.lat[k])
		}
		if out.firstErr == nil {
			out.firstErr = w.firstErr
		}
	}
	// A slice counts when every caller worked through all of it: the one a
	// caller finished in does not, nor one a caller spent inside a single op.
	full := len(per[0].slices)
	for c := range per {
		full = min(full, per[c].last)
	}
	prevCPU := cpu0
next:
	for i := 0; i < full; i++ {
		var st sliceStat
		var lat [2]latHist
		var ops uint64
		cpu := per[0].slices[i].cpu - prevCPU
		if per[0].slices[i].cpu != 0 {
			prevCPU = per[0].slices[i].cpu
		}
		for c := range per {
			cs := &per[c].slices[i]
			if cs.ops == 0 {
				continue next
			}
			ops += cs.ops
			for k := range lat {
				lat[k].merge(&cs.lat[k])
			}
		}
		st.rate = float64(ops) / sliceWidth.Seconds()
		st.cpuPerOp = float64(cpu.Nanoseconds()) / 1e3 / float64(ops)
		for k := range lat {
			st.p50[k] = lat[k].quantile(0.5) / 1e3
		}
		out.slices = append(out.slices, st)
	}
	return out
}

// quantile returns the q-quantile of samples (sorted in place), linearly
// interpolated, and 0 for no samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	pos := q * float64(len(samples)-1)
	lo := int(pos)
	if lo+1 >= len(samples) {
		return samples[len(samples)-1]
	}
	frac := pos - float64(lo)
	return samples[lo]*(1-frac) + samples[lo+1]*frac
}

// processStart anchors nanotime.
var processStart = time.Now()

// nanotime is a monotonic clock reading in ns.
func nanotime() int64 { return int64(time.Since(processStart)) }
