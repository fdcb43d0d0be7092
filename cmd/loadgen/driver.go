package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"auditreg"
)

// retryPause separates two attempts of one operation: long enough not to
// spin against a daemon that is restarting, short next to its restart time.
const retryPause = 25 * time.Millisecond

// observation is one effective read the driver performed: reader j of
// object i obtained val. The union of a cell's observations is exactly what
// the audit of each object must report — loadgen is its own ground truth.
type observation struct {
	obj    int
	reader int
	val    uint64
}

// attempt is one write the driver issued, logged before the first try: the
// value may reach the object whether or not the write is ever acknowledged.
type attempt struct {
	obj int
	val uint64
}

// ambiguousKey marks an (object, reader) pair whose read failed at least
// once: the target may have performed (and audited) the fetch without the
// driver ever seeing the value, even if a retry later succeeded.
type ambiguousKey struct {
	obj    int
	reader int
}

// workerLog is one worker goroutine's private bookkeeping, folded after the
// traffic. Nothing here is shared on the measured path: a global mutex or a
// shared map would contend on every op and steal CPU from the very system
// being measured. lats holds the latency of each completed op, first attempt
// to final ack (retry-inclusive).
type workerLog struct {
	obs       []observation
	attempted []attempt
	ambiguous []ambiguousKey
	lats      []int64
}

// runCell is one grid cell, whatever the mode: open the target's objects,
// run the seeded op stream from cfg.goroutines workers with the fault plan
// beside them, then verify a seeded sample of objects two-sidedly against a
// fresh audit and fold everything into one Result.
//
// An op that errors is retried — same object, same value, same reader —
// until it succeeds or the plan's per-op deadline expires, so the op stream
// survives an outage intact. failed-ops counts ops that never completed and
// fails the cell in every mode: an op the system acknowledged it would serve
// and did not is a lost op, whatever else verified. retried-ops counts ops
// that succeeded after at least one failure — the requests whose first ack a
// fault genuinely lost.
func runCell(cfg cellConfig, t target, p plan) (res Result, err error) {
	defer func() {
		if cerr := t.close(); err == nil {
			err = cerr
		}
	}()
	names, m, err := t.open(cfg)
	if err != nil {
		return res, err
	}

	logs := make([]workerLog, cfg.goroutines)
	var reads, writes, lookups, failedOps, retriedOps atomic.Uint64
	var firstLost atomic.Pointer[error]
	opsDone := func() uint64 { return reads.Load() + writes.Load() + lookups.Load() }

	// The fault plan runs beside the workers. stop tells the workers to
	// abandon their work: a paced plan has finished (the plan, not cfg.ops,
	// ends such a cell, so every fault window is guaranteed live traffic),
	// or the plan failed and the system is not coming back — retries would
	// only grind out per-op deadlines before the cell fails anyway.
	stop := make(chan struct{})
	trafficDone := make(chan struct{})
	planDone := make(chan error, 1)
	var kills uint64
	go func() {
		var err error
		if p.run != nil {
			kills, err = p.run(traffic{ops: opsDone, quarter: uint64(cfg.ops / 4), done: trafficDone})
		}
		if err != nil || p.paced {
			close(stop)
		}
		planDone <- err
	}()

	mallocs0, bytes0 := memCounters()
	start := time.Now()
	var wg sync.WaitGroup
	for g := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(cfg.seed) + int64(g)*7919))
			reader := g % m
			n := cfg.ops / cfg.goroutines
			if g < cfg.ops%cfg.goroutines {
				n++
			}
			log := &logs[g]
			log.obs = make([]observation, 0, n)
			log.lats = make([]int64, 0, n)
			// One clock read per op: an op's latency runs from the previous
			// op's completion, so it includes the (negligible) op draw.
			begin := time.Now()
			for i := 0; p.paced || i < n; i++ {
				select {
				case <-stop:
					return
				default:
				}
				obj := rng.Intn(len(names))
				roll := rng.Intn(100)
				isWrite := roll < cfg.writePct
				isLookup := !isWrite && roll < cfg.writePct+cfg.auditPct
				var val uint64
				if isWrite {
					val = 1 + uint64(rng.Intn(1<<20)) // nonzero: 0 is the public initial value
					log.attempted = append(log.attempted, attempt{obj: obj, val: val})
				}
				failures := 0
				var err error
				for {
					switch {
					case isWrite:
						err = t.write(obj, val)
					case isLookup:
						err = t.lookup(obj)
					default:
						val, err = t.read(obj, reader)
					}
					if err == nil {
						break
					}
					failures++
					if failures == 1 && !isWrite && !isLookup {
						log.ambiguous = append(log.ambiguous, ambiguousKey{obj: obj, reader: reader})
					}
					if time.Since(begin) >= p.opDeadline {
						failedOps.Add(1) // never completed: a genuinely lost op
						firstLost.CompareAndSwap(nil, &err)
						break
					}
					select {
					case <-stop:
						// An op abandoned mid-retry at teardown is not
						// lost: nothing acked it.
						return
					case <-time.After(retryPause):
					}
				}
				now := time.Now()
				if err != nil {
					begin = now
					continue
				}
				switch {
				case isWrite:
					writes.Add(1)
				case isLookup:
					lookups.Add(1)
				default:
					log.obs = append(log.obs, observation{obj: obj, reader: reader, val: val})
					reads.Add(1)
				}
				if failures > 0 {
					retriedOps.Add(1)
				}
				log.lats = append(log.lats, int64(now.Sub(begin)))
				begin = now
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	mallocs1, bytes1 := memCounters()
	close(trafficDone)

	// One exit-status rule for every mode: the plan ran clean, it did what
	// it was there to do, and no op was lost.
	if err := <-planDone; err != nil {
		return res, err
	}
	if p.run != nil && kills == 0 {
		return res, fmt.Errorf("the fault plan never fired: traffic finished before its trigger, so the cell proved nothing")
	}
	if lost := failedOps.Load(); lost > 0 {
		return res, fmt.Errorf("%d op(s) never completed within %v — acked capacity lost (first: %v)", lost, p.opDeadline, *firstLost.Load())
	}

	lats := make([]int64, 0, opsDone())
	for i := range logs {
		lats = append(lats, logs[i].lats...)
	}
	slices.Sort(lats)
	quantile := func(q float64) int64 {
		if len(lats) == 0 {
			return 0
		}
		return lats[int(q*float64(len(lats)-1))]
	}

	tally, err := verify(t, names, fold(len(names), logs), cfg.verify, cfg.seed)
	if err != nil {
		return res, err
	}
	extra, err := t.counters()
	if err != nil {
		return res, err
	}

	totalOps := opsDone()
	metrics, err := metric(append([]any{
		"ns/op", float64(elapsed.Nanoseconds()) / float64(totalOps),
		"ops/s", float64(totalOps) / elapsed.Seconds(),
		"allocs/op", float64(mallocs1-mallocs0) / float64(totalOps),
		"bytes/op", float64(bytes1-bytes0) / float64(totalOps),
		"reads", reads.Load(),
		"writes", writes.Load(),
		"audit-lookups", lookups.Load(),
		"failed-ops", failedOps.Load(),
		"retried-ops", retriedOps.Load(),
		"p50-ns", quantile(0.50),
		"p99-ns", quantile(0.99),
		"max-op-ms", float64(quantile(1)) / 1e6,
		"kills", kills,
		"verified-objects", tally.checked,
		"audited-pairs", tally.pairs,
		"ambiguous-pairs", tally.ambiguous,
		"stale-charged-pairs", tally.staleCharged,
		"undecided-pairs", tally.undecided,
		"audit-corrupted-nodes", 0, // a corrupted log fails verify
		"merged-nodes", tally.mergedNodesMin,
	}, extra...)...)
	if err != nil {
		return res, err
	}
	return Result{
		Name:    cfg.name,
		Iters:   int64(totalOps),
		Metrics: metrics,
	}, nil
}

// memCounters snapshots the runtime allocation counters behind the
// client-side allocs/op and bytes/op metrics of every cell.
func memCounters() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// ledger is what the driver knows at the end of the traffic, per object:
// observed[i] the (reader, value) pairs its reads acknowledged, attempted[i]
// the values its writes attempted (0, the initial value, included), readBy[i]
// the readers that completed a read on i, and ambiguous the (object, reader)
// pairs a failed read left unknown.
type ledger struct {
	observed  []map[auditreg.Entry[uint64]]bool
	attempted []map[uint64]bool
	readBy    []map[int]bool
	ambiguous map[ambiguousKey]bool
}

// fold merges the per-goroutine logs into one ledger over n objects.
func fold(n int, logs []workerLog) ledger {
	led := ledger{
		observed:  make([]map[auditreg.Entry[uint64]]bool, n),
		attempted: make([]map[uint64]bool, n),
		readBy:    make([]map[int]bool, n),
		ambiguous: make(map[ambiguousKey]bool),
	}
	for i := 0; i < n; i++ {
		led.observed[i] = make(map[auditreg.Entry[uint64]]bool)
		led.attempted[i] = map[uint64]bool{0: true}
		led.readBy[i] = make(map[int]bool)
	}
	for _, log := range logs {
		for _, o := range log.obs {
			led.observed[o.obj][auditreg.Entry[uint64]{Reader: o.reader, Value: o.val}] = true
			led.readBy[o.obj][o.reader] = true
		}
		for _, a := range log.attempted {
			led.attempted[a.obj][a.val] = true
		}
		for _, k := range log.ambiguous {
			led.ambiguous[k] = true
		}
	}
	return led
}

// tally carries the verifier's counts into the cell metrics.
type tally struct {
	checked        int
	pairs          uint64 // audited pairs over the sample
	ambiguous      uint64 // unobserved pairs excused by a failed read
	staleCharged   uint64 // unobserved pairs excused by a dispersed reader's overlap
	undecided      uint64
	mergedNodesMin int
}

// verify is the end-of-cell check of the paper's claim — a read is audited
// iff it became effective — on a seeded sample of objects, against a fresh
// audit of each. The sample is a seeded shuffle, not a stride: a stride that
// is a multiple of the kind count would align with the round-robin kind
// assignment and only ever verify one kind. The check is two-sided, with
// precise concessions to physics:
//
//   - Wrong reads: every value a read returned must be the initial value or
//     one some write attempted. Checked on all objects, not just the sample.
//   - Completeness: every (reader, value) the driver successfully read must
//     be charged. An acknowledged effective read is durable (fsync=always),
//     and on a cluster it acked only after ≥ k nodes journaled the fetch, so
//     it survives a crash and the merge needs only k of n logs to charge it.
//     The one exclusion is a dispersed read of the initial value (wid 0):
//     nothing was dispersed, nothing learned, and the merge does not charge
//     it; write values are minted nonzero so that 0 is unambiguous.
//   - Soundness: a charged pair the driver never observed is acceptable only
//     if some write attempted its value AND a read by that reader on that
//     object failed mid-flight — a fetch the target may have performed (and
//     audited) without the driver ever seeing the value — or, on a dispersed
//     target only, the reader fetched on the object at all (see
//     auditView.dispersed). Both are real knowledge, not slack.
//   - Undecided pairs (sub-threshold fetch evidence) must likewise trace back
//     to a reader that touched the object; they are counted, never charged.
//   - A node whose logged shares contradict the merge means a corrupt
//     journal, which would break the exactness claim: the cell fails.
func verify(t target, names []string, led ledger, sample int, seed uint64) (tally, error) {
	for i, obs := range led.observed {
		for e := range obs {
			if !led.attempted[i][e.Value] {
				return tally{}, fmt.Errorf("WRONG READ on %s: reader %d got %#x, which was never written", names[i], e.Reader, e.Value)
			}
		}
	}
	perm := rand.New(rand.NewSource(int64(seed))).Perm(len(names))
	if sample < len(perm) {
		perm = perm[:max(0, sample)]
	}
	var res tally
	for _, i := range perm {
		view, err := t.audit(i)
		if err != nil {
			return res, fmt.Errorf("verify %s: %w", names[i], err)
		}
		if len(view.corrupted) > 0 {
			return res, fmt.Errorf("verify %s: audit found corrupt journal shares on nodes %v", names[i], view.corrupted)
		}
		if res.checked == 0 || view.nodes < res.mergedNodesMin {
			res.mergedNodesMin = view.nodes
		}
		res.pairs += uint64(len(view.charged))
		got := make(map[auditreg.Entry[uint64]]bool, len(view.charged))
		for _, e := range view.charged {
			got[e] = true
			if led.observed[i][e] {
				continue
			}
			if !led.attempted[i][e.Value] {
				return res, fmt.Errorf("verify %s: audited pair (%d, %#x) has a value no write ever attempted", names[i], e.Reader, e.Value)
			}
			switch {
			case led.ambiguous[ambiguousKey{obj: i, reader: e.Reader}]:
				res.ambiguous++
			case view.dispersed && led.readBy[i][e.Reader]:
				res.staleCharged++
			case view.dispersed:
				return res, fmt.Errorf("verify %s: audited pair (%d, %#x) charged to a reader that never fetched on the object", names[i], e.Reader, e.Value)
			default:
				return res, fmt.Errorf("verify %s: audited pair (%d, %#x) was never observed and no read by that reader failed", names[i], e.Reader, e.Value)
			}
		}
		for e := range led.observed[i] {
			if !got[e] && !(view.dispersed && e.Value == 0) {
				return res, fmt.Errorf("verify %s: observed pair (%d, %#x) missing from the audit — an acknowledged effective read was lost", names[i], e.Reader, e.Value)
			}
		}
		for _, u := range view.undecided {
			if !led.readBy[i][u.Reader] && !led.ambiguous[ambiguousKey{obj: i, reader: u.Reader}] {
				return res, fmt.Errorf("verify %s: undecided pair (reader %d, wid %d) from a reader that never fetched on the object", names[i], u.Reader, u.Wid)
			}
			res.undecided++
		}
		res.checked++
	}
	return res, nil
}
