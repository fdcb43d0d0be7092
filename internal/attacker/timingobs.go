package attacker

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"time"

	"auditreg"
	"auditreg/client"
	"auditreg/internal/awake"
	"auditreg/internal/shard"
	"auditreg/server"
	"auditreg/store"
	"auditreg/wire"
)

// Timing observer (E18, timing channel). The paper's silent read is the
// whole point of the construction: a read that finds the tracking state
// already current touches no shared state, so concurrent writers proceed as
// if it never happened. This observer checks the claim with a stopwatch
// instead of a memory model: a victim writer measures its own write
// latencies while a curious reader polls — silently — some other object,
// and the distinguisher asks whether the writer can tell from its latency
// distribution that the poller exists.
//
// The positive control replaces the silent poller with the loudest one the
// protocol allows: pipelined readers of the object being written, one
// connection per processor. Every write renumbers the sequence, so the polls
// keep turning into effective fetches — fetch&xor on the written object's
// own shared state, an announce, WAL records — all serialized on the
// victim's own shard, by server readers that never go idle. That must be
// visible, or the stopwatch has no resolution.

const (
	// timingWrites is the number of write latencies sampled per trial.
	timingWrites = 24
	// timingPollGap paces the honest silent poller at a realistic curious-
	// reader rate (~1k polls/s). The claim under test is that a silent read
	// touches no shared state, not that the server hides CPU load — a
	// tight-loop poller of ANY request kind is visible to a stopwatch simply
	// by occupying the machine, which is why the lab paces the honest poller
	// and routes it to a different shard than the victim (see
	// timingGames), leaving shared-state contention as the only signal the
	// game can carry.
	timingPollGap = time.Millisecond
	// loudWindow is how many requests each of the control's connections
	// keeps in flight: enough to keep a server reader busy between two
	// wake-ups of its client, few enough that the client has work too.
	loudWindow = 64
)

// timingWriteTarget is the victim's object. The poll target is picked so
// its name hashes to a different execution shard than the victim's whenever
// the server runs more than one (shard = hash & pow2mask, so differing in
// the hash's low bit separates them at every shard count > 1): the honest
// game must not measure shard-queue sharing between two unrelated
// objects, which any two requests exhibit, read or not.
const timingWriteTarget = "e18/timing/write-target"

func timingPollTarget() string {
	want := shard.Hash(timingWriteTarget)&1 ^ 1
	for i := 0; ; i++ {
		name := fmt.Sprintf("e18/timing/poll-target-%d", i)
		if shard.Hash(name)&1 == want {
			return name
		}
	}
}

// timingLab drives the timing games against a live auditd.
type timingLab struct {
	writer *client.Client
	poller *client.Client
	addr   string
	wObj   *client.Object // write target
	pObj   *client.Object // silent-poll target (distinct object)
	ctr    uint64
}

// timingGames observes cfg.Addr, or an in-process auditd (volatile —
// timing needs no data directory), and warms both targets.
//
// The CPUs are kept from halting for the lab's lifetime (package awake): the
// stopwatch compares a run with a poller against a run with nothing else on
// the machine, and on a host whose idle CPUs halt, which of the two is the
// faster depends on the halt regime of the moment.
func timingGames(l *lab, cfg Config) ([]Distinguisher, error) {
	_, sleep := awake.Keep()
	l.onClose(sleep)
	t := &timingLab{addr: cfg.Addr}
	var err error
	if t.addr == "" {
		if _, t.addr, err = l.serve(server.Config{Key: auditreg.KeyFromSeed(cfg.Seed), Readers: 4}, nil); err != nil {
			return nil, err
		}
	}
	if t.writer, err = l.dial(t.addr, client.WithConns(1)); err != nil {
		return nil, err
	}
	// The poller gets its own connection pool: the honest-but-curious reader
	// is a separate process, and sharing the writer's pipe would measure
	// head-of-line blocking in the lab's own client, not the server.
	if t.poller, err = l.dial(t.addr, client.WithConns(1)); err != nil {
		return nil, err
	}
	if t.wObj, err = t.writer.Open(timingWriteTarget, store.Register); err != nil {
		return nil, err
	}
	if t.pObj, err = t.poller.Open(timingPollTarget(), store.Register); err != nil {
		return nil, err
	}
	// Warm both objects: a write each, and a first (effective) read of the
	// poll target so the poller's subsequent reads are silent.
	if err = t.wObj.Write(1); err != nil {
		return nil, err
	}
	if err = t.pObj.Write(1); err != nil {
		return nil, err
	}
	if _, err = t.pObj.Read(0); err != nil {
		return nil, err
	}
	features := []string{"mean-ns", "p50-ns", "p90-ns", "min-ns"}
	return []Distinguisher{
		// The honest game: the secret is whether a paced silent-read poller
		// runs against a *different* object while the victim writes.
		// Silence means the writer's latency distribution cannot tell.
		{Name: "timing/silent-read", Features: features, Trial: func(b int) ([]float64, error) {
			return t.trial(b, t.pollSilent)
		}},
		// The positive control: pipelined pollers keep effective reads of
		// the write target itself in flight, contending on its shared
		// state, its shard and its cores. The stopwatch must see this.
		{Name: "timing/effective-read+loud", Control: true, Features: features, Trial: func(b int) ([]float64, error) {
			return t.trial(b, t.pollEffective)
		}},
	}, nil
}

// trial measures timingWrites write latencies; with b == 1 the given poller
// runs concurrently — the stopwatch starts once it says it is under way —
// until the measurements end.
func (l *timingLab) trial(b int, poll func(ready chan<- struct{}, stop <-chan struct{}) error) ([]float64, error) {
	stop := make(chan struct{})
	pollErr := make(chan error, 1)
	if b == 1 {
		ready := make(chan struct{})
		go func() { pollErr <- poll(ready, stop) }()
		select {
		case <-ready:
		case err := <-pollErr:
			return nil, err
		}
	}

	lats := make([]float64, 0, timingWrites)
	for k := 0; k < timingWrites; k++ {
		l.ctr++
		v := 0x7131_0000_0000 + l.ctr
		t0 := time.Now()
		err := l.wObj.Write(v)
		lat := time.Since(t0)
		if err != nil {
			close(stop)
			return nil, err
		}
		lats = append(lats, float64(lat.Nanoseconds()))
	}

	close(stop)
	if b == 1 {
		if err := <-pollErr; err != nil {
			return nil, err
		}
	}
	return timingFeaturesOf(lats), nil
}

// pollSilent reads the poll target — a stable object the poller's cache is
// already current for, so every round is a silent fetch — paced at
// timingPollGap, until stopped.
func (l *timingLab) pollSilent(ready chan<- struct{}, stop <-chan struct{}) error {
	tick := time.NewTicker(timingPollGap)
	defer tick.Stop()
	close(ready)
	for {
		select {
		case <-stop:
			return nil
		case <-tick.C:
			if _, err := l.pObj.Read(0); err != nil {
				return err
			}
		}
	}
}

// pollEffective is the control's poller: one loud connection per processor
// (see pollLoud), so that however the scheduler places the victim's round
// trips, a server reader busy with the victim's object is on its shard and
// on its core. It reports ready once every connection has requests queued
// (or has failed: the error then surfaces when the trial stops the rest).
func (l *timingLab) pollEffective(ready chan<- struct{}, stop <-chan struct{}) error {
	n := runtime.GOMAXPROCS(0)
	up, errs := make(chan struct{}, n), make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { errs <- l.pollLoud(up, stop) }()
	}
	for i := 0; i < n; i++ {
		<-up
	}
	close(ready)
	var err error
	for i := 0; i < n; i++ {
		if e := <-errs; e != nil {
			err = e
		}
	}
	return err
}

// pollLoud keeps a window of reads of the write target itself in flight on a
// connection of its own; the victim's writes keep renumbering the target, so
// the reads keep turning effective. The window is the point: a poller that
// waits for each answer before it asks again spends its time being woken,
// not working, and where the scheduler leaves it parked while the victim's
// round trips chain on one thread — it happens for whole runs — it completes
// one read per trial and the control is silent (measured: 1 read in a 170 µs
// trial against 48 in lockstep with the victim's 24 writes, and accuracy at
// chance in a third of the runs). With loudWindow requests always queued,
// the server's reader for this connection runs them to completion back to
// back, no wake-up in between.
func (l *timingLab) pollLoud(up chan<- struct{}, stop <-chan struct{}) error {
	queued := false
	defer func() {
		if !queued {
			up <- struct{}{} // failed before it got going: do not hold the trial up
		}
	}()
	nc, err := net.Dial("tcp", l.addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	sc := wire.NewFrameScanner(nc, 32<<10)
	open := wire.AppendFrame(nil, 1, wire.VerbOpen, (&wire.OpenReq{Name: timingWriteTarget, Kind: wire.KindRegister}).Append(nil))
	if _, err := nc.Write(open); err != nil {
		return err
	}
	if f, err := sc.Next(); err != nil || f.Verb != wire.VerbOpen {
		return fmt.Errorf("loud poller: open answered %v, %v", f.Verb, err)
	}
	var burst []byte
	for i := 0; i < loudWindow/2; i++ {
		// Reader 1..3: the lab's servers have at least 4. PrevSeq -1 never
		// matches, so every answer carries the value.
		req := wire.ReadFetchReq{Name: timingWriteTarget, Reader: uint8(1 + i%3), PrevSeq: ^uint64(0)}
		burst = wire.AppendFrame(burst, uint64(2+i), wire.VerbReadFetch, req.Append(nil))
	}
	await := func() error {
		for i := 0; i < loudWindow/2; i++ {
			if f, err := sc.Next(); err != nil || f.Verb != wire.VerbReadFetch {
				return fmt.Errorf("loud poller: read answered %v, %v", f.Verb, err)
			}
		}
		return nil
	}
	if _, err := nc.Write(burst); err != nil {
		return err
	}
	queued = true
	up <- struct{}{}
	for {
		select {
		case <-stop:
			return await() // nothing of this trial's is left in flight for the next
		default:
		}
		if _, err := nc.Write(burst); err != nil {
			return err
		}
		if err := await(); err != nil {
			return err
		}
	}
}

// timingFeaturesOf reduces one trial's latency samples to the observer's
// summary statistics.
func timingFeaturesOf(lats []float64) []float64 {
	sorted := append([]float64(nil), lats...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range lats {
		sum += v
	}
	n := len(sorted)
	return []float64{
		sum / float64(n),
		sorted[n/2],
		sorted[n*9/10],
		sorted[0],
	}
}
