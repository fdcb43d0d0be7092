package attacker

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"auditreg"
	"auditreg/client"
	"auditreg/internal/telem"
	"auditreg/persist"
	"auditreg/server"
	"auditreg/store"
)

// Counter observers (E18, stats and metrics channels). STATS and the
// -metrics-addr endpoint are auditd's operational telemetry, and both are
// deliberately unauthenticated: operators and Prometheus scrape them. The
// observer reads every counter before and after a victim's activity window
// and asks what the deltas give away; the two channels differ only in where
// the counters come from.

// counterDeltas is the counter-delta observer: one trial reads the
// counters, runs the activity window, reads them again, and returns the
// per-counter deltas over the keys the first reading found (a counter that
// appears later reads as zero on both sides, hence zero delta).
type counterDeltas struct {
	read func() (map[string]float64, error)
	keys []string
}

func newCounterDeltas(read func() (map[string]float64, error)) (*counterDeltas, error) {
	m, err := read()
	if err != nil {
		return nil, err
	}
	return &counterDeltas{read: read, keys: telem.SortedKeys(m)}, nil
}

func (c *counterDeltas) trial(window func() error) ([]float64, error) {
	before, err := c.read()
	if err != nil {
		return nil, err
	}
	if err := window(); err != nil {
		return nil, err
	}
	after, err := c.read()
	if err != nil {
		return nil, err
	}
	feats := make([]float64, len(c.keys))
	for i, key := range c.keys {
		feats[i] = after[key] - before[key]
	}
	return feats, nil
}

// statsCounters reads a daemon's STATS counters.
func statsCounters(cl *client.Client) func() (map[string]float64, error) {
	return func() (map[string]float64, error) {
		pairs, err := cl.Stats()
		if err != nil {
			return nil, err
		}
		m := make(map[string]float64, len(pairs))
		for _, p := range pairs {
			m[p.Name] = float64(p.Value)
		}
		return m, nil
	}
}

// scrapedCounters reads every sample of a metrics exposition.
func scrapedCounters(url string) func() (map[string]float64, error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	return func() (map[string]float64, error) {
		resp, err := hc.Get(url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("scrape %s: status %s", url, resp.Status)
		}
		return telem.ParseText(resp.Body)
	}
}

// The stats channel's contract is scoped, and its games encode it.
// Aggregate operation counts are the channel's purpose — reads going up
// says *someone* read, exactly as a packet counter on a router says someone
// sent a packet — so read occurrence is not a secret STATS keeps, and the
// occurrence game is the positive control: it must fire, proving the
// observer has the power to see counter-sized signal at the configured
// trial count. What STATS must never reveal is attribution: WHICH reader
// principal acted. The honest game hides the reader identity in otherwise
// identical activity windows and requires every shard-*, wal-*, conn-* and
// operation counter to sit at chance.
//
// The daemon is cfg.Addr, or an in-process durable one (so wal-* counters
// exist) under cfg.Dir.
func statsGames(l *lab, cfg Config) ([]Distinguisher, error) {
	addr := cfg.Addr
	if addr == "" {
		var err error
		_, addr, err = l.serve(server.Config{
			Key:     auditreg.KeyFromSeed(cfg.Seed),
			Readers: 4,
			DataDir: filepath.Join(cfg.Dir, "stats"),
			Fsync:   persist.SyncNever,
		}, nil)
		if err != nil {
			return nil, err
		}
	}
	// One connection: the synchronous read round-trips order the whole
	// window before the closing STATS request server-side.
	cl, err := l.dial(addr, client.WithConns(1))
	if err != nil {
		return nil, err
	}
	d, err := newCounterDeltas(statsCounters(cl))
	if err != nil {
		return nil, err
	}
	// The control leaves out what the WAL stripe loop counts (wal-*) and
	// times (the wal-fsync stage): under SyncNever it does so after the
	// write is acknowledged, so a window's record lands on either side of
	// the closing STATS request, and wal-bytes' 100-byte step — the most
	// separating feature on a calibration half that caught every record —
	// misses on a test half that did not. The honest game keeps them.
	synced := &counterDeltas{read: d.read, keys: slices.DeleteFunc(slices.Clone(d.keys), func(key string) bool {
		return strings.HasPrefix(key, "wal-") || strings.HasPrefix(key, "stage-wal-fsync-")
	})}
	ctr := 0
	// trial's window is a fresh object, one write, and the game's reads.
	trial := func(c *counterDeltas, play game) Trial {
		return func(b int) ([]float64, error) {
			return c.trial(func() error {
				ctr++
				obj, err := cl.Open(fmt.Sprintf("e18/stats/%08d", ctr), store.Register)
				if err != nil {
					return err
				}
				if err := obj.Write(0x57A7_0000_0000 + uint64(ctr)); err != nil {
					return err
				}
				return play(obj, b)
			})
		}
	}
	return []Distinguisher{
		{Name: "stats/reader-identity", Features: d.keys, Trial: trial(d, readerIdentity)},
		{Name: "stats/read-occurrence+count", Control: true, Features: synced.keys, Trial: trial(synced, readOccurrence)},
	}, nil
}

// The metrics channel's contract is the telemetry leak contract (DESIGN.md,
// "Observability"): everything aggregate-only, latencies quantized to
// power-of-two buckets, and no per-object, per-reader, or per-connection
// dimension anywhere. The honest games encode the two attributions the
// contract forbids: WHICH object a read touched (both branches perform one
// silent read, differing only in the target) and WHICH reader principal
// performed it. The positive control scrapes a deliberately leaky daemon
// (server.Config.LeakyPerObjectReads: a per-object read counter, exactly
// the "harmless" label an operator might add) and must fire — proving the
// observer can see a single-label violation at the configured trial count.

// Fixed object names: the trials reuse them, so the probed feature vector
// includes whatever per-object series a leaky exposition grows for them.
const (
	metricsVictim = "e18/metrics/victim"
	metricsDecoy  = "e18/metrics/decoy"
)

// metricsStack is one daemon under observation: its two warmed objects and
// the observer of its endpoint.
type metricsStack struct {
	deltas        *counterDeltas
	victim, decoy *client.Object
}

// metricsGames observes the honest stack at cfg.Addr and cfg.MetricsURL
// when both are given, in process otherwise; the leaky control stack is
// always in-process — the planted per-object counter must never run on a
// shared daemon.
func metricsGames(l *lab, cfg Config) ([]Distinguisher, error) {
	honest, err := newMetricsStack(l, cfg.Addr, cfg.MetricsURL, cfg.Seed, false)
	if err != nil {
		return nil, err
	}
	leaky, err := newMetricsStack(l, "", "", cfg.Seed+1, true)
	if err != nil {
		return nil, err
	}
	return []Distinguisher{
		{Name: "metrics/read-occurrence", Features: honest.deltas.keys, Trial: honest.objectRead},
		{Name: "metrics/reader-identity", Features: honest.deltas.keys, Trial: func(b int) ([]float64, error) {
			// Both branches are one silent read, so every aggregate sample
			// must sit at chance.
			return honest.deltas.trial(func() error { return readerIdentity(honest.victim, b) })
		}},
		// The leaky sample auditreg_leaky_object_reads_total{object="…/victim"}
		// moves only when the victim is read, so the observer must win.
		{Name: "metrics/read-occurrence+objcount", Control: true, Features: leaky.deltas.keys, Trial: leaky.objectRead},
	}, nil
}

// newMetricsStack observes a remote stack, or boots an in-process one
// (volatile — the metrics games need no data directory), and warms it:
// every object written once and read once per reader principal the games
// use, so all trial reads are silent — the aggregate counters then move
// identically on both branches of every honest game, and attribution is
// the only signal left to find. A leaky exposition has grown its
// per-object series by the time the observer fixes its keys.
func newMetricsStack(l *lab, addr, url string, seed uint64, leaky bool) (*metricsStack, error) {
	if addr == "" || url == "" {
		srv, a, err := l.serve(server.Config{
			Key:                 auditreg.KeyFromSeed(seed),
			Readers:             4,
			LeakyPerObjectReads: leaky,
		}, nil)
		if err != nil {
			return nil, err
		}
		mln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hsrv := &http.Server{Handler: srv.MetricsMux()}
		go hsrv.Serve(mln)
		l.onClose(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			hsrv.Shutdown(ctx)
		})
		addr, url = a, fmt.Sprintf("http://%s/metrics", mln.Addr())
	}
	cl, err := l.dial(addr, client.WithConns(1))
	if err != nil {
		return nil, err
	}
	st := &metricsStack{}
	if st.victim, err = cl.Open(metricsVictim, store.Register); err != nil {
		return nil, err
	}
	if st.decoy, err = cl.Open(metricsDecoy, store.Register); err != nil {
		return nil, err
	}
	for _, obj := range []*client.Object{st.victim, st.decoy} {
		if err := obj.Write(0x3E7_0000 + seed); err != nil {
			return nil, err
		}
		for reader := 0; reader < 2; reader++ {
			if _, err := obj.Read(reader); err != nil {
				return nil, err
			}
		}
	}
	st.deltas, err = newCounterDeltas(scrapedCounters(url))
	return st, err
}

// objectRead is the object-attribution game: one silent read happens
// either way; the secret is whether it touched the victim or the decoy.
// Any sample whose delta depends on WHICH object was read is a leak —
// exactly the game the planted per-object counter loses.
func (st *metricsStack) objectRead(b int) ([]float64, error) {
	return st.deltas.trial(func() error {
		obj := st.decoy
		if b == 1 {
			obj = st.victim
		}
		_, err := obj.Read(0)
		return err
	})
}
