package cluster_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"auditreg/cluster"
	"auditreg/server"
)

// BenchmarkMergedAudit times Object.Audit over an in-process n=5 f=1 cluster
// at three history lengths (writes per object, each read by two readers).
// cold is what an auditor pays the first time it looks: a brand-new client's
// audit, the whole history of every node fetched, unmasked and merged (the
// dial and the open are not timed). tail is what it pays to look again: the
// same object audits after every further write and its two reads (not timed
// either), folding in what those left. cold grows with the history; tail
// must not. The number to read is p50-ns/audit.
//
//	go test -run '^$' -bench MergedAudit -benchtime 200x ./cluster
func BenchmarkMergedAudit(b *testing.B) {
	for _, writes := range []int{100, 400, 1600} {
		tc := startCluster(b, 5, 1, 109, func(_ int, cfg *server.Config) {
			cfg.PoolInterval = time.Hour // no background sweeps inside the timings
		})
		cc := dialCluster(b, tc)
		obj, err := cc.Open("bench")
		if err != nil {
			b.Fatalf("Open: %v", err)
		}
		v := uint64(0)
		step := func() {
			v++
			if err := obj.Write(v); err != nil {
				b.Fatal(err)
			}
			for r := 0; r < 2; r++ {
				if _, err := obj.Read(r); err != nil {
					b.Fatal(err)
				}
			}
		}
		for i := 0; i < writes; i++ {
			step()
		}
		// Each audit is timed on its own and the median reported: ns/op would
		// be a mean over seconds in which the five servers, which share the
		// process, also collect their garbage — and over the untimed set-up.
		median := func(b *testing.B, audit func() (time.Duration, error)) {
			took := make([]time.Duration, b.N)
			for i := range took {
				var err error
				if took[i], err = audit(); err != nil {
					b.Fatal(err)
				}
			}
			slices.Sort(took)
			b.ReportMetric(float64(took[len(took)/2].Nanoseconds()), "p50-ns/audit")
		}
		b.Run(fmt.Sprintf("cold/writes=%d", writes), func(b *testing.B) {
			median(b, func() (time.Duration, error) {
				fresh, err := cluster.Dial(tc.m)
				if err != nil {
					return 0, err
				}
				defer fresh.Close()
				fobj, err := fresh.Open("bench")
				if err != nil {
					return 0, err
				}
				t0 := time.Now()
				m, err := fobj.Audit()
				took := time.Since(t0)
				if err == nil && m.Report.Len() != 2*writes {
					err = fmt.Errorf("cold audit: %d pairs, want %d", m.Report.Len(), 2*writes)
				}
				return took, err
			})
		})
		b.Run(fmt.Sprintf("tail/writes=%d", writes), func(b *testing.B) {
			if _, err := obj.Audit(); err != nil {
				b.Fatal(err)
			}
			median(b, func() (time.Duration, error) {
				step()
				t0 := time.Now()
				_, err := obj.Audit()
				return time.Since(t0), err
			})
		})
		cc.Close()
		tc.stopAll()
	}
}
