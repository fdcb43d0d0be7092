// Benchmarks regenerating the experiment series of EXPERIMENTS.md: one
// family per experiment id (E1, E7, E8, E9, E10). The paper is theory-only,
// so these series measure the costs it reasons about analytically — retry
// bounds, audit scan costs, the price of auditability and encryption — and
// compare against the Section 3.1 strawman, a mutex design, and plain
// non-auditable objects.
package auditreg_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"auditreg"
	"auditreg/internal/baseline"
	"auditreg/internal/core"
	"auditreg/internal/ida"
	"auditreg/internal/maxreg"
	"auditreg/internal/otp"
	"auditreg/internal/probe"
	"auditreg/internal/shmem"
	"auditreg/internal/snapshot"
	"auditreg/internal/versioned"
)

func benchPads(b *testing.B, m int) auditreg.PadSource {
	b.Helper()
	pads, err := auditreg.NewKeyedPads(auditreg.KeyFromSeed(1), m)
	if err != nil {
		b.Fatal(err)
	}
	return pads
}

func benchReg(b *testing.B, m int) *auditreg.Register[uint64] {
	b.Helper()
	reg, err := auditreg.NewRegister(m, uint64(0), benchPads(b, m))
	if err != nil {
		b.Fatal(err)
	}
	return reg
}

// --- E1: write retry cost under reader contention (Lemma 2) ---

func BenchmarkE1WriteUnderReadStorm(b *testing.B) {
	// The pads dimension is the before/after of the pad-derivation overhaul:
	// per-pad SHA-256 (keyed) vs block derivation with the window cache
	// (block). sha/write counts digest compressions per write via
	// otp.DerivationCounter.
	sources := []struct {
		name string
		make func(m int) auditreg.PadSource
	}{
		{"pads=keyed", func(m int) auditreg.PadSource { return benchPads(b, m) }},
		{"pads=block", func(m int) auditreg.PadSource {
			pads, err := auditreg.NewBlockPads(auditreg.KeyFromSeed(1), m)
			if err != nil {
				b.Fatal(err)
			}
			return pads
		}},
	}
	for _, src := range sources {
		for _, m := range []int{1, 4, 16, 64} {
			b.Run(src.name+"/"+benchName("m", m), func(b *testing.B) {
				pads := src.make(m)
				reg, err := auditreg.NewRegister(m, uint64(0), pads)
				if err != nil {
					b.Fatal(err)
				}
				stop := make(chan struct{})
				var wg sync.WaitGroup
				for j := 0; j < m; j++ {
					rd, err := reg.Reader(j)
					if err != nil {
						b.Fatal(err)
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							select {
							case <-stop:
								return
							default:
								rd.Read()
							}
						}
					}()
				}
				counter := probe.NewCounter()
				cw := reg.Writer(core.WithProbe(counter.Probe()))
				dc, _ := pads.(otp.DerivationCounter)
				var sha0 uint64
				if dc != nil {
					sha0 = dc.Derivations()
				}
				maxIters := 0 // Lemma 2 bounds every write, not just the mean, by m+1
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					before := counter.Invokes[probe.RRead]
					if err := cw.Write(uint64(i)); err != nil {
						b.Fatal(err)
					}
					maxIters = max(maxIters, counter.Invokes[probe.RRead]-before)
				}
				b.StopTimer()
				close(stop)
				wg.Wait()
				if b.N > 0 {
					b.ReportMetric(float64(counter.Invokes[probe.RRead])/float64(b.N), "loop-iters/write")
					b.ReportMetric(float64(maxIters), "max-loop-iters/write")
					b.ReportMetric(float64(counter.Invokes[probe.RCAS])/float64(b.N), "cas/write")
					if dc != nil {
						b.ReportMetric(float64(dc.Derivations()-sha0)/float64(b.N), "sha/write")
					}
				}
			})
		}
	}
}

// --- E7: price of auditability — read/write throughput vs baselines ---

func BenchmarkE7ReadSilent(b *testing.B) {
	reg := benchReg(b, 1)
	rd, err := reg.Reader(0)
	if err != nil {
		b.Fatal(err)
	}
	rd.Read() // make subsequent reads silent
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Read()
	}
}

func BenchmarkE7WriteThenRead(b *testing.B) {
	b.Run("core", func(b *testing.B) {
		reg := benchReg(b, 1)
		rd, err := reg.Reader(0)
		if err != nil {
			b.Fatal(err)
		}
		w := reg.Writer()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.Write(uint64(i)); err != nil {
				b.Fatal(err)
			}
			rd.Read()
		}
	})
	b.Run("strawman", func(b *testing.B) {
		s, err := baseline.NewStrawman(1, uint64(0))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Write(uint64(i)); err != nil {
				b.Fatal(err)
			}
			s.Read(0)
		}
	})
	b.Run("mutex", func(b *testing.B) {
		r, err := baseline.NewMutex(1, uint64(0))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Write(uint64(i))
			r.Read(0)
		}
	})
	b.Run("plain", func(b *testing.B) {
		r := baseline.NewPlain(uint64(0))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Write(uint64(i))
			r.Read()
		}
	})
}

func BenchmarkE7ContendedReads(b *testing.B) {
	const m = 8
	b.Run("core", func(b *testing.B) {
		reg := benchReg(b, m)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := reg.Writer()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					_ = w.Write(uint64(i))
				}
			}
		}()
		var next atomic.Int64
		b.ResetTimer()
		b.SetParallelism(1) // GOMAXPROCS goroutines, ids assigned below
		b.RunParallel(func(pb *testing.PB) {
			j := int(next.Add(1)-1) % m
			rd, err := reg.Reader(j)
			if err != nil {
				b.Error(err)
				return
			}
			for pb.Next() {
				rd.Read()
			}
		})
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
}

func BenchmarkE7EncryptionOverhead(b *testing.B) {
	// Keyed pads (SHA-256 per mask) vs zero pads (no encryption): the cost
	// of the one-time-pad machinery on the write path.
	run := func(b *testing.B, pads auditreg.PadSource) {
		reg, err := auditreg.NewRegister(4, uint64(0), pads)
		if err != nil {
			b.Fatal(err)
		}
		w := reg.Writer()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.Write(uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("keyed", func(b *testing.B) { run(b, benchPads(b, 4)) })
	b.Run("zero", func(b *testing.B) { run(b, otp.ZeroPads{}) })
}

func BenchmarkE7BackendAblation(b *testing.B) {
	// The same write+read pair over the three R backends: the seqlock a
	// uint64 register selects, the pointer-CAS register every other value
	// type gets, and the mutex reference.
	pads := benchPads(b, 1)
	run := func(b *testing.B, reg *auditreg.Register[uint64]) {
		rd, err := reg.Reader(0)
		if err != nil {
			b.Fatal(err)
		}
		w := reg.Writer()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.Write(uint64(i) & 0xffff); err != nil {
				b.Fatal(err)
			}
			rd.Read()
		}
	}
	init := shmem.Triple[uint64]{Seq: 0, Val: 0, Bits: pads.Mask(0)}
	b.Run("seqlock", func(b *testing.B) { // what a uint64 register selects
		reg, err := auditreg.NewRegister(1, uint64(0), pads)
		if err != nil {
			b.Fatal(err)
		}
		run(b, reg)
	})
	b.Run("ptr", func(b *testing.B) {
		reg, err := auditreg.NewRegister(1, uint64(0), pads, core.WithTripleReg[uint64](shmem.NewPtrTriple(init)))
		if err != nil {
			b.Fatal(err)
		}
		run(b, reg)
	})
	b.Run("locked", func(b *testing.B) {
		reg, err := auditreg.NewRegister(1, uint64(0), pads,
			core.WithTripleReg[uint64](shmem.NewLockedTriple(init)),
			core.WithSeqReg[uint64](&shmem.LockedSeq{}))
		if err != nil {
			b.Fatal(err)
		}
		run(b, reg)
	})
}

// --- E8: audit cost vs history length ---

func BenchmarkE8AuditScan(b *testing.B) {
	// hist=N reads one write in 16, so most rows are empty; hist-read-all=N
	// reads every write once, so every row is folded into the set.
	for _, every := range []int{16, 1} {
		name := "hist"
		if every == 1 {
			name = "hist-read-all"
		}
		for _, hist := range []int{100, 1000, 10000, 100000} {
			b.Run(benchName(name, hist), func(b *testing.B) {
				reg := benchReg(b, 2)
				rd, err := reg.Reader(0)
				if err != nil {
					b.Fatal(err)
				}
				w := reg.Writer()
				for i := 0; i < hist; i++ {
					if err := w.Write(uint64(i) | 1<<20); err != nil {
						b.Fatal(err)
					}
					if i%every == 0 {
						rd.Read()
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// A fresh auditor pays the full O(hist) scan.
					if _, err := reg.Auditor().Audit(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkE8AuditIncremental(b *testing.B) {
	// One long-lived auditor re-auditing as the history grows by one write
	// per audit: the lsa cursor makes each re-audit O(1).
	reg := benchReg(b, 2)
	w := reg.Writer()
	auditor := reg.Auditor()
	if _, err := auditor.Audit(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(uint64(i)); err != nil {
			b.Fatal(err)
		}
		if _, err := auditor.Audit(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: the max register substrate M and Algorithm 2 on top ---

func BenchmarkE9MaxWrite(b *testing.B) {
	b.Run("cas", func(b *testing.B) {
		r := maxreg.NewCASMax[uint64](0, func(a, c uint64) bool { return a < c })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.WriteMax(uint64(i))
		}
	})
	b.Run("locked", func(b *testing.B) {
		r := maxreg.NewLockedMax[uint64](0, func(a, c uint64) bool { return a < c })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.WriteMax(uint64(i))
		}
	})
	b.Run("auditable", func(b *testing.B) {
		reg, err := auditreg.NewMaxRegister(1, uint64(0),
			func(a, c uint64) bool { return a < c }, benchPads(b, 1))
		if err != nil {
			b.Fatal(err)
		}
		w, err := reg.Writer(auditreg.NewSeededNonces(1, 1))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.WriteMax(uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE9MaxRead(b *testing.B) {
	b.Run("cas", func(b *testing.B) {
		r := maxreg.NewCASMax[uint64](42, func(a, c uint64) bool { return a < c })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = r.Read()
		}
	})
	b.Run("auditable", func(b *testing.B) {
		reg, err := auditreg.NewMaxRegister(1, uint64(0),
			func(a, c uint64) bool { return a < c }, benchPads(b, 1))
		if err != nil {
			b.Fatal(err)
		}
		rd, err := reg.Reader(0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = rd.Read()
		}
	})
}

// --- E10: snapshot substrates and Algorithm 3 ---

func BenchmarkE10SnapshotUpdate(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(benchName("afek/n", n), func(b *testing.B) {
			s, err := snapshot.NewAfek(n, uint64(0))
			if err != nil {
				b.Fatal(err)
			}
			u, err := s.Updater(0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u.Update(uint64(i))
			}
		})
		b.Run(benchName("auditable/n", n), func(b *testing.B) {
			reg, err := auditreg.NewSnapshot(n, 1, uint64(0), benchPads(b, 1))
			if err != nil {
				b.Fatal(err)
			}
			u, err := reg.Updater(0, auditreg.NewSeededNonces(1, 1))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := u.Update(uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE10SnapshotScan(b *testing.B) {
	for _, n := range []int{2, 8, 16} {
		b.Run(benchName("afek/n", n), func(b *testing.B) {
			s, err := snapshot.NewAfek(n, uint64(0))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Scan()
			}
		})
		b.Run(benchName("auditable/n", n), func(b *testing.B) {
			reg, err := auditreg.NewSnapshot(n, 1, uint64(0), benchPads(b, 1))
			if err != nil {
				b.Fatal(err)
			}
			sc, err := reg.Scanner(0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = sc.Scan()
			}
		})
	}
}

func BenchmarkE10VersionedCounter(b *testing.B) {
	pads := benchPads(b, 1)
	b.Run("base", func(b *testing.B) {
		c := versioned.NewCAS(versioned.CounterType())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Update(struct{}{})
		}
	})
	b.Run("auditable", func(b *testing.B) {
		reg, err := auditreg.NewVersioned(1, versioned.NewCAS(versioned.CounterType()), pads)
		if err != nil {
			b.Fatal(err)
		}
		u, err := reg.Updater(auditreg.NewSeededNonces(1, 1))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := u.Update(struct{}{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- substrate microbenches ---

func BenchmarkSubstrateIDA(b *testing.B) {
	for _, tc := range []struct{ n, k, size int }{
		{5, 2, 1024},  // a small f=1 deployment shape
		{16, 8, 4096}, // the dispersal-overhaul acceptance configuration
	} {
		coder, err := ida.New(tc.n, tc.k)
		if err != nil {
			b.Fatal(err)
		}
		data := make([]byte, tc.size)
		for i := range data {
			data[i] = byte(i)
		}
		name := benchName("n", tc.n) + "/" + benchName("k", tc.k) + "/" + benchName("size", tc.size)
		b.Run("split/"+name, func(b *testing.B) {
			b.SetBytes(int64(tc.size))
			for i := 0; i < b.N; i++ {
				_ = coder.Split(data)
			}
		})
		b.Run("reconstruct/"+name, func(b *testing.B) {
			b.SetBytes(int64(tc.size))
			shares := coder.Split(data)
			subset := make(map[int][]byte, tc.k)
			for i := 0; i < tc.k; i++ {
				subset[(i*2+1)%tc.n] = shares[(i*2+1)%tc.n]
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coder.Reconstruct(subset, len(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSubstratePadMask(b *testing.B) {
	b.Run("keyed", func(b *testing.B) {
		pads, err := otp.NewKeyedPads(otp.KeyFromSeed(1), 64)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = pads.Mask(uint64(i))
		}
	})
	b.Run("block", func(b *testing.B) {
		pads, err := otp.NewBlockPads(otp.KeyFromSeed(1), 64)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = pads.Mask(uint64(i))
		}
	})
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
