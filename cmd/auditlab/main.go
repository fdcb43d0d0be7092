// Command auditlab regenerates the performance experiment tables of
// EXPERIMENTS.md (E1, E7, E8, E9, E10) and prints them as text.
//
// Usage:
//
//	auditlab [-quick] [-experiment E1|E7|E8|E9|E10|all]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"auditreg"
	"auditreg/internal/baseline"
	"auditreg/internal/core"
	"auditreg/internal/maxreg"
	"auditreg/internal/probe"
	"auditreg/internal/snapshot"
)

func main() {
	quick := flag.Bool("quick", false, "smaller workloads")
	exp := flag.String("experiment", "all", "which experiment table to print")
	flag.Parse()

	scale := 1
	if *quick {
		scale = 10
	}
	lab := &lab{scale: scale}

	run := map[string]func() error{
		"E1":  lab.e1,
		"E7":  lab.e7,
		"E8":  lab.e8,
		"E9":  lab.e9,
		"E10": lab.e10,
	}
	order := []string{"E1", "E7", "E8", "E9", "E10"}
	if *exp != "all" {
		if _, ok := run[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		order = []string{*exp}
	}
	for _, id := range order {
		if err := run[id](); err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		fmt.Println()
	}
}

type lab struct {
	scale int
}

func (l *lab) n(base int) int {
	if v := base / l.scale; v > 0 {
		return v
	}
	return 1
}

func pads(m int) auditreg.PadSource {
	p, err := auditreg.NewKeyedPads(auditreg.KeyFromSeed(7), m)
	if err != nil {
		log.Fatal(err)
	}
	return p
}

// e1 — Lemma 2: write loop iterations under reader storms, vs the m+1 bound.
func (l *lab) e1() error {
	fmt.Println("E1  write retry bound under reader contention (Lemma 2: <= m+1)")
	fmt.Println("    m   writes   max-iters   avg-iters   bound")
	writes := l.n(2000)
	for _, m := range []int{1, 2, 4, 8, 16, 32, 64} {
		reg, err := auditreg.NewRegister(m, uint64(0), pads(m))
		if err != nil {
			return err
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for j := 0; j < m; j++ {
			rd, err := reg.Reader(j)
			if err != nil {
				return err
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
		w := reg.Writer(core.WithProbe(counter.Probe()))
		maxIter, total := 0, 0
		for i := 0; i < writes; i++ {
			before := counter.Invokes[probe.RRead]
			if err := w.Write(uint64(i) & 0xffff); err != nil {
				return err
			}
			it := counter.Invokes[probe.RRead] - before
			total += it
			if it > maxIter {
				maxIter = it
			}
		}
		close(stop)
		wg.Wait()
		fmt.Printf("  %3d   %6d   %9d   %9.2f   %5d\n",
			m, writes, maxIter, float64(total)/float64(writes), m+1)
	}
	return nil
}

// e7 — price of auditability: write+read latency vs baselines.
func (l *lab) e7() error {
	fmt.Println("E7  price of auditability (write+read pair latency, 1 reader)")
	iters := l.n(200000)

	timeIt := func(fn func(i int)) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn(i)
		}
		return time.Since(start) / time.Duration(iters)
	}

	reg, err := auditreg.NewRegister(1, uint64(0), pads(1))
	if err != nil {
		return err
	}
	rd, err := reg.Reader(0)
	if err != nil {
		return err
	}
	w := reg.Writer()
	coreDur := timeIt(func(i int) { _ = w.Write(uint64(i)); rd.Read() })

	straw, err := baseline.NewStrawman(1, uint64(0))
	if err != nil {
		return err
	}
	strawDur := timeIt(func(i int) { _ = straw.Write(uint64(i)); straw.Read(0) })

	mtx, err := baseline.NewMutex(1, uint64(0))
	if err != nil {
		return err
	}
	mtxDur := timeIt(func(i int) { mtx.Write(uint64(i)); mtx.Read(0) })

	plain := baseline.NewPlain(uint64(0))
	plainDur := timeIt(func(i int) { plain.Write(uint64(i)); plain.Read() })

	fmt.Printf("    algorithm-1 (leak-free, wait-free): %8s\n", coreDur)
	fmt.Printf("    strawman §3.1 (leaky, lock-free):   %8s\n", strawDur)
	fmt.Printf("    mutex auditable (blocking):         %8s\n", mtxDur)
	fmt.Printf("    plain non-auditable register:       %8s\n", plainDur)
	return nil
}

// e8 — audit cost vs history length; incremental audit via the lsa cursor.
func (l *lab) e8() error {
	fmt.Println("E8  audit cost vs history length")
	fmt.Println("    history   fresh-audit   write+incremental-audit")
	sizes := []int{100, 1000, 10000}
	if l.scale == 1 {
		sizes = append(sizes, 100000)
	}
	for _, hist := range sizes {
		reg, err := auditreg.NewRegister(2, uint64(0), pads(2))
		if err != nil {
			return err
		}
		rd, err := reg.Reader(0)
		if err != nil {
			return err
		}
		w := reg.Writer()
		for i := 0; i < hist; i++ {
			if err := w.Write(uint64(i) | 1<<20); err != nil {
				return err
			}
			if i%16 == 0 {
				rd.Read()
			}
		}
		start := time.Now()
		if _, err := reg.Auditor().Audit(); err != nil {
			return err
		}
		fresh := time.Since(start)

		auditor := reg.Auditor()
		if _, err := auditor.Audit(); err != nil {
			return err
		}
		const reps = 1000
		start = time.Now()
		for i := 0; i < reps; i++ {
			if err := w.Write(uint64(i)); err != nil {
				return err
			}
			if _, err := auditor.Audit(); err != nil {
				return err
			}
		}
		incr := time.Since(start) / reps

		fmt.Printf("    %7d   %11s   %17s\n", hist, fresh, incr)
	}
	return nil
}

// e9 — the max register substrate M alone vs Algorithm 2 on top of it.
func (l *lab) e9() error {
	fmt.Println("E9  max register substrate and Algorithm 2 (ascending writeMax latency)")
	iters := l.n(200000)
	timeIt := func(fn func(i int)) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn(i)
		}
		return time.Since(start) / time.Duration(iters)
	}

	cas := maxreg.NewCASMax[uint64](0, func(a, b uint64) bool { return a < b })
	casDur := timeIt(func(i int) { cas.WriteMax(uint64(i)) })

	aud, err := auditreg.NewMaxRegister(1, uint64(0), func(a, b uint64) bool { return a < b }, pads(1))
	if err != nil {
		return err
	}
	aw, err := aud.Writer(auditreg.NewSeededNonces(1, 1))
	if err != nil {
		return err
	}
	audDur := timeIt(func(i int) { _ = aw.WriteMax(uint64(i)) })

	fmt.Printf("    cas-max (unbounded, lock-free):     %8s\n", casDur)
	fmt.Printf("    algorithm-2 (auditable, leak-free): %8s\n", audDur)
	return nil
}

// e10 — snapshots: Afek substrate vs Algorithm 3, update and scan.
func (l *lab) e10() error {
	fmt.Println("E10 snapshot cost by component count (update / scan latency)")
	fmt.Println("    n    afek-update   afek-scan   auditable-update   auditable-scan")
	iters := l.n(50000)
	timeIt := func(fn func(i int)) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn(i)
		}
		return time.Since(start) / time.Duration(iters)
	}
	for _, n := range []int{2, 4, 8, 16} {
		afek, err := snapshot.NewAfek(n, uint64(0))
		if err != nil {
			return err
		}
		u, err := afek.Updater(0)
		if err != nil {
			return err
		}
		afekUpd := timeIt(func(i int) { u.Update(uint64(i)) })
		afekScan := timeIt(func(i int) { _ = afek.Scan() })

		aud, err := auditreg.NewSnapshot(n, 1, uint64(0), pads(1))
		if err != nil {
			return err
		}
		au, err := aud.Updater(0, auditreg.NewSeededNonces(1, 1))
		if err != nil {
			return err
		}
		sc, err := aud.Scanner(0)
		if err != nil {
			return err
		}
		audUpd := timeIt(func(i int) { _ = au.Update(uint64(i)) })
		audScan := timeIt(func(i int) { _ = sc.Scan() })

		fmt.Printf("   %2d   %11s   %9s   %16s   %14s\n", n, afekUpd, afekScan, audUpd, audScan)
	}
	return nil
}
