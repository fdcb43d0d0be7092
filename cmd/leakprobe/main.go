// Command leakprobe regenerates the attack experiment tables of
// EXPERIMENTS.md: the in-process attacks E3/E4/E5 (crash-simulating read,
// reader-set inference, max-register gap inference), the E15 disk sweep, and
// — the E18 adversarial audit lab — statistical distinguisher attacks over
// the wire, per-node cluster, disk, STATS, metrics-endpoint, and timing
// channels of the live server stack, each paired with a positive control
// against a deliberately leaky configuration.
//
// Usage:
//
//	leakprobe [-trials N] [-seed S] [-data-dir DIR] [-ci] [-delta D] [-addr HOST:PORT] [-metrics-url URL]
//
// Exit status is non-zero on any finding: an E15 plaintext hit, an E18
// distinguisher beating chance by more than delta on an honest
// configuration, or — just as fatally — a positive control failing to
// detect its planted leak (a lab without power proves nothing). -ci runs
// E18 and prints the machine-checkable pass/fail table the leak-gate CI job
// consumes; -addr points the STATS and timing observers at an external
// auditd, and -metrics-url (with -addr) points the metrics observer's
// honest games at that daemon's -metrics-addr endpoint (wire and disk
// observers always run in-process: they need the frame tap and the data
// directory; the metrics control always boots its own in-process leaky
// daemon).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"auditreg/internal/attacker"
)

func main() {
	os.Exit(run())
}

func run() int {
	trials := flag.Int("trials", 1000, "trials per attack experiment")
	seed := flag.Uint64("seed", 42, "experiment seed")
	dataDir := flag.String("data-dir", "", "scratch directory for the E15 disk sweep and E18 disk lab (default: a temp dir)")
	ci := flag.Bool("ci", false, "run the E18 distinguisher series and print its pass/fail table")
	delta := flag.Float64("delta", 0.05, "E18 leak threshold: leak iff accuracy's 95% lower bound > 0.5+delta")
	addr := flag.String("addr", "", "external auditd for the E18 stats/timing/metrics observers (default: in-process servers)")
	metricsURL := flag.String("metrics-url", "", "the external auditd's metrics endpoint (http://host:port/metrics) for the E18 metrics observer; needs -addr")
	flag.Parse()

	dir := *dataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "leakprobe-*")
		if err != nil {
			log.Print(err)
			return 1
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	failures, err := classic(*trials, *seed, dir)
	if err != nil {
		log.Print(err)
		return 1
	}
	if *ci {
		fmt.Println()
		n, err := e18(*trials, *delta, *seed, *addr, *metricsURL, dir)
		if err != nil {
			log.Print(err)
			return 1
		}
		failures += n
	}
	if failures > 0 {
		fmt.Printf("\nFAIL: %d leak-gate failure(s)\n", failures)
		return 1
	}
	return 0
}

// classic runs the pre-E18 experiment series (E3, E4, E5, E15) and returns
// how many of them found a leak.
func classic(trials int, seed uint64, dir string) (failures int, err error) {
	fmt.Println("E3  crash-simulating read (stop right after learning the value)")
	res, err := attacker.RunCrashSimulation(4, 1234, seed)
	if err != nil {
		return failures, err
	}
	fmt.Printf("    attacker learned value:       %d\n", res.Value)
	fmt.Printf("    algorithm-1 audit caught it:  %t   (effective reads are auditable)\n", res.CoreAudited)
	fmt.Printf("    strawman audit caught it:     %t   (peek leaves no trace)\n", res.StrawmanAudited)
	fmt.Println()

	fmt.Println("E4  reader-set inference (did reader 1 read the current value?)")
	coreRes, strawRes, err := attacker.RunReaderSetInference(trials, seed)
	if err != nil {
		return failures, err
	}
	fmt.Printf("    %-28s accuracy %.3f   false-claim rate %.3f\n",
		"strawman (plaintext bits):", strawRes.Rate(), strawRes.FalseClaimRate())
	fmt.Printf("    %-28s accuracy %.3f   false-claim rate %.3f\n",
		"algorithm-1 (one-time pad):", coreRes.Rate(), coreRes.FalseClaimRate())
	fmt.Println("    (0.5 accuracy = coin flip: the pad leaves the attacker at chance)")
	fmt.Println()

	fmt.Println("E5  max-register gap inference (was the intermediate value written?)")
	plain, err := attacker.RunMaxGapInference(trials, seed, false)
	if err != nil {
		return failures, err
	}
	nonced, err := attacker.RunMaxGapInference(trials, seed, true)
	if err != nil {
		return failures, err
	}
	fmt.Printf("    %-28s accuracy %.3f   false-claim rate %.3f\n",
		"constant nonces (ablation):", plain.Rate(), plain.FalseClaimRate())
	fmt.Printf("    %-28s accuracy %.3f   false-claim rate %.3f\n",
		"algorithm-2 (random nonces):", nonced.Rate(), nonced.FalseClaimRate())
	fmt.Println("    (sound inference = zero false claims; nonces make the gap signal unsound)")
	fmt.Println()

	fmt.Println("E15 disk-access attacker (raw-byte sweep of the durable data dir)")
	sweepDir, err := os.MkdirTemp(dir, "e15-*")
	if err != nil {
		return failures, err
	}
	sweep, err := attacker.RunDiskSweep(sweepDir, seed)
	if err != nil {
		return failures, err
	}
	fmt.Printf("    files scanned: %d   bytes scanned: %d\n", sweep.FilesScanned, sweep.BytesScanned)
	fmt.Printf("    plaintext findings in the encrypted WAL/snapshots:  %d\n", len(sweep.Findings))
	for _, f := range sweep.Findings {
		fmt.Printf("      LEAK: %s at %s+%d\n", f.Desc, f.File, f.Offset)
		failures++
	}
	fmt.Printf("    findings in the cleartext shadow log (self-check):  %d\n", sweep.SelfCheckFindings)
	fmt.Println("    (0 findings + a tripping self-check: disk access teaches the attacker nothing)")
	return failures, nil
}

// e18 runs the adversarial audit lab: every observer's honest game and its
// positive control, printed as the pass/fail table EXPERIMENTS.md E18
// records, returning how many rows failed.
func e18(trials int, delta float64, seed uint64, addr, metricsURL string, dir string) (failures int, err error) {
	fmt.Printf("E18 adversarial audit lab (statistical distinguishers, %d trials, delta %.2f)\n", trials, delta)
	labDir, err := os.MkdirTemp(dir, "e18-*")
	if err != nil {
		return 0, err
	}
	games, stop, err := attacker.E18(attacker.Config{Seed: seed, Addr: addr, MetricsURL: metricsURL, Dir: labDir})
	if err != nil {
		return 0, fmt.Errorf("e18 lab: %w", err)
	}
	defer stop()

	width := 0
	for _, g := range games {
		width = max(width, len(g.Name))
	}
	fmt.Println("    " + attacker.TableHeader(width))
	for _, g := range games {
		v, err := attacker.RunDistinguisher(g, trials, delta, seed)
		if err != nil {
			return failures, fmt.Errorf("%s: %w", g.Name, err)
		}
		if !v.Passed() {
			failures++
		}
		fmt.Println("    " + v.Row(width))
	}
	fmt.Println("    (honest rows must hold no-leak; control rows must leak, proving the lab's power)")
	return failures, nil
}
