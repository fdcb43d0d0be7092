// Command benchmark is the repository's one benchmark: the ROADMAP ladder —
// in-process store, remote server, durable server, dispersal cluster,
// cluster with a Byzantine node — run as five named workloads in one
// process, measured end to end and layer by layer, with a correctness gate
// that fails the run on any wrong read or inexact audit.
//
//	bash benchmark/run.sh --workload remote-read --seed 1 --seconds 16 --trace 0
//	bash benchmark/run.sh --workload all
//
// The last line of standard output is one JSON object per workload:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
// See README.md in this directory for what each number means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"auditreg/persist"
)

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64 // length of the timed window
	ops     uint64  // > 0: the window is exactly this many ops instead; only smoke_test.go sets it
	callers int     // closed-loop callers: the constant below, except in the determinism test
	trace   bool
	setups  int // boots of the rung in a plain run
	calls   int // calls per function in the isolated layer replays
	spans   string
	tmp     string // parent of the run's scratch directory ("" = os.TempDir)
}

// loopCallers is the closed loop's width: the paper's sequential processes,
// two of them, which is also nproc on the reference VM. It is part of every
// workload's definition, not a knob.
const loopCallers = 2

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of output for one workload.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	counts opCounts // not printed: what the determinism check compares
}

// opCounts is what a run did, as exact counts: with one caller they are a
// pure function of the seed.
type opCounts struct {
	reads, writes, reports uint64
	auditedPairs           int
}

func main() {
	spinIfChild()
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{callers: loopCallers, setups: 5, calls: 1 << 16}
	workload := fs.String("workload", "all", "rung to run: "+workloadNames()+", or all")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated op stream")
	fs.Float64Var(&cfg.seconds, "seconds", 16, "length of the timed window")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	fs.StringVar(&cfg.spans, "spans", "", "with --trace 1: write the recorded spans to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0
	if fs.NArg() > 0 || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		return 2
	}
	specs := ladder
	if *workload != "all" {
		sp, err := findSpec(*workload)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		specs = []spec{*sp}
	}
	spinners, stopSpinners := keepAwake()
	defer stopSpinners()
	header(stdout, cfg, spinners)
	code := 0
	reps := map[string]report{}
	for i := range specs {
		rep, err := runWorkload(&specs[i], cfg, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", specs[i].name, err)
			code = 1
		}
		if rep.Metrics != nil { // nothing measured: no result line
			printReport(stdout, rep)
		}
		reps[specs[i].name] = rep
	}
	if len(specs) > 1 && !cfg.trace {
		ratios(stdout, reps)
	}
	return code
}

func printReport(w io.Writer, rep report) {
	line, err := json.Marshal(rep)
	if err != nil {
		panic(err) // a report is plain numbers and strings
	}
	fmt.Fprintf(w, "%s\n", line)
}

func workloadNames() string {
	names := make([]string, len(ladder))
	for i, sp := range ladder {
		names[i] = sp.name
	}
	return strings.Join(names, ", ")
}

// header prints what the numbers below were measured on.
func header(w io.Writer, cfg config, spinners int) {
	dir := cfg.tmp
	if dir == "" {
		dir = os.TempDir()
	}
	fmt.Fprintf(w, "# auditreg ladder benchmark: closed loop, %d callers, loopback TCP, no injected delay (latency is processor and kernel time only)\n", cfg.callers)
	fmt.Fprintf(w, "# seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d %s; %d SCHED_IDLE spinners keep the CPUs from halting (0 = not to be had here: expect regimes)\n",
		cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), spinners)
	fmt.Fprintf(w, "# data dir %s on %s; server defaults: exec shards=%d, WAL stripes=%d, fsync=%v on the durable rung, audit history=%d writes/object\n",
		dir, fsType(dir), pow2(runtime.GOMAXPROCS(0)), pow2(runtime.GOMAXPROCS(0)), persist.SyncAlways, historyCap)
}

// pow2 rounds up to a power of two, as the server and the WAL do with
// GOMAXPROCS for their shard and stripe defaults.
func pow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown fs"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("fs type %#x", uint32(st.Type))
}

// printMetrics prints every metric by name with its unit, sorted.
func printMetrics(w io.Writer, name string, ms map[string]metric, notes map[string]string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-14s %-42s %16.4f %-6s %s\n", name, n, ms[n].Value, ms[n].Unit, notes[n])
	}
}

// ratios prints the ladder: each rung's cost over the one it builds on.
func ratios(w io.Writer, reps map[string]report) {
	fmt.Fprintln(w, "# ladder ratios (this run; README.md has the medians of the acceptance sets)")
	for _, pair := range [][2]string{
		{"remote-read", "store-local"}, {"durable-write", "remote-read"},
		{"cluster-mixed", "remote-read"}, {"cluster-byz", "cluster-mixed"},
	} {
		a, b := reps[pair[0]].Metrics, reps[pair[1]].Metrics
		if a == nil || b == nil {
			continue
		}
		for _, m := range []string{"ops_per_s", "read_p50_us", "write_p50_us", "cpu_us_per_op"} {
			fmt.Fprintf(w, "ratio %-13s / %-13s %-14s %10.3f  (%.4f / %.4f %s)\n",
				pair[0], pair[1], m, a[m].Value/b[m].Value, a[m].Value, b[m].Value, a[m].Unit)
		}
	}
}
