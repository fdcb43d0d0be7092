package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// manifest mirrors the parts of BENCHMARK.json the benchmark must agree with.
type manifest struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// smokeConfig is the ladder at roughly 1/500 scale: fixed op counts, no
// timing assertions.
func smokeConfig(t *testing.T, trace bool) config {
	return config{seed: 7, seconds: 1, ops: 2000, callers: loopCallers, trace: trace, setups: 1, calls: 512, tmp: t.TempDir()}
}

// small returns the named rung with its warm-up cut to smoke size.
func small(t *testing.T, name string) *spec {
	t.Helper()
	sp, err := findSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	cp := *sp
	cp.warmOps = 100
	return &cp
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// emitted runs one workload and returns the metric names and units it
// reported, failing the test if the gate or any op failed.
func emitted(t *testing.T, sp *spec, cfg config) map[string]string {
	t.Helper()
	rep, err := runWorkload(sp, cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", sp.name, cfg.trace, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s (trace=%v): report %+v", sp.name, cfg.trace, rep)
	}
	units := map[string]string{}
	for name, m := range rep.Metrics {
		units[name] = m.Unit
	}
	return units
}

// TestLadderMatchesManifest runs all five rungs, plain and traced, and holds
// the names and units they emit to the ones BENCHMARK.json declares.
func TestLadderMatchesManifest(t *testing.T) {
	m := readManifest(t)
	var declared []string
	for _, w := range m.Workloads {
		declared = append(declared, w.Name)
	}
	var have []string
	for _, sp := range ladder {
		have = append(have, sp.name)
	}
	if strings.Join(declared, " ") != strings.Join(have, " ") {
		t.Fatalf("workloads: BENCHMARK.json declares %v, the ladder has %v", declared, have)
	}
	want := func(list []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, d := range list {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
			}
			out[d.Name] = d.Unit
		}
		return out
	}
	for _, name := range have {
		sp := small(t, name)
		t.Run(name, func(t *testing.T) {
			for _, c := range []struct {
				trace bool
				want  map[string]string
			}{{false, want(m.EndToEnd)}, {true, want(m.PerLayer)}} {
				got := emitted(t, sp, smokeConfig(t, c.trace))
				if diff := diffUnits(c.want, got); diff != "" {
					t.Errorf("trace=%v: emitted metrics differ from BENCHMARK.json:\n%s", c.trace, diff)
				}
			}
		})
	}
}

func diffUnits(want, got map[string]string) string {
	var lines []string
	for name, unit := range want {
		if g, ok := got[name]; !ok {
			lines = append(lines, "declared but not emitted: "+name)
		} else if g != unit {
			lines = append(lines, name+": declared unit "+unit+", emitted "+g)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			lines = append(lines, "emitted but not declared: "+name)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestGateHasTeeth checks both directions of the gate on a live rung. On a
// single node audits are exact, so forgetting one observation must make the
// audit report a pair nobody observed. The cluster rule tolerates charges
// beyond the observed set (a read that overlapped a write fetched shares of
// both), so there the planted fault is the other one: an observation the
// nodes never logged must be reported missing.
func TestGateHasTeeth(t *testing.T) {
	for _, name := range []string{"remote-read", "cluster-mixed"} {
		sp := small(t, name)
		cfg := smokeConfig(t, false)
		b := &bench{sp: sp, cfg: cfg, out: io.Discard, st: stream{sp, cfg.seed, cfg.callers}}
		if err := b.setUp(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		b.d.run(stopRule{ops: 500}, nil)
		if _, err := b.auditPhase(); err != nil {
			t.Fatalf("%s: intact gate: %v", name, err)
		}
		l0, l1 := &b.g.logs[0], &b.g.logs[1]
		want := "was never observed"
		if sp.rung == rungCluster {
			want = "missing from the merged audit"
			seenBy1 := map[obsPair]bool{}
			for _, p := range l1.pairs {
				seenBy1[p] = true
			}
			for _, p := range l0.pairs {
				if !seenBy1[p] && p.val != 0 {
					l1.pairs = append(l1.pairs, p) // reader 1 never fetched this one
					break
				}
			}
		} else {
			l0.pairs = l0.pairs[:len(l0.pairs)-1] // the audit still holds it
		}
		if _, err := b.auditPhase(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: gate did not report %q (err = %v)", name, want, err)
		}
		if err := b.r.close(); err != nil {
			t.Error(err)
		}
	}
}

// TestFailedRestartFailsCleanly: when the durable rung cannot come back — here
// its data dir has turned into a regular file — the restart must return an
// error, not stop the stopped server a second time and hang, and must leave
// no rung behind for the caller to close.
func TestFailedRestartFailsCleanly(t *testing.T) {
	sp := small(t, "durable-write")
	cfg := smokeConfig(t, false)
	b := &bench{sp: sp, cfg: cfg, out: io.Discard, st: stream{sp, cfg.seed, cfg.callers}}
	dir := t.TempDir()
	if err := b.setUp(dir); err != nil {
		t.Fatal(err)
	}
	b.d.run(stopRule{ops: 200}, nil)
	data := filepath.Join(dir, "data")
	if err := os.Rename(data, data+".gone"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(data, []byte("not a directory"), 0o600); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := b.restart(dir)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("restart on a broken data dir reported no error")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("restart on a broken data dir hangs")
	}
	if b.r != nil {
		t.Error("a failed restart left a rung behind")
	}
}

// TestSeedDeterminesCounts: with one caller the run is a pure function of the
// seed, so op counts per kind, the exact wire counts and the audited-pair
// total repeat; another seed gives another stream.
func TestSeedDeterminesCounts(t *testing.T) {
	type counts struct {
		opCounts
		frames, bytes float64
	}
	measure := func(name string, seed uint64) counts {
		sp := small(t, name)
		cfg := smokeConfig(t, true)
		cfg.seed, cfg.callers = seed, 1
		rep, err := runWorkload(sp, cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return counts{rep.counts, rep.Metrics["wire.frames_per_op"].Value, rep.Metrics["wire.bytes_per_op"].Value}
	}
	for _, name := range []string{"store-local", "remote-read"} {
		a, b, c := measure(name, 7), measure(name, 7), measure(name, 8)
		if a != b {
			t.Errorf("%s: same seed, different counts: %+v vs %+v", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave identical counts %+v", name, a)
		}
	}
}

// TestSlices: a pass with a time limit is cut into slices; every slice that
// counts saw both callers at work, so it has a rate, CPU and both p50s, and
// together the slices hold no more ops than the pass.
func TestSlices(t *testing.T) {
	sp := small(t, "remote-read")
	cfg := smokeConfig(t, false)
	b := &bench{sp: sp, cfg: cfg, out: io.Discard, st: stream{sp, cfg.seed, cfg.callers}}
	if err := b.setUp(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	w := b.d.run(stopRule{ops: 1 << 30, dur: 3*sliceWidth + sliceWidth/2}, nil)
	if err := b.r.close(); err != nil {
		t.Error(err)
	}
	if len(w.slices) < 2 || len(w.slices) > 3 {
		t.Fatalf("%d slices of a pass of 3.5 slice widths, want 2 or 3", len(w.slices))
	}
	var ops float64
	for i, s := range w.slices {
		if s.rate <= 0 || s.cpuPerOp <= 0 || s.p50[opRead] <= 0 || s.p50[opWrite] <= 0 {
			t.Errorf("slice %d: %+v", i, s)
		}
		ops += s.rate * sliceWidth.Seconds()
	}
	if ops > float64(w.ops) {
		t.Errorf("slices hold %.0f ops, the pass %d", ops, w.ops)
	}
}
