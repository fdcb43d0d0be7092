package attacker

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The E18 lab smoke tests play every row of the lab at a reduced trial
// count: enough for the positive controls (near-perfect signals) to fire and
// for the honest games to stay at chance, small enough for the ordinary test
// run. The full-power series at CI trial counts and the gate's δ=0.05 runs
// through leakprobe -ci in the leak-gate job; the smoke asserts at a looser
// δ because with only smokeTrials/2 = 32 test trials pure noise clears 0.55
// (24 of 32 right) once per ~290 games — with nine honest rows, a flake in
// one run of thirty, which the per-push test job can't afford — while
// clearing 0.60 (25 of 32) is a ~1-in-950 event per row.
const (
	smokeTrials = 64
	smokeDelta  = 0.10
)

// e18Names is the row list leakprobe -ci prints, in order. RunDistinguisher
// seeds each row's trials from its name, so a renamed row is a new series.
var e18Names = []string{
	"wire/read-occurrence",
	"wire/reader-identity",
	"wire/read-occurrence+leaky",
	"wire/reader-identity+leaky",
	"wire/audit-tail",
	"wire/audit-tail+leaky",
	"cluster/read-occurrence",
	"cluster/reader-identity",
	"cluster/read-occurrence+leaky",
	"cluster/reader-identity+leaky",
	"disk/reader-identity",
	"disk/reader-identity+leaky",
	"stats/reader-identity",
	"stats/read-occurrence+count",
	"metrics/read-occurrence",
	"metrics/reader-identity",
	"metrics/read-occurrence+objcount",
	"timing/silent-read",
	"timing/effective-read+loud",
}

// shared is the one E18 lab the tests share: built by the first test that
// needs it, torn down by TestMain.
var shared struct {
	once sync.Once
	dir  string
	rows []Distinguisher
	stop func()
	err  error
}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "e18-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	shared.dir = dir
	code := m.Run()
	if shared.stop != nil {
		shared.stop()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func e18Rows(t *testing.T) []Distinguisher {
	t.Helper()
	shared.once.Do(func() {
		shared.rows, shared.stop, shared.err = E18(Config{Seed: 0xE18, Dir: shared.dir})
	})
	if shared.err != nil {
		t.Fatal(shared.err)
	}
	return shared.rows
}

// TestE18Rows pins the list: the same rows in the same order, none
// repeated, a control exactly where the name carries a "+variant", and on
// every channel at least one honest row and one positive control — no
// signal ships without a control proving the lab could see it.
func TestE18Rows(t *testing.T) {
	var names []string
	honest, control := map[string]bool{}, map[string]bool{}
	for _, r := range e18Rows(t) {
		if slices.Contains(names, r.Name) {
			t.Errorf("row %s repeated", r.Name)
		}
		names = append(names, r.Name)
		if r.Control != strings.Contains(r.Name, "+") {
			t.Errorf("row %s: Control = %t", r.Name, r.Control)
		}
		channel, _, _ := strings.Cut(r.Name, "/")
		honest[channel] = honest[channel] || !r.Control
		control[channel] = control[channel] || r.Control
	}
	if !slices.Equal(names, e18Names) {
		t.Errorf("rows:\n%s\nwant:\n%s", strings.Join(names, "\n"), strings.Join(e18Names, "\n"))
	}
	for _, channel := range []string{"wire", "cluster", "disk", "stats", "metrics", "timing"} {
		if !honest[channel] || !control[channel] {
			t.Errorf("channel %s: honest row %t, control row %t", channel, honest[channel], control[channel])
		}
	}
}

func TestWireLab(t *testing.T)    { runChannel(t, "wire") }
func TestClusterLab(t *testing.T) { runChannel(t, "cluster") }
func TestDiskLab(t *testing.T)    { runChannel(t, "disk") }
func TestStatsLab(t *testing.T)   { runChannel(t, "stats") }
func TestMetricsLab(t *testing.T) { runChannel(t, "metrics") }

func TestTimingLab(t *testing.T) {
	if testing.Short() {
		t.Skip("timing distributions need real wall-clock")
	}
	runChannel(t, "timing")
}

// runChannel plays one channel's rows, each as a subtest named for its game
// ("wire/read-occurrence+leaky" runs as occurrence-control).
func runChannel(t *testing.T, channel string) {
	for _, row := range e18Rows(t) {
		rest, ok := strings.CutPrefix(row.Name, channel+"/")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(rest, "+")
		name = strings.TrimPrefix(strings.TrimPrefix(name, "reader-"), "read-")
		if row.Control {
			name += "-control"
		}
		t.Run(name, func(t *testing.T) {
			v, err := RunDistinguisher(row, smokeTrials, smokeDelta, 0xE18)
			if err != nil {
				t.Fatal(err)
			}
			t.Log(v.Row(0))
			switch {
			case row.Name == "timing/silent-read":
				// Logged only: the honest silent-read verdict is a
				// statistical statement about scheduler noise, asserted at
				// full trial counts in the leak-gate (leakprobe -ci). Its
				// control must still fire, proving the stopwatch works.
			case !v.Passed() && v.Control:
				t.Fatalf("positive control did not detect its planted leak: %+v", v)
			case !v.Passed():
				t.Fatalf("honest configuration flagged as leaking: %+v", v)
			}
		})
	}
}
