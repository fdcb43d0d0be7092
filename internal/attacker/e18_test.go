package attacker

import (
	"testing"
)

// The E18 lab smoke tests run each observer's games at a reduced trial
// count: enough for the positive controls (near-perfect signals) to fire and
// for the honest games to stay at chance, small enough for the ordinary test
// run. The full-power series at CI trial counts and the gate's δ=0.05 runs
// through leakprobe -ci in the leak-gate job; the smoke asserts at a looser
// δ because with only smokeTrials/2 test trials pure noise clears 0.55
// roughly once per hundred games — a flake budget the per-push test job
// can't afford — while clearing 0.60 on noise is a ~4-in-10000 event.
const (
	smokeTrials = 64
	smokeDelta  = 0.10
)

func runSmoke(t *testing.T, d Distinguisher) {
	t.Helper()
	v, err := RunDistinguisher(d, smokeTrials, smokeDelta, 0xE18)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(v.String())
	if !v.Passed() {
		if v.Control {
			t.Fatalf("positive control did not detect its planted leak: %+v", v)
		}
		t.Fatalf("honest configuration flagged as leaking: %+v", v)
	}
}

func TestWireLab(t *testing.T) {
	lab, err := NewWireLab(101)
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	t.Run("occurrence", func(t *testing.T) { runSmoke(t, lab.Occurrence(false)) })
	t.Run("identity", func(t *testing.T) { runSmoke(t, lab.Identity(false)) })
	t.Run("occurrence-control", func(t *testing.T) { runSmoke(t, lab.Occurrence(true)) })
	t.Run("identity-control", func(t *testing.T) { runSmoke(t, lab.Identity(true)) })
	t.Run("audit-tail", func(t *testing.T) { runSmoke(t, lab.AuditTail(false)) })
	t.Run("audit-tail-control", func(t *testing.T) { runSmoke(t, lab.AuditTail(true)) })
}

func TestClusterLab(t *testing.T) {
	lab, err := NewClusterLab(106)
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	t.Run("occurrence", func(t *testing.T) { runSmoke(t, lab.Occurrence(false)) })
	t.Run("identity", func(t *testing.T) { runSmoke(t, lab.Identity(false)) })
	t.Run("occurrence-control", func(t *testing.T) { runSmoke(t, lab.Occurrence(true)) })
	t.Run("identity-control", func(t *testing.T) { runSmoke(t, lab.Identity(true)) })
}

func TestDiskLab(t *testing.T) {
	lab := NewDiskLab(t.TempDir(), 102)
	t.Run("identity", func(t *testing.T) { runSmoke(t, lab.Identity(false)) })
	t.Run("identity-control", func(t *testing.T) { runSmoke(t, lab.Identity(true)) })
}

func TestStatsLab(t *testing.T) {
	lab, err := NewStatsLab("", t.TempDir(), 103)
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	t.Run("identity", func(t *testing.T) { runSmoke(t, lab.Identity()) })
	t.Run("occurrence-control", func(t *testing.T) { runSmoke(t, lab.Occurrence()) })
}

func TestMetricsLab(t *testing.T) {
	lab, err := NewMetricsLab("", "", 105)
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	t.Run("occurrence", func(t *testing.T) { runSmoke(t, lab.Occurrence()) })
	t.Run("identity", func(t *testing.T) { runSmoke(t, lab.Identity()) })
	t.Run("occurrence-control", func(t *testing.T) { runSmoke(t, lab.OccurrenceLeaky()) })
}

func TestTimingLab(t *testing.T) {
	if testing.Short() {
		t.Skip("timing distributions need real wall-clock")
	}
	lab, err := NewTimingLab("", 104)
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	// Only the control is asserted here: it must be loud enough to prove the
	// stopwatch works. The honest silent-read verdict is a statistical
	// statement about scheduler noise — asserted at full trial counts in the
	// leak-gate (leakprobe -ci), logged here.
	t.Run("effective-read-control", func(t *testing.T) { runSmoke(t, lab.EffectiveRead()) })
	v, err := RunDistinguisher(lab.SilentRead(), smokeTrials, smokeDelta, 0xE18)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(v.String())
}
