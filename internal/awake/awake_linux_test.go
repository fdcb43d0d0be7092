package awake

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestKeep starts the spinners of this test binary — which only works
// because the package's init turns the re-executed binary into a spinner
// instead of a second test run — and checks that each is a distinct live
// child under SCHED_IDLE and that stop leaves none behind.
func TestKeep(t *testing.T) {
	n, stop := Keep()
	if n == 0 {
		stop()
		t.Skip("SCHED_IDLE spinners are not to be had here")
	}
	if n > runtime.NumCPU() {
		t.Errorf("%d spinners on %d CPUs", n, runtime.NumCPU())
	}
	kids := children(t)
	if len(kids) != n {
		t.Errorf("%d children alive, Keep reported %d spinners", len(kids), n)
	}
	for _, pid := range kids {
		// Field 41 of /proc/pid/stat is the scheduling policy.
		stat, err := os.ReadFile("/proc/" + pid + "/stat")
		if err != nil {
			t.Errorf("spinner %s: %v", pid, err)
			continue
		}
		f := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
		if len(f) <= 38 || f[38] != strconv.Itoa(schedIdle) {
			t.Errorf("spinner %s runs under policy %v, want SCHED_IDLE (%d)", pid, f[38:39], schedIdle)
		}
	}
	stop()
	if kids := children(t); len(kids) != 0 {
		t.Errorf("%d children alive after stop", len(kids))
	}
}

// children lists the live child processes of this one.
func children(t *testing.T) []string {
	t.Helper()
	self := strconv.Itoa(os.Getpid())
	ents, err := os.ReadDir("/proc")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	var kids []string
	for _, e := range ents {
		if _, err := strconv.Atoi(e.Name()); err != nil {
			continue
		}
		stat, err := os.ReadFile("/proc/" + e.Name() + "/stat")
		if err != nil {
			continue
		}
		f := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
		if len(f) > 1 && f[1] == self && f[0] != "Z" {
			kids = append(kids, e.Name())
		}
	}
	return kids
}
