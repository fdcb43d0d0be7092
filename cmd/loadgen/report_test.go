package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestMetric(t *testing.T) {
	m, err := metric("ns/op", 12.5, "reads", int64(100), "ops/s", 2e6)
	if err != nil {
		t.Fatalf("metric: %v", err)
	}
	if m["ns/op"] != 12.5 || m["reads"] != 100 || m["ops/s"] != 2e6 {
		t.Errorf("metric = %v", m)
	}
	if _, err := metric("odd"); err == nil {
		t.Error("odd argument count must fail")
	}
	if _, err := metric(1, 2); err == nil {
		t.Error("non-string key must fail")
	}
	if _, err := metric("u", "not-a-number"); err == nil {
		t.Error("unsupported value type must fail")
	}
}

// readReport writes results with writeReport and reads the -out file back
// the way CI's jq does.
func readReport(t *testing.T, results []Result) (report, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.json")
	if err := writeReport(path, results); err != nil {
		t.Fatalf("writeReport: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return got, data
}

// TestWriteReportStampsEnvironment pins the environment stamp of an -out
// file, both the decoded fields and their JSON names.
func TestWriteReportStampsEnvironment(t *testing.T) {
	got, data := readReport(t, nil)
	if got.Schema != schema || got.GoVersion == "" || got.GOOS == "" || got.GOARCH == "" ||
		got.CPUs == 0 || got.Created == "" || got.GoMaxProcs != runtime.GOMAXPROCS(0) {
		t.Errorf("environment stamp incomplete: %+v", got)
	}
	for _, field := range []string{`"schema"`, `"gomaxprocs"`, `"cpus"`, `"go"`} {
		if !strings.Contains(string(data), field) {
			t.Errorf("report lacks %s: %s", field, data)
		}
	}
}

// TestWriteReportRoundTrip pins that the metrics of .results[0] survive the
// write and the read back.
func TestWriteReportRoundTrip(t *testing.T) {
	results := []Result{{Name: "A", Iters: 1, Metrics: map[string]float64{"ops/s": 1000, "srv-wal-syncs": 3}}}
	got, _ := readReport(t, results)
	if len(got.Results) != 1 || got.Results[0].Metrics["ops/s"] != 1000 || got.Results[0].Metrics["srv-wal-syncs"] != 3 {
		t.Errorf("round trip lost data: %+v", got.Results)
	}
}

// TestFailedCellCleansUp runs a -durable cell whose daemon cannot start. It
// must fail, and it must not leave its temporary data dir behind.
func TestFailedCellCleansUp(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	if code := run([]string{"-durable", "-auditd", "/nonexistent", "-objects", "1", "-goroutines", "1"}); code == 0 {
		t.Fatal("run = 0, want a failure: the daemon binary does not exist")
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left behind in TMPDIR: %s", e.Name())
	}
}
