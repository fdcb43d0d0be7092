package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// schema is the format tag of every report -out writes.
const schema = "auditreg-bench/v1"

// Result is one grid cell's outcome.
type Result struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

// report is what -out writes: the environment the numbers were taken in plus
// one Result per grid cell. Numbers are comparable only within one machine
// and one run, which is why the environment is recorded alongside them.
type report struct {
	Schema     string   `json:"schema"`
	Created    string   `json:"created"`
	GoVersion  string   `json:"go"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	CPUs       int      `json:"cpus"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Results    []Result `json:"results"`
}

// writeReport stamps results with the current environment and writes them
// as indented JSON to path.
func writeReport(path string, results []Result) error {
	enc, err := json.MarshalIndent(report{
		Schema:     schema,
		Created:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Results:    results,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// metric builds a metric map from alternating key, value pairs.
func metric(pairs ...any) (map[string]float64, error) {
	if len(pairs)%2 != 0 {
		return nil, fmt.Errorf("metric takes key/value pairs, got %d arguments", len(pairs))
	}
	m := make(map[string]float64, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		key, ok := pairs[i].(string)
		if !ok {
			return nil, fmt.Errorf("metric key %v is not a string", pairs[i])
		}
		switch v := pairs[i+1].(type) {
		case float64:
			m[key] = v
		case int:
			m[key] = float64(v)
		case int64:
			m[key] = float64(v)
		case uint64:
			m[key] = float64(v)
		default:
			return nil, fmt.Errorf("metric value for %q has unsupported type %T", key, v)
		}
	}
	return m, nil
}
