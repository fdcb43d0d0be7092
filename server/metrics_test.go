package server

import (
	"net/http/httptest"
	"strings"
	"testing"

	"auditreg"
	"auditreg/internal/telem"
	"auditreg/store"
	"auditreg/wire"
)

// scrape hits the server's /metrics handler in-process and parses the
// exposition into the flat sample map telem.ParseText produces.
func scrape(t *testing.T, srv *Server) (map[string]float64, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.MetricsMux().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics: status %d", rec.Code)
	}
	body := rec.Body.String()
	m, err := telem.ParseText(strings.NewReader(body))
	if err != nil {
		t.Fatalf("parse exposition: %v", err)
	}
	return m, body
}

// TestMetricsEndpoint drives traffic through the handlers and asserts the
// endpoint serves coherent counters, per-stage histograms, and a monotonic
// stats epoch — and that the per-object leak counter is absent in an honest
// configuration.
func TestMetricsEndpoint(t *testing.T) {
	srv, c := newBenchConn(t)
	const name = "metrics/reg"
	if _, err := srv.Store().Open(name, store.Register); err != nil {
		t.Fatalf("Open: %v", err)
	}
	dst := make([]byte, 0, 256)
	wbody := (&wire.WriteReq{Name: name, Value: 7}).Append(nil)
	fbody := (&wire.ReadFetchReq{Name: name, Reader: 0, PrevSeq: ^uint64(0)}).Append(nil)
	for i := 0; i < 5; i++ {
		// Feed the stage histograms the way a drain does.
		t0 := telem.Now()
		c.handleWrite(wbody, dst[:0])
		c.handleFetch(wire.VerbReadFetch, fbody, dst[:0])
		srv.tel.storeOp.Observe(0, telem.Now()-t0)
	}

	m, body := scrape(t, srv)
	if m["auditreg_writes_total"] != 5 {
		t.Errorf("writes_total = %v, want 5", m["auditreg_writes_total"])
	}
	if m["auditreg_reads_fetched_total"]+m["auditreg_reads_silent_total"] != 5 {
		t.Errorf("reads fetched+silent = %v+%v, want 5",
			m["auditreg_reads_fetched_total"], m["auditreg_reads_silent_total"])
	}
	if m[`auditreg_stage_duration_seconds_count{stage="store-op"}`] != 5 {
		t.Errorf("store-op stage count = %v, want 5",
			m[`auditreg_stage_duration_seconds_count{stage="store-op"}`])
	}
	if m[`auditreg_stage_latency_ns{stage="store-op",q="p50"}`] <= 0 {
		t.Error("store-op p50 missing or zero")
	}
	if !strings.Contains(body, `auditreg_build_info{goversion=`) {
		t.Error("build info sample missing")
	}
	if strings.Contains(body, "auditreg_leaky_object_reads_total") {
		t.Error("honest configuration must not serve the per-object leak counter")
	}
	// Aggregate-only invariant, literally: no object name and no reader
	// label anywhere in an honest exposition.
	if strings.Contains(body, name) || strings.Contains(body, "reader=") {
		t.Error("exposition carries a per-object or per-reader dimension")
	}

	epoch1 := m["auditreg_stats_epoch"]
	m2, _ := scrape(t, srv)
	if m2["auditreg_stats_epoch"] <= epoch1 {
		t.Errorf("stats epoch did not advance: %v -> %v", epoch1, m2["auditreg_stats_epoch"])
	}
}

// TestMetricsLeakControl verifies the planted per-object counter — the E18
// positive control — appears if and only if Config.LeakyPerObjectReads is
// set, keyed by a stable copy of the (pooled, reused) name bytes.
func TestMetricsLeakControl(t *testing.T) {
	srv, err := New(Config{Key: auditreg.KeyFromSeed(6), Readers: 4, LeakyPerObjectReads: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c := &conn{srv: srv}
	const name = "metrics/leaky"
	if _, err := srv.Store().Open(name, store.Register); err != nil {
		t.Fatalf("Open: %v", err)
	}
	dst := make([]byte, 0, 256)
	// The handler sees the name as a view into a reused buffer; mutate the
	// buffer after the call to prove the map key was copied.
	fbody := (&wire.ReadFetchReq{Name: name, Reader: 0, PrevSeq: ^uint64(0)}).Append(nil)
	c.handleFetch(wire.VerbReadFetch, fbody, dst[:0])
	c.handleFetch(wire.VerbReadFetch, fbody, dst[:0])
	for i := range fbody {
		fbody[i] = 0
	}
	m, _ := scrape(t, srv)
	key := `auditreg_leaky_object_reads_total{object="` + name + `"}`
	if m[key] != 2 {
		t.Fatalf("leak control: %s = %v, want 2", key, m[key])
	}
}
