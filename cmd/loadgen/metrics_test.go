package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"auditreg/internal/telem"
)

// TestScrapeStages round-trips a real exposition: histograms rendered by
// telem.WriteStages, served over HTTP, scraped back into the result's stages
// map. It pins the label-parsing in scrapeStages to the exact key format
// prom.go writes.
func TestScrapeStages(t *testing.T) {
	h := telem.NewHist(1)
	for i := 0; i < 90; i++ {
		h.Observe(0, 1000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0, 1_000_000)
	}
	snap := h.Snapshot()
	st := []telem.StageSnapshot{{Name: "store-op", Snapshot: snap}}

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := telem.WriteStages(w, st); err != nil {
			t.Error(err)
		}
	}))
	defer srv.Close()

	stages, err := scrapeStages(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := stages["store-op"]
	if !ok {
		t.Fatalf("stage store-op missing; got %v", stages)
	}
	if want := float64(snap.Quantile(0.50)); got.P50Ns != want {
		t.Errorf("p50 = %v, want %v", got.P50Ns, want)
	}
	if want := float64(snap.Quantile(0.99)); got.P99Ns != want {
		t.Errorf("p99 = %v, want %v", got.P99Ns, want)
	}
	if want := float64(snap.Max()); got.MaxNs != want {
		t.Errorf("max = %v, want %v", got.MaxNs, want)
	}
	if got.Count != 100 {
		t.Errorf("count = %v, want 100", got.Count)
	}
}
