package main

import (
	"fmt"
	"net/http"
	"time"

	"auditreg/client"
	"auditreg/internal/telem"
)

// scrapeStages pulls the daemon's metrics endpoint and folds the per-stage
// latency summaries into the result's stages map — so an E-series
// cell records where its latency went (queue wait vs store op vs fsync)
// instead of leaving stage attribution to be inferred from aggregate
// counters.
func scrapeStages(metricsURL string) (map[string]StageLatency, error) {
	hc := http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get(metricsURL)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %s", metricsURL, resp.Status)
	}
	samples, err := telem.ParseText(resp.Body)
	if err != nil {
		return nil, err
	}
	stages := make(map[string]StageLatency)
	for key, v := range samples {
		var stage, q string
		if n, _ := fmt.Sscanf(key, "auditreg_stage_latency_ns{stage=%q,q=%q}", &stage, &q); n == 2 {
			st := stages[stage]
			switch q {
			case "p50":
				st.P50Ns = v
			case "p99":
				st.P99Ns = v
			case "max":
				st.MaxNs = v
			}
			stages[stage] = st
		} else if n, _ := fmt.Sscanf(key, "auditreg_stage_duration_seconds_count{stage=%q}", &stage); n == 1 {
			st := stages[stage]
			st.Count = v
			stages[stage] = st
		}
	}
	return stages, nil
}

// rttStage renders the client's retry-inclusive RTT histogram as one more
// stage row — the client-side end of the same pipeline trace, in the same
// quantized units.
func rttStage(cl *client.Client) StageLatency {
	s := cl.RTT()
	return StageLatency{
		P50Ns: float64(s.Quantile(0.50)),
		P99Ns: float64(s.Quantile(0.99)),
		MaxNs: float64(s.Max()),
		Count: float64(s.Count),
	}
}
