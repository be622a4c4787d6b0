package router

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func getRaw(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestMetricsCluster scrapes the federated page: the router's own families
// lead, every replica's families follow with shard/replica labels injected,
// and a dead replica degrades to peg_cluster_scrape_up 0 instead of failing
// the scrape.
func TestMetricsCluster(t *testing.T) {
	d := buildSynth(t)
	rt, backends := openCluster(t, d, 2, Options{})
	routed := httptest.NewServer(rt.Handler())
	t.Cleanup(routed.Close)

	// Traffic so the shard counters are non-trivial.
	if resp, _ := postMatch(t, routed.URL, map[string]any{"query": testQueries[0], "alpha": 0.05}); resp.StatusCode != 200 {
		t.Fatalf("match: HTTP %d", resp.StatusCode)
	}

	resp, raw := getRaw(t, routed.URL+"/metrics/cluster")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics/cluster: HTTP %d", resp.StatusCode)
	}
	page := string(raw)
	for _, want := range []string{
		"peg_router_requests_total", // the router's own families lead
		`peg_cluster_scrape_up{shard="0",replica="` + backends[0].URL + `"} 1`,
		`peg_cluster_scrape_up{shard="1",replica="` + backends[1].URL + `"} 1`,
		`peg_requests_total{shard="0",replica="` + backends[0].URL + `",endpoint="match",outcome="ok"} 1`,
		`peg_requests_total{shard="1",replica="` + backends[1].URL + `",endpoint="match",outcome="ok"} 1`,
		`peg_index_entries{shard="0"`,                            // gauges federate too
		"# TYPE peg_request_duration_seconds histogram",          // type survives the round trip
		`peg_request_duration_seconds_bucket{shard="0",replica=`, // histogram series re-labeled
		"peg_trace_spans_recorded_total 0",                       // router's trace families render zeros untraced
	} {
		if !strings.Contains(page, want) {
			t.Errorf("federated page missing %q", want)
		}
	}
	if n := strings.Count(page, "# TYPE peg_requests_total counter"); n != 1 {
		t.Errorf("family peg_requests_total announced %d times, want one merged family", n)
	}

	// Kill shard 1's only replica: the scrape still answers, reporting the
	// replica down and keeping shard 0's families.
	backends[1].Close()
	rt.pollHealth()
	resp, raw = getRaw(t, routed.URL+"/metrics/cluster")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics/cluster after kill: HTTP %d", resp.StatusCode)
	}
	page = string(raw)
	if !strings.Contains(page, `peg_requests_total{shard="0"`) {
		t.Error("surviving shard's families missing after a replica death")
	}
	if strings.Contains(page, `peg_requests_total{shard="1"`) {
		t.Error("dead replica's stale families still on the page")
	}
}
