package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fixtures"
	"repro/internal/pathindex"
)

// motivatingQueryDSL is the Figure 1(d) (r, a, i) path query in the DSL.
const motivatingQueryDSL = "node A r\nnode B a\nnode C i\nedge A B\nedge B C\n"

func testServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	g, err := fixtures.MotivatingGraph()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pathindex.Build(context.Background(), g, pathindex.Options{
		MaxLen: 2, Beta: 0.02, Gamma: 0.1, Dir: filepath.Join(t.TempDir(), "ix"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	s := New(ix, opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
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

func TestMatchEndpoint(t *testing.T) {
	_, ts := testServer(t, Options{})
	resp, body := postJSON(t, ts.URL+"/match", MatchRequest{
		Query: motivatingQueryDSL,
		Alpha: fixtures.MotivatingAlpha,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res MatchResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if res.NumMatches != 1 {
		t.Fatalf("got %d matches, want 1: %s", res.NumMatches, body)
	}
	m := res.Matches[0]
	want := []uint32{uint32(fixtures.S34), uint32(fixtures.S2), uint32(fixtures.S1)}
	for i, v := range want {
		if m.Mapping[i] != v {
			t.Errorf("mapping[%d] = %d, want %d", i, m.Mapping[i], v)
		}
	}
	if diff := m.Pr - 0.2025; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Pr = %v, want 0.2025", m.Pr)
	}
	if res.Cached {
		t.Error("first request reported cached")
	}
	if res.Stats == nil {
		t.Error("missing stats")
	}
}

func TestResultCacheHit(t *testing.T) {
	s, ts := testServer(t, Options{})
	req := MatchRequest{Query: motivatingQueryDSL, Alpha: fixtures.MotivatingAlpha}
	_, body1 := postJSON(t, ts.URL+"/match", req)
	// Same canonical query written differently: extra whitespace, comments,
	// other node names.
	req2 := MatchRequest{
		Query: "# same query\nnode X r\n\nnode Y a\nnode Z i\nedge X Y\nedge Y Z\n",
		Alpha: fixtures.MotivatingAlpha,
	}
	_, body2 := postJSON(t, ts.URL+"/match", req2)
	var r1, r2 MatchResponse
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Error("first request cached")
	}
	if !r2.Cached {
		t.Error("canonically-equal request missed the cache")
	}
	if r1.NumMatches != r2.NumMatches {
		t.Errorf("cached result differs: %d vs %d matches", r1.NumMatches, r2.NumMatches)
	}
	if rst, _, _ := s.cacheStats(); rst.Hits == 0 {
		t.Error("cache recorded no hits")
	}
	// A different alpha must not hit.
	_, body3 := postJSON(t, ts.URL+"/match", MatchRequest{Query: motivatingQueryDSL, Alpha: 0.05})
	var r3 MatchResponse
	if err := json.Unmarshal(body3, &r3); err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Error("different alpha hit the cache")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := testServer(t, Options{})
	cases := []struct {
		name string
		req  MatchRequest
	}{
		{"empty query", MatchRequest{Query: "", Alpha: 0.2}},
		{"parse error", MatchRequest{Query: "frobnicate A r\n", Alpha: 0.2}},
		{"unknown label", MatchRequest{Query: "node A zzz\n", Alpha: 0.2}},
		{"bad alpha", MatchRequest{Query: motivatingQueryDSL, Alpha: 1.5}},
		{"bad strategy", MatchRequest{Query: motivatingQueryDSL, Alpha: 0.2, Strategy: "yolo"}},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/match", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/match", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	// GET on a POST endpoint.
	resp, err = http.Get(ts.URL + "/match")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /match: status %d, want 405", resp.StatusCode)
	}
}

// TestConcurrentClients is the server-level concurrency stress: many
// clients post the same four queries to /match at once, all against the
// same shared index. Under -race this exercises the full stack — HTTP
// handlers, cache, pool, and the lock-free index reads.
func TestConcurrentClients(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 4, QueueDepth: 1024})
	queries := []MatchRequest{
		{Query: motivatingQueryDSL, Alpha: fixtures.MotivatingAlpha},
		{Query: motivatingQueryDSL, Alpha: 0.05},
		{Query: "node A r\nnode B a\nedge A B\n", Alpha: 0.2},
		{Query: "node A i\nnode B a\nedge A B\n", Alpha: 0.1},
	}
	const clients = 10
	const rounds = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, q := range queries {
					b, _ := json.Marshal(q)
					resp, err := http.Post(ts.URL+"/match", "application/json", bytes.NewReader(b))
					if err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
					var res MatchResponse
					err = json.NewDecoder(resp.Body).Decode(&res)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("client %d query %d: status %d, decode: %v", c, i, resp.StatusCode, err)
						return
					}
					if i == 0 && res.NumMatches != 1 {
						t.Errorf("client %d: query 0 gave %d matches, want 1", c, res.NumMatches)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestInflightDedup fires identical cold requests concurrently at a
// single-worker server: the result cache must collapse them to one real
// evaluation (exactly one response with cached=false), with followers and
// stragglers served from the in-flight computation or the entry — and count
// exactly that: one miss, and one hit for every other request.
func TestInflightDedup(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1, QueueDepth: 64})
	const clients = 12
	results := make([]MatchResponse, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, body := postJSON(t, ts.URL+"/match", MatchRequest{
				Query: motivatingQueryDSL, Alpha: fixtures.MotivatingAlpha,
			})
			if err := json.Unmarshal(body, &results[c]); err != nil {
				t.Errorf("client %d: %v (%s)", c, err, body)
			}
		}(c)
	}
	wg.Wait()
	cold := 0
	for c := range results {
		if results[c].NumMatches != 1 {
			t.Errorf("client %d: %d matches, want 1", c, results[c].NumMatches)
		}
		if !results[c].Cached {
			cold++
		}
	}
	if cold != 1 {
		t.Errorf("%d cold evaluations, want exactly 1 (dedup failed)", cold)
	}
	var st StatsResponse
	if _, body := postJSON(t, ts.URL+"/stats", struct{}{}); json.Unmarshal(body, &st) != nil {
		t.Fatalf("/stats does not parse: %s", body)
	}
	if st.CacheMisses != 1 || st.CacheHits != clients-1 {
		t.Errorf("/stats cache_misses %d, cache_hits %d; want 1 and %d", st.CacheMisses, st.CacheHits, clients-1)
	}
}

func TestSaturationSheds(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1, QueueDepth: 1})
	// Occupy the lone worker slot...
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	// ...and the single queue slot with a waiter we control.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waiting := make(chan error, 1)
	go func() { waiting <- s.acquire(ctx) }()
	// Wait until the waiter is registered.
	for i := 0; s.waiters.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	// The next request must be shed immediately with 503.
	if err := s.acquire(context.Background()); err != errSaturated {
		t.Fatalf("acquire = %v, want errSaturated", err)
	}
	// Shedding is counted where the request settles (finishRequest), so a
	// real request through the handler must land in rejected — and only
	// there.
	resp, _ := postJSON(t, ts.URL+"/match", &MatchRequest{Query: motivatingQueryDSL})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated /match status = %d, want 503", resp.StatusCode)
	}
	if got := s.rejected.Load(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	if got := s.failed.Load(); got != 0 {
		t.Errorf("failed = %d, want 0 (shed must not count as failure)", got)
	}
	cancel()
	if err := <-waiting; err == nil {
		t.Error("cancelled waiter acquired a slot")
	}
}

func TestHealthAndStats(t *testing.T) {
	_, ts := testServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health["ok"] != true {
		t.Errorf("healthz: %v", health)
	}

	postJSON(t, ts.URL+"/match", MatchRequest{Query: motivatingQueryDSL, Alpha: 0.2})
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests == 0 || st.Succeeded == 0 {
		t.Errorf("stats did not count the request: %+v", st)
	}
}

func TestSetIndexInvalidatesCache(t *testing.T) {
	s, ts := testServer(t, Options{})
	req := MatchRequest{Query: motivatingQueryDSL, Alpha: fixtures.MotivatingAlpha}
	postJSON(t, ts.URL+"/match", req)
	_, body := postJSON(t, ts.URL+"/match", req)
	var r MatchResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if !r.Cached {
		t.Fatal("warm-up did not cache")
	}

	// Rebuild an identical index at a new location and swap it in: the new
	// identity must miss the cache.
	g, err := fixtures.MotivatingGraph()
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := pathindex.Build(context.Background(), g, pathindex.Options{
		MaxLen: 2, Beta: 0.02, Gamma: 0.1, Dir: filepath.Join(t.TempDir(), "ix2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	old := s.SetIndex(ix2)
	if old == nil {
		t.Fatal("SetIndex returned no drained index")
	}
	// The swap drains in-flight requests, so the old index is safe to
	// close immediately.
	if err := old.(*pathindex.Index).Close(); err != nil {
		t.Fatalf("closing drained index: %v", err)
	}

	_, body = postJSON(t, ts.URL+"/match", req)
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Cached {
		t.Error("request after index swap hit the stale cache")
	}
	if r.NumMatches != 1 {
		t.Errorf("after swap: %d matches, want 1", r.NumMatches)
	}
}

// TestPublishDropsCaches: a swap drops the served generation's result, plan
// and candidate caches together — every *_entries gauge reads 0 — while the
// hit and miss counters, which belong to the server, carry on.
func TestPublishDropsCaches(t *testing.T) {
	s, ts := testServer(t, Options{})
	req := MatchRequest{Query: motivatingQueryDSL, Alpha: fixtures.MotivatingAlpha}
	postJSON(t, ts.URL+"/match", req)
	postJSON(t, ts.URL+"/match", req) // a result-cache hit
	streamOnce(t, ts.URL)             // plan- and candidate-cache hits
	scrape := func() map[string]float64 {
		t.Helper()
		_, body := getRaw(t, ts.URL+"/metrics")
		values := map[string]float64{}
		for _, line := range strings.Split(string(body), "\n") {
			if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
				v, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					t.Fatalf("sample %q: %v", line, err)
				}
				values[f[0]] = v
			}
		}
		return values
	}
	gauges := []string{"peg_result_cache_entries", "peg_plan_cache_entries", "peg_candcache_entries", "peg_candcache_candidates"}
	var counters []string
	for _, c := range []string{"peg_result_cache", "peg_plan_cache", "peg_candcache"} {
		counters = append(counters, c+"_hits_total", c+"_misses_total")
	}
	before := scrape()
	for _, name := range append(gauges, counters...) {
		if before[name] == 0 {
			t.Fatalf("warm-up left %s at 0", name)
		}
	}
	si, release := s.acquireIndex()
	ix := si.ix
	release()
	s.Publish(ix)
	after := scrape()
	for _, name := range gauges {
		if after[name] != 0 {
			t.Errorf("after Publish %s = %v, want 0", name, after[name])
		}
	}
	for _, name := range counters {
		if after[name] < before[name] {
			t.Errorf("after Publish %s went %v -> %v", name, before[name], after[name])
		}
	}
}
