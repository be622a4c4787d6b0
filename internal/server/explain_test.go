package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/fixtures"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// canonicalJSON round-trips raw JSON through a normalization pass — object
// keys sorted, every float rounded to 6 significant digits — so the golden
// comparison asserts the response *shape* and stable values without being
// brittle against last-ulp float formatting.
func canonicalJSON(t *testing.T, raw []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, raw)
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(normalize(v)); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func normalize(v any) any {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := make(map[string]any, len(x))
		for _, k := range keys {
			out[k] = normalize(x[k])
		}
		return out
	case []any:
		for i := range x {
			x[i] = normalize(x[i])
		}
		return x
	case float64:
		if x == 0 {
			return x
		}
		mag := math.Pow(10, 5-math.Floor(math.Log10(math.Abs(x))))
		return math.Round(x*mag) / mag
	default:
		return v
	}
}

// TestExplainGolden pins the /explain JSON shape against a golden file:
// the full plan tree of the motivating-example query — chosen knobs, paths
// with estimated cardinalities, cost breakdown, and the rejected
// alternatives. Regenerate with `go test ./internal/server -run
// TestExplainGolden -update` after an intentional planner change.
func TestExplainGolden(t *testing.T) {
	_, ts := testServer(t, Options{})
	resp, body := postJSON(t, ts.URL+"/explain", MatchRequest{
		Query: motivatingQueryDSL,
		Alpha: fixtures.MotivatingAlpha,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	got := canonicalJSON(t, body)
	golden := filepath.Join("testdata", "explain_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Fatalf("/explain shape drifted from golden (-update to accept):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestPlanIgnoresHistory: a plan is a function of the index, the query and
// the request's options — the queries the server ran before must not move
// it. With the result and plan caches off, /explain of one query is taken
// before and after a mix of /match runs (of other queries and of itself)
// and must come back equal, estimates and costs included.
func TestPlanIgnoresHistory(t *testing.T) {
	_, ts := testServer(t, Options{PlanCacheEntries: -1, CacheEntries: -1})
	req := MatchRequest{Query: motivatingQueryDSL, Alpha: fixtures.MotivatingAlpha}
	explain := func() string {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/explain", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("explain status %d: %s", resp.StatusCode, body)
		}
		return canonicalJSON(t, body)
	}
	before := explain()
	mix := []MatchRequest{
		{Query: "node A r\nnode B a\nedge A B\n", Alpha: 0.01},
		{Query: "node A a\nnode B i\nedge A B\n", Alpha: 0.01},
		{Query: "node A r\nnode B a\nnode C i\nedge A B\nedge B C\nedge A C\n", Alpha: 0.01},
		{Query: "node A i\n", Alpha: 0.01},
		{Query: motivatingQueryDSL, Alpha: 0.01},
		req,
	}
	for round := 0; round < 5; round++ {
		for _, m := range mix {
			if resp, body := postJSON(t, ts.URL+"/match", m); resp.StatusCode != http.StatusOK {
				t.Fatalf("match %q status %d: %s", m.Query, resp.StatusCode, body)
			}
		}
	}
	if after := explain(); after != before {
		t.Fatalf("/explain moved after earlier runs:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestExplainMatchesExecutedPlan: the plan tree /explain returns must be
// the tree a subsequent /match reports in its stats — with the plan cache
// on, literally the same cached plan (the match run flags plan_cached).
func TestExplainMatchesExecutedPlan(t *testing.T) {
	_, ts := testServer(t, Options{})
	req := MatchRequest{Query: motivatingQueryDSL, Alpha: fixtures.MotivatingAlpha}

	resp, body := postJSON(t, ts.URL+"/explain", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain status %d: %s", resp.StatusCode, body)
	}
	var ex struct {
		Plan   json.RawMessage `json:"plan"`
		Cached bool            `json:"cached"`
	}
	if err := json.Unmarshal(body, &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Cached {
		t.Error("first explain reported a plan-cache hit")
	}

	resp, body = postJSON(t, ts.URL+"/match", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match status %d: %s", resp.StatusCode, body)
	}
	var res struct {
		PlanCached bool `json:"plan_cached"`
		Stats      struct {
			Plan json.RawMessage `json:"plan"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.PlanCached {
		t.Error("match after explain did not reuse the cached plan")
	}
	if res.Stats.Plan == nil {
		t.Fatal("match stats carry no plan tree")
	}
	var a, b any
	if err := json.Unmarshal(ex.Plan, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(res.Stats.Plan, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("explained plan != executed plan:\n%s\nvs\n%s", ex.Plan, res.Stats.Plan)
	}

	// Second explain: now a cache hit.
	resp, body = postJSON(t, ts.URL+"/explain", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ex); err != nil {
		t.Fatal(err)
	}
	if !ex.Cached {
		t.Error("second explain missed the plan cache")
	}
}

// TestPlanCacheCounters: repeat queries hit the plan cache (visible in
// /stats), varying only run-time knobs (limit/order) shares one plan, and
// disabling the cache turns every request into a miss.
func TestPlanCacheCounters(t *testing.T) {
	_, ts := testServer(t, Options{CacheEntries: -1}) // result cache off: every /match replans or plan-cache-hits
	req := MatchRequest{Query: motivatingQueryDSL, Alpha: fixtures.MotivatingAlpha}
	postJSON(t, ts.URL+"/match", req)
	limited := req
	limited.Limit = 1
	limited.Order = "prob"
	postJSON(t, ts.URL+"/match", limited) // different result-cache key, same plan
	postJSON(t, ts.URL+"/match", req)

	resp, body := postJSON(t, ts.URL+"/stats", struct{}{})
	_ = resp
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		// /stats is GET; POST body is ignored by the handler.
		t.Fatalf("stats: %v: %s", err, body)
	}
	if st.PlanCacheMisses != 1 {
		t.Errorf("plan cache misses = %d, want 1", st.PlanCacheMisses)
	}
	if st.PlanCacheHits != 2 {
		t.Errorf("plan cache hits = %d, want 2 (top-K page + repeat share one plan)", st.PlanCacheHits)
	}
	if st.PlanCacheEntries != 1 {
		t.Errorf("plan cache entries = %d, want 1", st.PlanCacheEntries)
	}

	_, ts2 := testServer(t, Options{PlanCacheEntries: -1, CacheEntries: -1})
	postJSON(t, ts2.URL+"/match", req)
	postJSON(t, ts2.URL+"/match", req)
	_, body = postJSON(t, ts2.URL+"/stats", struct{}{})
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.PlanCacheHits != 0 || st.PlanCacheEntries != 0 {
		t.Errorf("disabled plan cache reported hits=%d entries=%d", st.PlanCacheHits, st.PlanCacheEntries)
	}
}

// TestPlanCacheInvalidatedByIndexSwap: a SetIndex changes the index
// identity, so cached plans for the old generation stop matching and the
// next request replans against the new index.
func TestPlanCacheInvalidatedByIndexSwap(t *testing.T) {
	s, ts := testServer(t, Options{CacheEntries: -1})
	req := MatchRequest{Query: motivatingQueryDSL, Alpha: fixtures.MotivatingAlpha}
	postJSON(t, ts.URL+"/match", req)
	postJSON(t, ts.URL+"/match", req)

	// Swap in a fresh build of the same graph: same data, new identity.
	si, release := s.acquireIndex()
	old := si.ix
	release()
	s.SetIndex(old) // re-publishing even the same reader bumps the generation id

	postJSON(t, ts.URL+"/match", req)
	_, body := postJSON(t, ts.URL+"/stats", struct{}{})
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.PlanCacheMisses != 2 {
		t.Errorf("plan cache misses = %d, want 2 (one per index generation)", st.PlanCacheMisses)
	}
	if st.PlanCacheHits != 1 {
		t.Errorf("plan cache hits = %d, want 1", st.PlanCacheHits)
	}
}

// TestExplainValidation: malformed requests answer 400 with a diagnostic,
// mirroring the match endpoints.
func TestExplainValidation(t *testing.T) {
	_, ts := testServer(t, Options{})
	cases := []MatchRequest{
		{Query: motivatingQueryDSL, Alpha: 1.5},
		{Query: motivatingQueryDSL, Strategy: "nope"},
		{Query: "node A bogus-label"},
	}
	for i, req := range cases {
		resp, body := postJSON(t, ts.URL+"/explain", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400: %s", i, resp.StatusCode, body)
		}
	}
	if resp, _ := http.Get(ts.URL + "/explain"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /explain status %d, want 405", resp.StatusCode)
	}
}

// TestStreamUsesPlanCache: /match/stream bypasses the result cache but must
// share the plan cache with /match and /explain.
func TestStreamUsesPlanCache(t *testing.T) {
	_, ts := testServer(t, Options{})
	req := MatchRequest{Query: motivatingQueryDSL, Alpha: fixtures.MotivatingAlpha}
	postJSON(t, ts.URL+"/explain", req)
	resp, body := postJSON(t, ts.URL+"/match/stream", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	_, body = postJSON(t, ts.URL+"/stats", struct{}{})
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.PlanCacheHits < 1 {
		t.Errorf("stream after explain did not hit the plan cache: %+v", st)
	}
}
