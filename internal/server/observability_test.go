package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/trace"
)

// checkAccounting asserts the request-accounting invariant: every request
// settled into exactly one outcome counter.
func checkAccounting(t *testing.T, s *Server) {
	t.Helper()
	sum := s.succeeded.Load() + s.failed.Load() + s.canceled.Load() +
		s.rejected.Load() + s.costRejected.Load()
	if got := s.requests.Load(); got != sum {
		t.Errorf("requests = %d but outcomes sum to %d (ok=%d failed=%d canceled=%d shed=%d cost=%d)",
			got, sum, s.succeeded.Load(), s.failed.Load(), s.canceled.Load(),
			s.rejected.Load(), s.costRejected.Load())
	}
}

// failWriter is a ResponseWriter whose body writes always fail — the
// server-side view of a client that disconnected mid-stream.
type failWriter struct{ h http.Header }

func (f *failWriter) Header() http.Header        { return f.h }
func (f *failWriter) Write([]byte) (int, error)  { return 0, errors.New("broken pipe") }
func (f *failWriter) WriteHeader(statusCode int) {}

// TestStreamDisconnectCountsCanceled is the regression test for the billing
// bug: a client that vanishes mid-stream used to be counted as a server
// failure.
func TestStreamDisconnectCountsCanceled(t *testing.T) {
	s, _ := testServer(t, Options{Workers: 2})
	body, _ := json.Marshal(&MatchRequest{Query: motivatingQueryDSL, Alpha: fixtures.MotivatingAlpha})
	req := httptest.NewRequest(http.MethodPost, "/match/stream", bytes.NewReader(body))
	s.Handler().ServeHTTP(&failWriter{h: make(http.Header)}, req)

	if got := s.canceled.Load(); got != 1 {
		t.Errorf("canceled = %d, want 1", got)
	}
	if got := s.failed.Load(); got != 0 {
		t.Errorf("failed = %d, want 0 (disconnect must not bill as server failure)", got)
	}
	checkAccounting(t, s)

	// The outcome must also be visible on /metrics as its own label.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	want := `peg_requests_total{endpoint="stream",outcome="canceled"} 1`
	if !strings.Contains(rec.Body.String(), want) {
		t.Errorf("/metrics missing %q", want)
	}
}

// TestCanceledContextCountsCanceled covers the buffered path: a request
// whose context is already gone is canceled, not failed.
func TestCanceledContextCountsCanceled(t *testing.T) {
	s, _ := testServer(t, Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, _ := json.Marshal(&MatchRequest{Query: motivatingQueryDSL, Alpha: fixtures.MotivatingAlpha})
	req := httptest.NewRequest(http.MethodPost, "/match", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Errorf("status = %d, want 499", rec.Code)
	}
	if got := s.canceled.Load(); got != 1 {
		t.Errorf("canceled = %d, want 1", got)
	}
	if got := s.failed.Load(); got != 0 {
		t.Errorf("failed = %d, want 0", got)
	}
	checkAccounting(t, s)
}

// TestBatchAccountingInvariant sends a run of malformed and valid queries,
// one /match request each, and checks every request settles into exactly
// one outcome, in /stats and in /metrics alike.
func TestBatchAccountingInvariant(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 2})
	for _, req := range []MatchRequest{
		{Query: "node A nosuchlabel"},
		{Query: motivatingQueryDSL, Alpha: fixtures.MotivatingAlpha},
		{Query: "syntactically broken"},
	} {
		postJSON(t, ts.URL+"/match", &req)
	}
	var st StatsResponse
	if _, body := getRaw(t, ts.URL+"/stats"); json.Unmarshal(body, &st) != nil ||
		st.Requests != 3 || st.Succeeded != 1 || st.Failed != 2 {
		t.Errorf("/stats requests %d succeeded %d failed %d, want 3, 1 and 2", st.Requests, st.Succeeded, st.Failed)
	}
	_, page := getRaw(t, ts.URL+"/metrics")
	for _, want := range []string{
		`peg_requests_total{endpoint="match",outcome="ok"} 1`,
		`peg_requests_total{endpoint="match",outcome="failed"} 2`,
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	checkAccounting(t, s)
}

// TestCostAdmission verifies the cost-based admission tier end to end: with
// the budget placed between the plan costs of a cheap and an expensive
// query, the cheap one is served and the expensive one gets 429 +
// Retry-After, counted as cost_rejected (not shed, not failed). Its two
// servers share a process, so it also holds each server to a metrics
// registry of its own: the second one's peg_requests_total starts at zero
// after the first has served requests.
func TestCostAdmission(t *testing.T) {
	// A longer path over the same alphabet: strictly more stages to plan
	// and join, hence a strictly larger cost estimate.
	const expensiveDSL = "node A r\nnode B a\nnode C i\nnode D a\nnode E r\n" +
		"edge A B\nedge B C\nedge C D\nedge D E\n"

	_, ts := testServer(t, Options{Workers: 2})
	costOf := func(dsl string) float64 {
		resp, body := postJSON(t, ts.URL+"/explain", &MatchRequest{Query: dsl, Alpha: fixtures.MotivatingAlpha})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("explain status = %d (%s)", resp.StatusCode, body)
		}
		var ex ExplainResponse
		if err := json.Unmarshal(body, &ex); err != nil {
			t.Fatal(err)
		}
		return ex.Plan.Cost.Total
	}
	cheap, pricey := costOf(motivatingQueryDSL), costOf(expensiveDSL)
	if pricey <= cheap {
		t.Fatalf("expensive query cost %v not above cheap query cost %v", pricey, cheap)
	}

	requestsTotal := func(url string) float64 {
		t.Helper()
		_, page := getRaw(t, url+"/metrics")
		sum := 0.0
		for _, line := range strings.Split(string(page), "\n") {
			if !strings.HasPrefix(line, "peg_requests_total{") {
				continue
			}
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			sum += v
		}
		return sum
	}

	s2, ts2 := testServer(t, Options{Workers: 2, MaxPlanCost: (cheap + pricey) / 2})
	if first, second := requestsTotal(ts.URL), requestsTotal(ts2.URL); first != 2 || second != 0 {
		t.Fatalf("peg_requests_total: first server %v (want 2), new second server %v (want 0)", first, second)
	}
	resp, body := postJSON(t, ts2.URL+"/match", &MatchRequest{Query: motivatingQueryDSL, Alpha: fixtures.MotivatingAlpha})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cheap query status = %d, want 200 (%s)", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts2.URL+"/match", &MatchRequest{Query: expensiveDSL, Alpha: fixtures.MotivatingAlpha})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expensive query status = %d, want 429 (%s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 missing Retry-After header")
	} else if _, err := strconv.Atoi(ra); err != nil {
		t.Errorf("Retry-After %q is not an integer", ra)
	}
	// Streams go through the same admission.
	resp, _ = postJSON(t, ts2.URL+"/match/stream", &MatchRequest{Query: expensiveDSL, Alpha: fixtures.MotivatingAlpha})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("expensive stream status = %d, want 429", resp.StatusCode)
	}
	if got := s2.costRejected.Load(); got != 2 {
		t.Errorf("costRejected = %d, want 2", got)
	}
	if got := s2.rejected.Load(); got != 0 {
		t.Errorf("rejected = %d, want 0 (cost rejection is not pool shedding)", got)
	}
	if got := s2.failed.Load(); got != 0 {
		t.Errorf("failed = %d, want 0", got)
	}
	checkAccounting(t, s2)
	if got := requestsTotal(ts2.URL); got != 3 {
		t.Errorf("second server peg_requests_total = %v, want 3", got)
	}

	// /stats reports the new counters.
	r, err := http.Get(ts2.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	err = json.NewDecoder(r.Body).Decode(&st)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.CostRejected != 2 {
		t.Errorf("/stats cost_rejected = %d, want 2", st.CostRejected)
	}
}

// TestMalformedRequestsCounted: a request to /match, /match/stream or
// /explain that fails before it reaches the served index — a body that does
// not decode, a wrong method — is counted and settles as failed, on /stats
// and on /metrics.
func TestMalformedRequestsCounted(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 2})
	for _, c := range []struct{ endpoint, label string }{
		{"/match", "match"}, {"/match/stream", "stream"}, {"/explain", "explain"},
	} {
		before := s.failed.Load()
		resp, err := http.Post(ts.URL+c.endpoint, "application/json", strings.NewReader("{garbage"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("garbage JSON to %s: status %d, want 400", c.endpoint, resp.StatusCode)
		}
		if resp, err = http.Get(ts.URL + c.endpoint); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", c.endpoint, resp.StatusCode)
		}
		if got := s.failed.Load() - before; got != 2 {
			t.Errorf("%s: failed moved by %d after a garbage body and a GET, want 2", c.endpoint, got)
		}
		_, page := getRaw(t, ts.URL+"/metrics")
		if want := fmt.Sprintf("peg_requests_total{endpoint=%q,outcome=\"failed\"} 2", c.label); !strings.Contains(string(page), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	var st StatsResponse
	if _, body := getRaw(t, ts.URL+"/stats"); json.Unmarshal(body, &st) != nil || st.Failed != 6 || st.Requests != 6 {
		t.Errorf("/stats requests %d failed %d, want 6 and 6", st.Requests, st.Failed)
	}
	checkAccounting(t, s)
}

// TestServerBillsPlanningLikeCore: /match reports the stage rows
// core.Match reports for the same query when it plans — a leading plan row,
// then the executor's — and no plan row or plan_us when it reuses a cached
// plan. Every row of the fresh run lands in peg_stage_duration_seconds under
// its own name, build included, and plan is observed once.
func TestServerBillsPlanningLikeCore(t *testing.T) {
	s, ts := testServer(t, Options{CacheEntries: -1})
	req := MatchRequest{Query: motivatingQueryDSL, Alpha: fixtures.MotivatingAlpha}
	names := func(rows []plan.StageStats) []string {
		var out []string
		for _, r := range rows {
			out = append(out, r.Name)
		}
		return out
	}
	si, release := s.acquireIndex()
	q, err := query.ParseString(req.Query, si.ix.Graph().Alphabet())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := core.Match(context.Background(), si.ix, q, core.Options{Alpha: req.Alpha})
	release()
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(names(lib.Stats.Stages), ",")
	if want != "plan,candidates,build,reduce,join" {
		t.Fatalf("core.Match stages %s", want)
	}

	var miss, hit MatchResponse
	for _, res := range []*MatchResponse{&miss, &hit} {
		resp, body := postJSON(t, ts.URL+"/match", req)
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, res) != nil {
			t.Fatalf("match: HTTP %d: %s", resp.StatusCode, body)
		}
	}
	if miss.PlanCached || !hit.PlanCached {
		t.Fatalf("plan_cached %v then %v, want a miss then a hit", miss.PlanCached, hit.PlanCached)
	}
	if got := strings.Join(names(miss.Stats.Stages), ","); got != want {
		t.Errorf("plan-cache miss: /match stages %s, core.Match %s", got, want)
	}
	if miss.Stats.PlanMicros <= 0 || miss.Stats.Stages[0].Micros != miss.Stats.PlanMicros {
		t.Errorf("plan-cache miss: plan_us %v, plan row %v", miss.Stats.PlanMicros, miss.Stats.Stages[0].Micros)
	}
	if got := strings.Join(names(hit.Stats.Stages), ","); got != "candidates,build,reduce,join" {
		t.Errorf("plan-cache hit: /match stages %s, want no plan row", got)
	}
	if hit.Stats.PlanMicros != 0 {
		t.Errorf("plan-cache hit: plan_us %v, want omitted", hit.Stats.PlanMicros)
	}

	_, page := getRaw(t, ts.URL+"/metrics")
	for stage, n := range map[string]int{"plan": 1, "decompose": 1, "candidates": 2, "build": 2, "reduce": 2, "join": 2, "total": 2} {
		if want := fmt.Sprintf("peg_stage_duration_seconds_count{stage=%q} %d", stage, n); !strings.Contains(string(page), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestStatsJSONSubMicrosecond is the regression test for the truncation
// bug: integer-microsecond conversion reported 0 for every stage under 1µs.
func TestStatsJSONSubMicrosecond(t *testing.T) {
	st := statsJSON(core.Stats{
		CandidateTime: 800 * time.Nanosecond,
		JoinTime:      250 * time.Nanosecond,
		Total:         1050 * time.Nanosecond,
	})
	if st.CandidateMicros != 0.8 {
		t.Errorf("CandidateMicros = %v, want 0.8", st.CandidateMicros)
	}
	if st.JoinMicros != 0.25 {
		t.Errorf("JoinMicros = %v, want 0.25", st.JoinMicros)
	}
	if st.TotalMicros != 1.05 {
		t.Errorf("TotalMicros = %v, want 1.05", st.TotalMicros)
	}
}

// TestMetricsScrapeUnderLoad scrapes /metrics while matches and live ingest
// run concurrently (meaningful under -race), then parses the final page:
// every sample line must be "name{labels} value" with a float value and a
// preceding # TYPE declaration, and the core families must be present.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	s, db, ts := liveServer(t)
	if st := db.Status(); st.DirtyEntities != 0 || st.LastApplyNanos != 0 || s.met.liveApply.Count() != 0 {
		t.Fatalf("before any /ingest: %d dirty entities, last apply %d ns, %d applies observed", st.DirtyEntities, st.LastApplyNanos, s.met.liveApply.Count())
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				// The motivating PGD has references 0..3.
				mut := fmt.Sprintf(`{"op":"add-edge","a":%d,"b":%d,"p":0.7}`, j%4, (j+1+i%3)%4)
				resp, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(mut))
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("/ingest %s: status %d", mut, resp.StatusCode)
					return
				}
				body, _ := json.Marshal(&MatchRequest{Query: motivatingQuerySrc, Alpha: 0.05})
				if resp, err = http.Post(ts.URL+"/match", "application/json", bytes.NewReader(body)); err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				// A first-match stream over a plan that reduces.
				body, _ = json.Marshal(&MatchRequest{Query: motivatingQuerySrc, Alpha: 0.05, Limit: 1, Strategy: "random-decomp"})
				if resp, err = http.Post(ts.URL+"/match/stream", "application/json", bytes.NewReader(body)); err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				if resp, err = http.Get(ts.URL + "/metrics"); err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition format", ct)
	}
	declared := map[string]bool{}
	values := map[string]float64{}
	samples := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			declared[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: value does not parse: %v", line, err)
		}
		values[line[:sp]] = v
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !declared[base] && !declared[name] {
			t.Fatalf("sample %q has no preceding # TYPE", line)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("empty /metrics page")
	}
	for _, fam := range []string{
		"peg_requests_total", "peg_request_duration_seconds", "peg_stage_duration_seconds",
		"peg_plan_cost", "peg_admission_max_cost", "peg_result_cache_hits_total",
		"peg_plan_cache_hits_total", "peg_workers", "peg_index_info",
		"peg_live_mutation_lag", "peg_live_compactions_total", "peg_ingested_mutations_total",
		"peg_index_mapped_bytes", "peg_index_probes_total",
		"peg_index_posting_decode_micros", "peg_graph_bytes", "peg_reduce_skipped_total",
	} {
		if !declared[fam] {
			t.Errorf("/metrics missing family %s", fam)
		}
	}

	// The matches above probed the live server's mapped base index.
	if values["peg_index_mapped_bytes"] <= 0 {
		t.Errorf("peg_index_mapped_bytes = %v, want > 0 for a packed index", values["peg_index_mapped_bytes"])
	}
	if values["peg_index_probes_total"] <= 0 {
		t.Errorf("peg_index_probes_total = %v, want > 0 after serving matches", values["peg_index_probes_total"])
	}
	if values["peg_reduce_skipped_total"] <= 0 {
		t.Errorf("peg_reduce_skipped_total = %v after 32 limit-1 streams over a reducing plan", values["peg_reduce_skipped_total"])
	}
	// "Why was this ingest slow?": the dirty set's size and the apply
	// clock moved with the ingests above, on /metrics and in the status
	// /stats embeds.
	if values["peg_live_dirty_entities"] <= 0 || values["peg_live_apply_seconds_count"] != 32 {
		t.Errorf("after 32 /ingest batches: peg_live_dirty_entities = %v, peg_live_apply_seconds_count = %v",
			values["peg_live_dirty_entities"], values["peg_live_apply_seconds_count"])
	}
	if st := db.Status(); float64(st.DirtyEntities) != values["peg_live_dirty_entities"] || st.LastApplyNanos <= 0 {
		t.Errorf("live status: %d dirty entities (scraped %v), last apply %d ns", st.DirtyEntities, values["peg_live_dirty_entities"], st.LastApplyNanos)
	}
	// The served PEG's size is that of the generation published last, on
	// /metrics and on /stats alike.
	var stats StatsResponse
	if _, body := getRaw(t, ts.URL+"/stats"); json.Unmarshal(body, &stats) != nil {
		t.Fatalf("/stats does not parse: %s", body)
	}
	if want := db.Graph().Bytes(); want <= 0 || values["peg_graph_bytes"] != float64(want) || stats.GraphBytes != want {
		t.Errorf("peg_graph_bytes = %v, /stats graph_bytes = %d, the served graph holds %d", values["peg_graph_bytes"], stats.GraphBytes, want)
	}
	if values["peg_index_posting_decode_micros_count"] <= 0 {
		t.Errorf("peg_index_posting_decode_micros_count = %v, want > 0 after serving matches", values["peg_index_posting_decode_micros_count"])
	}
}

// TestLimitedStreamReportsSkippedReduction: when an emit-order limit makes the
// executor skip its plan's reduction and link by join key only, every surface
// of the run says so — the reduce and build rows of the stream's stats, the
// stage.reduce and stage.build spans, the request's root span and /metrics —
// and /explain says it of the same request, and not of one that enumerates
// everything. peg_reduce_skipped_total counts reduce rows only.
func TestLimitedStreamReportsSkippedReduction(t *testing.T) {
	s, ts := testServer(t, Options{
		Workers: 2,
		Tracer:  trace.New(trace.Config{Service: "pegserve-test", Sample: 1}),
	})
	const tid = "00112233445566778899aabbccddeeff"
	limited := MatchRequest{Query: motivatingQueryDSL, Alpha: 0.05, Limit: 1, Strategy: "random-decomp"}
	body, _ := json.Marshal(&limited)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/match/stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(trace.Header, "00-"+tid+"-0011223344556677-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var done *StreamDone
	for dec := json.NewDecoder(resp.Body); ; {
		var ev StreamEvent
		if err := dec.Decode(&ev); err != nil {
			break
		}
		if ev.Done != nil {
			done = ev.Done
		}
	}
	if done == nil || done.NumMatches != 1 || done.Stats == nil {
		t.Fatalf("stream ended with %+v, want one match and its stats", done)
	}
	for _, sg := range done.Stats.Stages {
		if want := map[string]string{"reduce": "limit"}[sg.Name]; sg.Skipped != want {
			t.Errorf("stage %s of the stream's stats: skipped %q, want %q", sg.Name, sg.Skipped, want)
		}
		if want := map[string]string{"build": "keyed"}[sg.Name]; sg.Links != want {
			t.Errorf("stage %s of the stream's stats: links %q, want %q", sg.Name, sg.Links, want)
		}
	}
	if got := s.met.skipped.Value(); got != 1 {
		t.Errorf("peg_reduce_skipped_total = %d, want 1", got)
	}

	_, raw := getRaw(t, ts.URL+"/debug/trace/"+tid)
	var tr TraceResponse
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for _, sp := range tr.Spans {
		seen[sp.Name] = sp.Attrs["skipped"] + sp.Attrs["reduce_skipped"] + sp.Attrs["links"]
	}
	if seen["serve.stream"] != "limit" || seen["stage.reduce"] != "limit" || seen["stage.build"] != "keyed" || seen["stage.join"] != "" {
		t.Errorf("span attributes %v: want the skip on serve.stream and stage.reduce only, and keyed links on stage.build", seen)
	}

	byProb, unlimited := limited, limited
	byProb.Order, unlimited.Limit = "prob", 0
	for _, c := range []struct {
		req   MatchRequest
		want  string
		links string
	}{{limited, "limit", "keyed"}, {byProb, "", ""}, {unlimited, "", ""}} {
		var ex ExplainResponse
		_, raw := postJSON(t, ts.URL+"/explain", &c.req)
		if err := json.Unmarshal(raw, &ex); err != nil {
			t.Fatal(err)
		}
		if ex.ReduceSkipped != c.want || ex.Links != c.links || !ex.Plan.Reduce {
			t.Errorf("/explain order %q limit %d: reduce_skipped %q, links %q on a plan with reduce=%v, want %q and %q on a reducing plan",
				c.req.Order, c.req.Limit, ex.ReduceSkipped, ex.Links, ex.Plan.Reduce, c.want, c.links)
		}
	}
	if got := s.met.skipped.Value(); got != 1 {
		t.Errorf("peg_reduce_skipped_total = %d after explaining, want 1: /explain runs nothing", got)
	}

	// The counter is the reduce row's: an annotation on another row — the
	// build row's links today, anything tomorrow — must not move it.
	s.met.observeStages(&MatchStats{Stages: []plan.StageStats{
		{Name: "build", Links: "keyed", Skipped: "annotated"}, {Name: "reduce"}, {Name: "join", Skipped: "annotated"},
	}})
	if got := s.met.skipped.Value(); got != 1 {
		t.Errorf("peg_reduce_skipped_total = %d after observing rows other than reduce marked skipped, want 1", got)
	}
	s.met.observeStages(&MatchStats{Stages: []plan.StageStats{{Name: "build"}, {Name: "reduce", Skipped: "limit"}}})
	if got := s.met.skipped.Value(); got != 2 {
		t.Errorf("peg_reduce_skipped_total = %d after observing a skipped reduce row, want 2", got)
	}
}
