package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fixtures"
	"repro/internal/trace"
)

// TestTimeoutMillisFolds covers the body's timeout_ms: it lowers the
// request deadline below the server cap, never raises it past the cap (not
// even by overflowing a Duration), and non-positive values are ignored.
func TestTimeoutMillisFolds(t *testing.T) {
	s, _ := testServer(t, Options{Workers: 2, RequestTimeout: 30 * time.Second})

	for _, tc := range []struct {
		bodyMS int64
		want   time.Duration
	}{
		{0, 30 * time.Second},        // unset: the server cap
		{50, 50 * time.Millisecond},  // lowers
		{20, 20 * time.Millisecond},  // lowers
		{60000000, 30 * time.Second}, // cannot raise past the cap
		{30000, 30 * time.Second},    // exactly the cap
		{-5, 30 * time.Second},       // non-positive ignored
		{1 << 62, 30 * time.Second},  // too large for a Duration: still the cap
	} {
		req := &MatchRequest{TimeoutMillis: tc.bodyMS}
		if got := s.requestTimeout(req); got != tc.want {
			t.Errorf("timeout_ms=%d: requestTimeout = %v, want %v", tc.bodyMS, got, tc.want)
		}
	}
}

// TestTimeoutMillisTimesOutWaiting drives timeout_ms end to end: with the
// worker pool wedged, a request carrying a short timeout_ms gives up in
// the admission queue with 504 instead of waiting out the server cap.
func TestTimeoutMillisTimesOutWaiting(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1})
	s.sem <- struct{}{} // wedge the only worker slot
	defer func() { <-s.sem }()

	body, _ := json.Marshal(&MatchRequest{Query: motivatingQueryDSL, Alpha: fixtures.MotivatingAlpha, TimeoutMillis: 50})
	if !bytes.Contains(body, []byte(`"timeout_ms":50`)) {
		t.Fatalf("request body %s does not carry timeout_ms", body)
	}
	start := time.Now()
	resp, err := http.Post(ts.URL+"/match", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("took %v; the 50ms timeout_ms did not fold in", waited)
	}
	checkAccounting(t, s)
}

// TestDebugTraceEndpoint covers the server's trace ring: a sampled
// request leaves serve.match, admission, planner, and executor stage spans
// in the ring, retrievable by trace id over GET /debug/trace/{id}, parented
// under the remote context the client sent.
func TestDebugTraceEndpoint(t *testing.T) {
	_, ts := testServer(t, Options{
		Workers: 2,
		Tracer:  trace.New(trace.Config{Service: "pegserve-test", Sample: 1}),
	})
	const tid = "00112233445566778899aabbccddeeff"
	const clientSpan = "0011223344556677"
	body, _ := json.Marshal(&MatchRequest{Query: motivatingQueryDSL, Alpha: fixtures.MotivatingAlpha})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/match", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.Header, "00-"+tid+"-"+clientSpan+"-01")
	req.Header.Set(RequestIDHeader, "req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match: HTTP %d", resp.StatusCode)
	}

	dresp, raw := getRaw(t, ts.URL+"/debug/trace/"+tid)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("debug/trace: HTTP %d: %s", dresp.StatusCode, raw)
	}
	var tr TraceResponse
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != tid {
		t.Fatalf("trace id %q, want %q", tr.TraceID, tid)
	}
	names := map[string]int{}
	var root trace.SpanData
	for _, sp := range tr.Spans {
		if sp.TraceID != tid {
			t.Fatalf("span %s carries trace %s", sp.Name, sp.TraceID)
		}
		names[sp.Name]++
		if sp.Name == "serve.match" {
			root = sp
		}
	}
	if names["serve.match"] != 1 || names["admission"] != 1 || names["plan-cache"] != 1 ||
		names["plan"] != 1 || names["stage.candidates"] == 0 || names["stage.join"] == 0 {
		t.Fatalf("span census %v missing expected request/planner/stage spans", names)
	}
	// The request billed its planning into the stats after the stage spans
	// were recorded: the planner span is the trace of it, once.
	if names["stage.plan"] != 0 {
		t.Fatalf("span census %v: planning recorded as a stage span too", names)
	}
	if root.ParentID != clientSpan {
		t.Fatalf("serve.match parented to %q, want the client span %q", root.ParentID, clientSpan)
	}
	if root.Attrs["outcome"] != "ok" || root.Attrs["request_id"] != "req-42" {
		t.Fatalf("serve.match attrs %v", root.Attrs)
	}
	for _, sp := range tr.Spans {
		if sp.SpanID != root.SpanID && sp.ParentID != root.SpanID {
			t.Fatalf("span %s parented to %q, want the request span", sp.Name, sp.ParentID)
		}
	}

	// An unsampled client context (flags 00) is continued for propagation but
	// records nothing — the trace id stays unknown here.
	const coldTid = "ffeeddccbbaa99887766554433221100"
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/match", bytes.NewReader(body))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set(trace.Header, "00-"+coldTid+"-0011223344556677-00")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if dresp, _ := getRaw(t, ts.URL+"/debug/trace/"+coldTid); dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unsampled trace retrievable: HTTP %d", dresp.StatusCode)
	}

	if dresp, _ := getRaw(t, ts.URL+"/debug/trace/"+strings.Repeat("0", 32)); dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace id: HTTP %d, want 404", dresp.StatusCode)
	}
}

// TestDebugTraceDisabled: without a tracer the endpoint answers 404, not a
// panic or an empty page.
func TestDebugTraceDisabled(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2})
	if resp, _ := getRaw(t, ts.URL+"/debug/trace/00112233445566778899aabbccddeeff"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HTTP %d, want 404 with tracing disabled", resp.StatusCode)
	}
}

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

// TestRootSpanPerRequest: every counted request on /match, /match/stream
// and /explain ends exactly one root span, whatever its outcome, and the
// root carries the request's shape and terminal state — the outcome that
// moved the accounting counters, the query and α, and for a finished
// stream its plan-cache and truncation flags.
func TestRootSpanPerRequest(t *testing.T) {
	const badQuery = "node A nosuchlabel"
	for _, endpoint := range []string{"/match", "/match/stream", "/explain"} {
		for _, outcome := range []string{outcomeOK, outcomeFailed, outcomeCostRejected, outcomeShed, outcomeCanceled} {
			t.Run(endpoint+"/"+outcome, func(t *testing.T) {
				tr := trace.New(trace.Config{Sample: 1})
				opt := Options{Workers: 1, QueueDepth: 1, Tracer: tr}
				if outcome == outcomeCostRejected {
					opt.MaxPlanCost = math.SmallestNonzeroFloat64
				}
				s, _ := testServer(t, opt)
				req := MatchRequest{Query: motivatingQueryDSL, Alpha: fixtures.MotivatingAlpha, Limit: 1}
				ctx := context.Background()
				switch outcome {
				case outcomeFailed:
					req.Query = badQuery
				case outcomeShed, outcomeCanceled:
					s.sem <- struct{}{} // wedge the only worker slot
					defer func() { <-s.sem }()
					if outcome == outcomeShed {
						s.waiters.Add(1) // and the only queue slot
						defer s.waiters.Add(-1)
					} else {
						c, cancel := context.WithCancel(ctx)
						cancel()
						ctx = c
					}
				}
				body, _ := json.Marshal(&req)
				hr := httptest.NewRequest(http.MethodPost, endpoint, bytes.NewReader(body)).WithContext(ctx)
				s.Handler().ServeHTTP(httptest.NewRecorder(), hr)

				// /explain is exempt from cost-based admission.
				want := outcome
				if endpoint == "/explain" && outcome == outcomeCostRejected {
					want = outcomeOK
				}
				counters := map[string]uint64{
					outcomeOK:           s.succeeded.Load(),
					outcomeFailed:       s.failed.Load(),
					outcomeCostRejected: s.costRejected.Load(),
					outcomeShed:         s.rejected.Load(),
					outcomeCanceled:     s.canceled.Load(),
				}
				for o, n := range counters {
					if (o == want) != (n == 1) || n > 1 {
						t.Errorf("counter %s = %d, want only %s to move", o, n, want)
					}
				}
				checkAccounting(t, s)

				var roots []trace.SpanData
				for _, sp := range tr.Dump(0) {
					if sp.ParentID == "" {
						roots = append(roots, sp)
					}
				}
				if len(roots) != 1 {
					t.Fatalf("%d root spans recorded, want 1: %+v", len(roots), roots)
				}
				a := roots[0].Attrs
				if a["outcome"] != want {
					t.Errorf("root outcome %q, want %q", a["outcome"], want)
				}
				if a["query"] != req.Query || a["alpha"] == "" || a["limit"] != "1" {
					t.Errorf("root attrs %v lack the request's query/alpha/limit", a)
				}
				if (want == outcomeOK) == (a["error"] != "") {
					t.Errorf("root attrs %v: error set on outcome %s", a, want)
				}
				if endpoint == "/match/stream" && want == outcomeOK {
					if a["plan_cached"] == "" || a["truncated"] == "" || a["matches"] != "1" {
						t.Errorf("stream root attrs %v lack matches/plan_cached/truncated", a)
					}
				}
			})
		}
	}
}
