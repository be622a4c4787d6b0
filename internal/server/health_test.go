package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/pathindex"
	"repro/internal/trace"
)

// TestReadinessLifecycle walks the unready → ready transition: a server
// constructed with a nil index serves liveness and 503s readiness and
// compute, and the first SetIndex flips readiness with a generation and
// uptime in the body.
func TestReadinessLifecycle(t *testing.T) {
	s := New(nil, Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	get := func(path string) (*http.Response, HealthResponse) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var h HealthResponse
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, h
	}

	resp, h := get("/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || h.Ready {
		t.Fatalf("unready readiness: HTTP %d ready=%v (want 503 false)", resp.StatusCode, h.Ready)
	}
	resp, h = get("/healthz/live")
	if resp.StatusCode != http.StatusOK || !h.OK || h.Ready {
		t.Fatalf("unready liveness: HTTP %d %+v (want 200 ok, not ready)", resp.StatusCode, h)
	}
	if h.UptimeSeconds < 0 {
		t.Fatalf("negative uptime %v", h.UptimeSeconds)
	}

	// Compute and stats answer rather than panic while unready.
	mresp, body := postJSON(t, ts.URL+"/match", MatchRequest{Query: motivatingQueryDSL, Alpha: 0.2})
	if mresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unready /match: HTTP %d (want 503): %s", mresp.StatusCode, body)
	}
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("unready /stats: HTTP %d", sresp.StatusCode)
	}
	metResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metResp.Body.Close()
	if metResp.StatusCode != http.StatusOK {
		t.Fatalf("unready /metrics scrape: HTTP %d", metResp.StatusCode)
	}

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
	s.SetIndex(ix)

	resp, h = get("/healthz")
	if resp.StatusCode != http.StatusOK || !h.Ready || h.Generation != 1 {
		t.Fatalf("ready readiness: HTTP %d %+v (want 200, ready, generation 1)", resp.StatusCode, h)
	}
	if h.Index == "" || h.Nodes == 0 {
		t.Fatalf("ready body missing index identity: %+v", h)
	}
	mresp, body = postJSON(t, ts.URL+"/match", MatchRequest{Query: motivatingQueryDSL, Alpha: 0.2})
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("ready /match: HTTP %d: %s", mresp.StatusCode, body)
	}
}

// TestRequestIDPropagation checks the server's correlation-id contract: the header is echoed on success and error responses alike, and
// lands on the request's root span.
func TestRequestIDPropagation(t *testing.T) {
	tr := trace.New(trace.Config{Sample: 1})
	s, _ := testServer(t, Options{Tracer: tr})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	send := func(body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/match", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(RequestIDHeader, "rid-123")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	b, _ := json.Marshal(MatchRequest{Query: motivatingQueryDSL, Alpha: 0.2})
	if resp := send(string(b)); resp.Header.Get(RequestIDHeader) != "rid-123" {
		t.Fatal("request id not echoed on success")
	}
	if resp := send(`{"query":"not a query"}`); resp.Header.Get(RequestIDHeader) != "rid-123" {
		t.Fatalf("request id not echoed on error")
	}

	roots := 0
	for _, sp := range tr.Dump(0) {
		if sp.Name != "serve.match" {
			continue
		}
		roots++
		if sp.Attrs["request_id"] != "rid-123" {
			t.Fatalf("%s root request_id %q (want rid-123)", sp.Attrs["outcome"], sp.Attrs["request_id"])
		}
	}
	if roots != 2 {
		t.Fatalf("%d serve.match roots recorded, want 2", roots)
	}
}
