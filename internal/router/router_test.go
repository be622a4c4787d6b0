package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/pathindex"
	"repro/internal/refgraph"
	"repro/internal/server"
	"repro/internal/shard"
)

const testMaxLen = 2

func buildSynth(t *testing.T) *refgraph.PGD {
	t.Helper()
	d, err := gen.Synthetic(gen.SynthOptions{
		Refs:     300,
		Groups:   9,
		Clusters: 4,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func openServer(t *testing.T, d *refgraph.PGD) *httptest.Server {
	t.Helper()
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pathindex.Build(context.Background(), g, pathindex.Options{
		MaxLen: testMaxLen, Beta: 0.01, Gamma: 0.05, Dir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	srv := server.New(ix, server.Options{Workers: 2})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs
}

// openCluster runs the full offline pipeline and brings up one in-process
// server per shard plus a router over them.
func openCluster(t *testing.T, d *refgraph.PGD, shards int, opt Options) (*Router, []*httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	m, err := shard.Build(context.Background(), d, dir, shard.Options{
		Shards: shards,
		Index:  pathindex.Options{MaxLen: testMaxLen, Beta: 0.01, Gamma: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]*httptest.Server, shards)
	replicas := make([][]string, shards)
	for s, e := range m.Entries {
		f, err := os.Open(filepath.Join(dir, e.PGD))
		if err != nil {
			t.Fatal(err)
		}
		sd, err := refgraph.Load(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		g, err := entity.Build(sd, entity.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := pathindex.Open(filepath.Join(dir, e.IndexDir), g)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		hs := httptest.NewServer(server.New(ix, server.Options{Workers: 2}).Handler())
		t.Cleanup(hs.Close)
		backends[s] = hs
		replicas[s] = []string{hs.URL}
	}
	opt.Replicas = replicas
	if opt.HealthEvery == 0 {
		opt.HealthEvery = -1 // tests drive pollHealth explicitly
	}
	rt, err := New(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, backends
}

func postMatch(t *testing.T, url string, body map[string]any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/match", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func matchesOf(t *testing.T, raw []byte) ([]server.MatchEntry, server.MatchResponse) {
	t.Helper()
	var mr server.MatchResponse
	if err := json.Unmarshal(raw, &mr); err != nil {
		t.Fatalf("decode response: %v\n%s", err, raw)
	}
	return mr.Matches, mr
}

func streamMatches(t *testing.T, url string, body map[string]any) ([]server.MatchEntry, *StreamDone) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/match/stream", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("stream: HTTP %d: %s", resp.StatusCode, buf.String())
	}
	var ms []server.MatchEntry
	var done *StreamDone
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("stream line: %v", err)
		}
		switch {
		case ev.Match != nil:
			ms = append(ms, *ev.Match)
		case ev.Done != nil:
			done = ev.Done
		case ev.Error != "":
			t.Fatalf("stream error: %s", ev.Error)
		}
	}
	if done == nil {
		t.Fatal("stream ended without a done line")
	}
	return ms, done
}

var testQueries = []string{
	"node A l0\nnode B l1\nedge A B",
	"node A l2\nnode B l3\nedge A B",
	"node A l0\nnode B l1\nnode C l2\nedge A B\nedge B C",
}

// TestRouterMatchesSingleNode is the central lossless-partition property:
// over 2 and 3 shards, both decomposition strategies, collect and top-K and
// both stream orders, the routed answer is byte-identical (mapping, Pr,
// Prle, Prn, order) to the single-node answer, and a routed top-K is whole
// (not partial) with min(K, matches) entries.
func TestRouterMatchesSingleNode(t *testing.T) {
	d := buildSynth(t)
	single := openServer(t, d)
	matched := 0
	for _, shards := range []int{2, 3} {
		rt, _ := openCluster(t, d, shards, Options{})
		routed := httptest.NewServer(rt.Handler())
		t.Cleanup(routed.Close)
		for _, strategy := range []string{"optimized", "no-ss-reduction"} {
			for _, q := range testQueries {
				req := map[string]any{"query": q, "alpha": 0.05, "strategy": strategy}

				// Collect: same set, same mapping-order sort.
				_, sb := postMatch(t, single.URL, req)
				sm, sres := matchesOf(t, sb)
				_, rb := postMatch(t, routed.URL, req)
				rm, rres := matchesOf(t, rb)
				if !reflect.DeepEqual(sm, rm) {
					t.Fatalf("shards=%d strategy=%s collect mismatch for %q:\nsingle %d matches\nrouted %d matches",
						shards, strategy, q, len(sm), len(rm))
				}
				if sres.NumMatches != rres.NumMatches {
					t.Fatalf("num_matches: single %d, routed %d", sres.NumMatches, rres.NumMatches)
				}
				if sres.NumMatches > 0 {
					matched++
				}

				// Top-K: same ranking and cut.
				const k = 5
				topReq := map[string]any{"query": q, "alpha": 0.05, "strategy": strategy, "order": "prob", "limit": k}
				_, sb = postMatch(t, single.URL, topReq)
				sm, _ = matchesOf(t, sb)
				_, rb = postMatch(t, routed.URL, topReq)
				rm, _ = matchesOf(t, rb)
				if !reflect.DeepEqual(sm, rm) {
					t.Fatalf("shards=%d strategy=%s top-K mismatch for %q", shards, strategy, q)
				}
				var top MatchResponse
				if err := json.Unmarshal(rb, &top); err != nil {
					t.Fatal(err)
				}
				if top.Partial || len(rm) != min(k, sres.NumMatches) {
					t.Fatalf("shards=%d strategy=%s top-%d for %q: partial=%v, %d matches of %d",
						shards, strategy, k, q, top.Partial, len(rm), sres.NumMatches)
				}

				// Probability-ordered stream: exact global order from the
				// k-way merge.
				streamReq := map[string]any{"query": q, "alpha": 0.05, "strategy": strategy, "order": "prob"}
				rsm, done := streamMatches(t, routed.URL, streamReq)
				_, sb = postMatch(t, single.URL, streamReq)
				sm, _ = matchesOf(t, sb)
				if len(rsm) == 0 {
					rsm = nil
				}
				if len(sm) == 0 {
					sm = nil
				}
				if !reflect.DeepEqual(sm, rsm) {
					t.Fatalf("shards=%d strategy=%s prob-stream mismatch for %q", shards, strategy, q)
				}
				if done.Partial || len(done.ShardsFailed) > 0 {
					t.Fatalf("unexpected partial stream: %+v", done)
				}

				// Emission-order stream: same multiset (order is
				// nondeterministic by design); compare after a canonical sort.
				emitReq := map[string]any{"query": q, "alpha": 0.05, "strategy": strategy}
				esm, _ := streamMatches(t, routed.URL, emitReq)
				sortEntries(esm)
				want := append([]server.MatchEntry(nil), sm...)
				sortEntries(want)
				if len(esm) == 0 {
					esm = nil
				}
				if len(want) == 0 {
					want = nil
				}
				if !reflect.DeepEqual(want, esm) {
					t.Fatalf("shards=%d strategy=%s emit-stream multiset mismatch for %q", shards, strategy, q)
				}
			}
		}
	}
	if matched == 0 {
		t.Fatal("no test query matched: every comparison above was between empty answers")
	}
}

// TestRouterOmittedAlpha: a routed request that omits alpha is answered at
// the one threshold every shard fills in, 0.25, and its matches are
// byte-identical to the single-node answer at an explicit α of 0.25.
func TestRouterOmittedAlpha(t *testing.T) {
	d := buildSynth(t)
	single := openServer(t, d)
	rt, _ := openCluster(t, d, 2, Options{})
	routed := httptest.NewServer(rt.Handler())
	t.Cleanup(routed.Close)
	type answer struct {
		Matches json.RawMessage `json:"matches"`
		Alpha   json.RawMessage `json:"alpha"`
	}
	matched := 0
	for _, q := range testQueries {
		var want, got answer
		_, sb := postMatch(t, single.URL, map[string]any{"query": q, "alpha": 0.25})
		_, rb := postMatch(t, routed.URL, map[string]any{"query": q})
		if err := json.Unmarshal(sb, &want); err != nil {
			t.Fatalf("single: %v\n%s", err, sb)
		}
		if err := json.Unmarshal(rb, &got); err != nil {
			t.Fatalf("routed: %v\n%s", err, rb)
		}
		if string(got.Alpha) != "0.25" {
			t.Errorf("%q without alpha: routed alpha %s, want 0.25", q, got.Alpha)
		}
		if !bytes.Equal(want.Matches, got.Matches) {
			t.Errorf("%q without alpha: routed matches differ from the single node's at α 0.25:\nsingle %s\nrouted %s", q, want.Matches, got.Matches)
		}
		if string(want.Matches) != "[]" {
			matched++
		}
	}
	if matched == 0 {
		t.Fatal("no test query matched at α 0.25: every comparison above was between empty answers")
	}
}

func sortEntries(ms []server.MatchEntry) {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && probBetter(&ms[j], &ms[j-1]); j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}

// TestRouterPartialFailure kills one shard and checks the partial-result
// contract: partial:true + shards_failed without -require-all, a hard 502
// with it, and a disconnected-query 400 at the router.
func TestRouterPartialFailure(t *testing.T) {
	d := buildSynth(t)
	rt, backends := openCluster(t, d, 2, Options{})
	routed := httptest.NewServer(rt.Handler())
	t.Cleanup(routed.Close)

	req := map[string]any{"query": testQueries[0], "alpha": 0.05}
	resp, raw := postMatch(t, routed.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy cluster: HTTP %d: %s", resp.StatusCode, raw)
	}
	var before MatchResponse
	if err := json.Unmarshal(raw, &before); err != nil {
		t.Fatal(err)
	}
	if before.Partial {
		t.Fatal("healthy cluster answered partial")
	}

	backends[1].Close()
	resp, raw = postMatch(t, routed.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("one shard down: HTTP %d (want 200 partial): %s", resp.StatusCode, raw)
	}
	var partial MatchResponse
	if err := json.Unmarshal(raw, &partial); err != nil {
		t.Fatal(err)
	}
	if !partial.Partial || !reflect.DeepEqual(partial.ShardsFailed, []int{1}) {
		t.Fatalf("want partial with shards_failed=[1], got %+v", partial)
	}
	if partial.NumMatches > before.NumMatches {
		t.Fatalf("partial answer has more matches (%d) than the full one (%d)", partial.NumMatches, before.NumMatches)
	}

	// Stream over a dead shard: done line reports the failure.
	_, done := streamMatches(t, routed.URL, req)
	if !done.Partial || !reflect.DeepEqual(done.ShardsFailed, []int{1}) {
		t.Fatalf("stream: want partial done with shards_failed=[1], got %+v", done)
	}

	// A health poll marks the dead replica down and readiness follows.
	rt.pollHealth()
	hresp, err := http.Get(routed.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router readiness with a dead shard: HTTP %d (want 503)", hresp.StatusCode)
	}
	lresp, err := http.Get(routed.URL + "/healthz/live")
	if err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if lresp.StatusCode != http.StatusOK {
		t.Fatalf("router liveness: HTTP %d (want 200)", lresp.StatusCode)
	}
}

func TestRouterRequireAll(t *testing.T) {
	d := buildSynth(t)
	rt, backends := openCluster(t, d, 2, Options{RequireAll: true})
	routed := httptest.NewServer(rt.Handler())
	t.Cleanup(routed.Close)
	backends[0].Close()
	resp, raw := postMatch(t, routed.URL, map[string]any{"query": testQueries[0], "alpha": 0.05})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("-require-all with a dead shard: HTTP %d (want 502): %s", resp.StatusCode, raw)
	}
}

// TestRouterRejectsDisconnected checks the router-side 400: a disconnected
// query's matches would span linkage closures, which no shard can see.
func TestRouterRejectsDisconnected(t *testing.T) {
	d := buildSynth(t)
	rt, _ := openCluster(t, d, 2, Options{})
	routed := httptest.NewServer(rt.Handler())
	t.Cleanup(routed.Close)
	resp, raw := postMatch(t, routed.URL, map[string]any{"query": "node A l0\nnode B l1", "alpha": 0.05})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("disconnected query: HTTP %d (want 400): %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "disconnected") {
		t.Fatalf("error does not name the problem: %s", raw)
	}
}

// TestRouterRequestID checks the correlation-id contract: a supplied id is
// echoed, a missing one is minted.
func TestRouterRequestID(t *testing.T) {
	d := buildSynth(t)
	rt, _ := openCluster(t, d, 2, Options{})
	routed := httptest.NewServer(rt.Handler())
	t.Cleanup(routed.Close)

	body := []byte(`{"query":"node A l0\nnode B l1\nedge A B","alpha":0.05}`)
	req, _ := http.NewRequest(http.MethodPost, routed.URL+"/match", bytes.NewReader(body))
	req.Header.Set(server.RequestIDHeader, "test-correlation-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(server.RequestIDHeader); got != "test-correlation-42" {
		t.Fatalf("supplied request id not echoed: %q", got)
	}

	resp, err = http.Post(routed.URL+"/match", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(server.RequestIDHeader); len(got) != 16 {
		t.Fatalf("minted request id %q (want 16 hex digits)", got)
	}
}

// TestRouterMetrics scrapes the router's registry for the new families.
func TestRouterMetrics(t *testing.T) {
	d := buildSynth(t)
	rt, _ := openCluster(t, d, 2, Options{})
	routed := httptest.NewServer(rt.Handler())
	t.Cleanup(routed.Close)
	postMatch(t, routed.URL, map[string]any{"query": testQueries[0], "alpha": 0.05})
	resp, err := http.Get(routed.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	page := buf.String()
	for _, family := range []string{
		"peg_router_requests_total",
		"peg_router_request_duration_seconds",
		"peg_router_shard_requests_total",
		"peg_router_shard_latency_seconds",
		"peg_router_hedges_total",
		"peg_router_merge_candidates",
		"peg_router_shards",
		"peg_router_shard_healthy_replicas",
		"peg_router_shard_inflight",
	} {
		if !strings.Contains(page, family) {
			t.Fatalf("metrics page missing %s:\n%s", family, page)
		}
	}
	if !strings.Contains(page, `peg_router_requests_total{endpoint="match",outcome="ok"} 1`) {
		t.Fatalf("match request not counted ok:\n%s", page)
	}
}
