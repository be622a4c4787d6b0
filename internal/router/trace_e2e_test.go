package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/entity"
	"repro/internal/pathindex"
	"repro/internal/refgraph"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/trace"
)

// openTracedCluster is openCluster with span tracing on every tier: each
// shard server gets its own always-sampling tracer, and rig may rewrite the
// replica lists (prepending dead or slow replicas) before the router is
// built — the lowest-index replica of a shard is the primary pick, so a
// prepended bad replica deterministically forces failover or hedging.
func openTracedCluster(t *testing.T, d *refgraph.PGD, shards int, opt Options,
	rig func(replicas [][]string) [][]string) (*Router, []*trace.Tracer) {
	t.Helper()
	dir := t.TempDir()
	m, err := shard.Build(context.Background(), d, dir, shard.Options{
		Shards: shards,
		Index:  pathindex.Options{MaxLen: testMaxLen, Beta: 0.01, Gamma: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	tracers := make([]*trace.Tracer, shards)
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
		tracers[s] = trace.New(trace.Config{Service: fmt.Sprintf("shard-%d", s), Sample: 1})
		hs := httptest.NewServer(server.New(ix, server.Options{Workers: 2, Tracer: tracers[s]}).Handler())
		t.Cleanup(hs.Close)
		replicas[s] = []string{hs.URL}
	}
	if rig != nil {
		replicas = rig(replicas)
	}
	opt.Replicas = replicas
	if opt.HealthEvery == 0 {
		opt.HealthEvery = -1
	}
	rt, err := New(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, tracers
}

// deadReplicaURL returns a URL that refuses connections: a started-then-
// closed test server, so the port was really bound and is really dead.
func deadReplicaURL(t *testing.T) string {
	t.Helper()
	hs := httptest.NewServer(http.NotFoundHandler())
	hs.Close()
	return hs.URL
}

// collectTrace gathers one trace's spans across the router and every shard
// tracer, polling until cond holds on the union (late spans — the abandoned
// side of a hedge — land after the response).
func collectTrace(t *testing.T, id string, rt *Router, shardTracers []*trace.Tracer,
	cond func(spans []trace.SpanData) error) []trace.SpanData {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	var spans []trace.SpanData
	var err error
	for {
		spans = rt.opt.Tracer.Collect(id)
		for _, tr := range shardTracers {
			spans = append(spans, tr.Collect(id)...)
		}
		if err = cond(spans); err == nil {
			return spans
		}
		if time.Now().After(deadline) {
			for _, sp := range spans {
				t.Logf("span %s parent=%s service=%s name=%s attrs=%v", sp.SpanID, sp.ParentID, sp.Service, sp.Name, sp.Attrs)
			}
			t.Fatalf("trace %s never converged: %v", id, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func spansBy(spans []trace.SpanData, pred func(trace.SpanData) bool) []trace.SpanData {
	var out []trace.SpanData
	for _, sp := range spans {
		if pred(sp) {
			out = append(out, sp)
		}
	}
	return out
}

// TestTraceEndToEnd is the distributed-tracing property test: one traced
// /match through a 2-shard cluster rigged for both failure modes — shard 0's
// primary replica is dead (forced failover), shard 1's primary is slow
// (forced hedge) — yields a single trace id spanning the client's
// traceparent, the router root, every shard attempt with its cause, and the
// shard-side request + executor stage spans, with well-formed parent links.
func TestTraceEndToEnd(t *testing.T) {
	d := buildSynth(t)
	rtTracer := trace.New(trace.Config{Service: "pegrouter", Sample: 1})
	var slow *httptest.Server
	rt, shardTracers := openTracedCluster(t, d, 2, Options{
		Tracer:     rtTracer,
		HedgeAfter: 10 * time.Millisecond,
	}, func(replicas [][]string) [][]string {
		replicas[0] = append([]string{deadReplicaURL(t)}, replicas[0]...)
		// The slow primary outlives any plausible request: the hedge fires at
		// 10ms, the live replica answers, and the abandoned attempt's span
		// settles when the shard call context is canceled.
		slow = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-r.Context().Done():
			case <-time.After(2 * time.Second):
			}
		}))
		t.Cleanup(func() { slow.CloseClientConnections(); slow.Close() })
		replicas[1] = append([]string{slow.URL}, replicas[1]...)
		return replicas
	})
	routed := httptest.NewServer(rt.Handler())
	t.Cleanup(routed.Close)

	const tid = "0123456789abcdef0123456789abcdef"
	const clientSpan = "00f067aa0ba902b7"
	body, _ := json.Marshal(map[string]any{"query": testQueries[0], "alpha": 0.05})
	req, err := http.NewRequest(http.MethodPost, routed.URL+"/match", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.Header, "00-"+tid+"-"+clientSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out MatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.Partial {
		t.Fatalf("rigged cluster should still answer fully: HTTP %d partial=%v", resp.StatusCode, out.Partial)
	}

	spans := collectTrace(t, tid, rt, shardTracers, func(spans []trace.SpanData) error {
		want := map[string]int{"primary": 0, "failover": 0, "hedge": 0}
		settled := 0
		for _, sp := range spans {
			if sp.Name == "shard.attempt" {
				want[sp.Attrs["cause"]]++
				if sp.Attrs["outcome"] != "" {
					settled++
				}
			}
		}
		// Two primaries (one per shard), shard 0's failover, shard 1's hedge —
		// all four settled, including the abandoned slow primary.
		if want["primary"] != 2 || want["failover"] != 1 || want["hedge"] != 1 || settled != 4 {
			return fmt.Errorf("attempt causes %v, %d settled", want, settled)
		}
		return nil
	})

	byID := map[string]trace.SpanData{}
	for _, sp := range spans {
		if sp.TraceID != tid {
			t.Fatalf("span %s carries trace %s, want %s", sp.Name, sp.TraceID, tid)
		}
		byID[sp.SpanID] = sp
	}
	roots := spansBy(spans, func(sp trace.SpanData) bool { return sp.Name == "router.match" })
	if len(roots) != 1 || roots[0].ParentID != clientSpan || roots[0].Service != "pegrouter" {
		t.Fatalf("want one router.match root parented to the client span, got %+v", roots)
	}
	root := roots[0]

	attempts := map[string]trace.SpanData{}
	for _, sp := range spansBy(spans, func(sp trace.SpanData) bool { return sp.Name == "shard.attempt" }) {
		if sp.ParentID != root.SpanID {
			t.Fatalf("attempt span %v not parented to the router root", sp.Attrs)
		}
		attempts[sp.SpanID] = sp
	}

	serves := spansBy(spans, func(sp trace.SpanData) bool { return sp.Name == "serve.match" })
	if len(serves) != 2 {
		t.Fatalf("want one serve.match per shard, got %d", len(serves))
	}
	for _, sp := range serves {
		parent, ok := attempts[sp.ParentID]
		if !ok {
			t.Fatalf("serve.match on %s parented to %s, not a router attempt", sp.Service, sp.ParentID)
		}
		if parent.Attrs["outcome"] != "ok" {
			t.Fatalf("serve.match descends from a non-ok attempt: %v", parent.Attrs)
		}
	}

	// Executor stage spans sit inside their shard's request span, both by
	// parent link and by timeline.
	stages := spansBy(spans, func(sp trace.SpanData) bool { return strings.HasPrefix(sp.Name, "stage.") })
	if len(stages) == 0 {
		t.Fatal("no executor stage spans recorded")
	}
	const slopNano = int64(2e6)
	for _, sg := range stages {
		req, ok := byID[sg.ParentID]
		if !ok || req.Name != "serve.match" {
			t.Fatalf("stage span %s parented to %q, want its serve.match", sg.Name, req.Name)
		}
		if sg.StartNano < req.StartNano-slopNano ||
			sg.StartNano+int64(sg.Micros*1e3) > req.StartNano+int64(req.Micros*1e3)+slopNano {
			t.Fatalf("stage %s [%d +%.0fµs] outside request span [%d +%.0fµs]",
				sg.Name, sg.StartNano, sg.Micros, req.StartNano, req.Micros)
		}
	}

	// Every parent link resolves inside the collected union except the
	// client's own span, which no process recorded.
	for _, sp := range spans {
		if sp.ParentID == "" || sp.ParentID == clientSpan {
			continue
		}
		if _, ok := byID[sp.ParentID]; !ok {
			t.Fatalf("span %s/%s has dangling parent %s", sp.Service, sp.Name, sp.ParentID)
		}
	}

	// GET /debug/trace/{id} on the router serves its half of the waterfall.
	dresp, err := http.Get(routed.URL + "/debug/trace/" + tid)
	if err != nil {
		t.Fatal(err)
	}
	var tr server.TraceResponse
	if err := json.NewDecoder(dresp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || tr.TraceID != tid || len(tr.Spans) < 5 {
		t.Fatalf("debug/trace: HTTP %d, %d spans for %q", dresp.StatusCode, len(tr.Spans), tr.TraceID)
	}

	// The root carries the request's shape and terminal state; a full
	// answer is not partial.
	if a := root.Attrs; a["outcome"] != "ok" || a["query"] != testQueries[0] || a["alpha"] != "0.05" ||
		a["matches"] != fmt.Sprint(out.NumMatches) || a["partial"] != "" || a["shards_failed"] != "" {
		t.Fatalf("router.match root attrs %v", a)
	}
}

// TestTraceStreamEndToEnd covers the streaming path: a traced /match/stream
// with shard 0's primary replica dead still carries one trace id across the
// router root, the failover attempt, and the shard-side stream spans.
func TestTraceStreamEndToEnd(t *testing.T) {
	d := buildSynth(t)
	rtTracer := trace.New(trace.Config{Service: "pegrouter", Sample: 1})
	rt, shardTracers := openTracedCluster(t, d, 2, Options{Tracer: rtTracer},
		func(replicas [][]string) [][]string {
			replicas[0] = append([]string{deadReplicaURL(t)}, replicas[0]...)
			return replicas
		})
	routed := httptest.NewServer(rt.Handler())
	t.Cleanup(routed.Close)

	const tid = "aaaabbbbccccdddd0000111122223333"
	const clientSpan = "0102030405060708"
	body, _ := json.Marshal(map[string]any{"query": testQueries[0], "alpha": 0.05})
	req, err := http.NewRequest(http.MethodPost, routed.URL+"/match/stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.Header, "00-"+tid+"-"+clientSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("stream line: %v", err)
		}
		if ev.Error != "" {
			t.Fatalf("stream error: %s", ev.Error)
		}
		if ev.Done != nil {
			sawDone = true
			if ev.Done.Partial {
				t.Fatalf("failover should prevent a partial answer: %+v", ev.Done)
			}
		}
	}
	resp.Body.Close()
	if !sawDone {
		t.Fatal("stream ended without a done line")
	}

	spans := collectTrace(t, tid, rt, shardTracers, func(spans []trace.SpanData) error {
		names := map[string]int{}
		for _, sp := range spans {
			names[sp.Name]++
		}
		if names["router.stream"] != 1 || names["shard.stream"] != 2 || names["serve.stream"] != 2 {
			return fmt.Errorf("span census %v", names)
		}
		return nil
	})
	byID := map[string]trace.SpanData{}
	for _, sp := range spans {
		if sp.TraceID != tid {
			t.Fatalf("span %s carries trace %s, want %s", sp.Name, sp.TraceID, tid)
		}
		byID[sp.SpanID] = sp
	}
	var root trace.SpanData
	causes := map[string]int{}
	for _, sp := range spans {
		switch sp.Name {
		case "router.stream":
			root = sp
		case "shard.attempt":
			causes[sp.Attrs["cause"]]++
			if sp.Attrs["cause"] == "failover" && sp.Attrs["outcome"] != "ok" {
				t.Fatalf("failover attempt did not succeed: %v", sp.Attrs)
			}
		}
	}
	if root.ParentID != clientSpan {
		t.Fatalf("stream root parented to %s, want client span %s", root.ParentID, clientSpan)
	}
	if causes["primary"] != 2 || causes["failover"] != 1 {
		t.Fatalf("attempt causes %v, want 2 primaries and 1 failover", causes)
	}
	for _, sp := range spans {
		if sp.Name != "shard.stream" {
			continue
		}
		if sp.ParentID != root.SpanID {
			t.Fatalf("shard.stream parented to %s, want the stream root", sp.ParentID)
		}
	}
	for _, sp := range spans {
		if sp.Name == "serve.stream" {
			parent, ok := byID[sp.ParentID]
			if !ok || parent.Name != "shard.attempt" {
				t.Fatalf("serve.stream on %s parented to %q, want a shard.attempt", sp.Service, parent.Name)
			}
		}
	}
}
