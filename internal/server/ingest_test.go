package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/live"
	"repro/internal/pathindex"
)

// liveServer builds a live database over the motivating example and a
// server wired to it both ways (ingest → Apply, publish → swap).
func liveServer(t testing.TB) (*Server, *live.DB, *httptest.Server) {
	t.Helper()
	db, err := live.Create(context.Background(), t.TempDir(), fixtures.MotivatingPGD(), live.Options{
		Index:        pathindex.Options{MaxLen: 2, Beta: 0.02, Gamma: 0.1},
		CompactEvery: -1, CompactDirtyFrac: -1,
	})
	if err != nil {
		t.Fatalf("live.Create: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	s := New(db.View(), Options{Workers: 2})
	s.SetLive(db)
	db.SetPublisher(s)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, db, ts
}

const motivatingQuerySrc = "node X r\nnode Y a\nnode Z i\nedge X Y\nedge Y Z"

func matchOnce(t *testing.T, url string, alpha float64) MatchResponse {
	t.Helper()
	body, _ := json.Marshal(MatchRequest{Query: motivatingQuerySrc, Alpha: alpha})
	resp, err := http.Post(url+"/match", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /match: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/match status %d", resp.StatusCode)
	}
	var r MatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return r
}

func ingest(t *testing.T, url, body string) (*http.Response, live.ApplyResult) {
	t.Helper()
	resp, err := http.Post(url+"/ingest", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	defer resp.Body.Close()
	var r live.ApplyResult
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatalf("decode ingest response: %v", err)
		}
	}
	return resp, r
}

// TestIngestShiftsMatchProbability drives the paper's Section 2 example
// through the write path: updating the {r3,r4} merge probability from 0.8
// to 0.5 must change the (r,a,i) match set exactly as Eq. 11 predicts, with
// the stale cached answer invalidated by the published generation.
func TestIngestShiftsMatchProbability(t *testing.T) {
	_, _, ts := liveServer(t)

	r := matchOnce(t, ts.URL, fixtures.MotivatingAlpha)
	if r.NumMatches != 1 || abs(r.Matches[0].Pr-0.2025) > 1e-9 {
		t.Fatalf("before ingest: %+v", r)
	}
	if r = matchOnce(t, ts.URL, fixtures.MotivatingAlpha); !r.Cached {
		t.Fatal("second identical query was not served from cache")
	}

	resp, ar := ingest(t, ts.URL, `{"op":"set-linkage","members":[2,3],"p":0.5}`)
	if resp.StatusCode != http.StatusOK || ar.Applied != 1 {
		t.Fatalf("ingest: status %d result %+v", resp.StatusCode, ar)
	}
	if len(ar.Sets) != 1 {
		t.Fatalf("ingest did not report the updated set: %+v", ar)
	}

	// Weakening the linkage evidence re-ranks the answers: the merged-world
	// match (s34,s2,s1) drops to 0.2025/0.8·0.5 ≈ 0.127 while the unmerged
	// worlds rise on the 0.5 non-merge factor.
	r = matchOnce(t, ts.URL, fixtures.MotivatingAlpha)
	if r.Cached {
		t.Fatal("query after ingest hit the stale cache")
	}
	if r.NumMatches != 2 {
		t.Fatalf("after ingest: %d matches, want 2 (%+v)", r.NumMatches, r.Matches)
	}
	want := map[float64]bool{0.25: false, 0.3375: false}
	for _, m := range r.Matches {
		for p := range want {
			if abs(m.Pr-p) < 1e-9 {
				want[p] = true
			}
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("after ingest: match with Pr=%v missing (%+v)", p, r.Matches)
		}
	}
}

// TestIngestBatchNDJSON streams several mutations in one request and checks
// they land atomically: new references, a connecting edge, and linkage
// evidence, visible to /healthz immediately.
func TestIngestBatchNDJSON(t *testing.T) {
	_, db, ts := liveServer(t)
	before := db.Graph().NumNodes()

	batch := `{"op":"add-ref","labels":[{"label":"r","p":1}]}
{"op":"add-ref","labels":[{"label":"a","p":0.5},{"label":"i","p":0.5}]}
{"op":"add-edge","a":4,"b":5,"p":0.7}
{"op":"set-linkage","members":[0,4],"p":0.6}`
	resp, ar := ingest(t, ts.URL, batch)
	if resp.StatusCode != http.StatusOK || ar.Applied != 4 {
		t.Fatalf("batch ingest: status %d result %+v", resp.StatusCode, ar)
	}
	if len(ar.Refs) != 2 || ar.Refs[0] != 4 || ar.Refs[1] != 5 {
		t.Fatalf("assigned refs %v, want [4 5]", ar.Refs)
	}
	// 2 singleton entities + 1 set entity appended.
	if got := db.Graph().NumNodes(); got != before+3 {
		t.Fatalf("graph has %d nodes, want %d", got, before+3)
	}

	// A malformed batch must change nothing.
	resp, _ = ingest(t, ts.URL, `{"op":"add-edge","a":0,"b":99,"p":0.5}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid ingest: status %d, want 400", resp.StatusCode)
	}
	if got := db.Graph().NumNodes(); got != before+3 {
		t.Fatalf("rejected batch mutated the graph (%d nodes)", got)
	}
}

// TestIngestDisabled: a read-only server answers 501 so clients can tell
// configuration from transient failure.
func TestIngestDisabled(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	resp, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(`{"op":"add-edge","a":0,"b":1,"p":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501", resp.StatusCode)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// FuzzIngest posts arbitrary bodies to /ingest as NDJSON, on a live
// database whose compaction is off. No body may panic the server or draw a
// 5xx; a rejected batch applies nothing, and an accepted one applies
// exactly the mutations its body holds.
func FuzzIngest(f *testing.F) {
	for _, body := range []string{
		`{"op":"add-edge","a":0,"b":2,"p":0.5}`,
		`{"op":"set-linkage","members":[2,3],"p":0.5}` + "\n" + `{"op":"add-ref","labels":[{"label":"a","p":1}]}`,
		`{"op":"add-edge","a":0,"b":1,"p":0.5,"cpt":[0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5]}`,
		`{"op":"add-edge","a":0,"b":99,"p":0.5}`,
		`{"op":"add-ref","labels":[{"label":"zz","p":1}]}`,
		`{"op":"set-linkage","members":[1],"p":2}`,
		`{"op":"drop"}`, `null`, `[]`, `{`, ``,
	} {
		f.Add([]byte(body))
	}
	s, db, _ := liveServer(f)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		before := db.Status().Mutations
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/x-ndjson")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		applied := db.Status().Mutations - before
		if rec.Code >= 500 {
			t.Fatalf("%q: status %d: %s", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			if applied != 0 {
				t.Fatalf("%q: status %d, yet %d mutations applied", body, rec.Code, applied)
			}
			return
		}
		var res live.ApplyResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("%q: decode the answer: %v", body, err)
		}
		n := 0
		for dec := json.NewDecoder(bytes.NewReader(body)); ; n++ {
			var m live.Mutation
			if err := dec.Decode(&m); err != nil {
				break
			}
		}
		if res.Applied != n || applied != uint64(n) {
			t.Fatalf("%q: %d mutations, applied %d, Mutations moved by %d", body, n, res.Applied, applied)
		}
	})
}
