package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/lru"
)

func streamOnce(t *testing.T, url string) string {
	t.Helper()
	body, _ := json.Marshal(MatchRequest{Query: motivatingQueryDSL, Alpha: fixtures.MotivatingAlpha})
	resp, err := http.Post(url+"/match/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/match/stream status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	// Keep only the match lines: the done summary carries wall-clock
	// timings, which legitimately differ between runs (the CI smoke
	// applies the same jq filter before diffing).
	var matches []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, `{"match"`) {
			matches = append(matches, line)
		}
	}
	return strings.Join(matches, "\n")
}

// TestCandCacheServesRepeatShapes: the same query twice over the streaming
// endpoint (which bypasses the result cache) answers byte-identically, with
// the second evaluation served from the candidate cache — the serving-tier
// contract the CI smoke asserts through the real binary.
func TestCandCacheServesRepeatShapes(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 2})

	first := streamOnce(t, ts.URL)
	second := streamOnce(t, ts.URL)
	if first != second {
		t.Fatalf("cache-served stream differs:\n%s\nvs\n%s", first, second)
	}
	if !strings.Contains(first, `"match"`) {
		t.Fatalf("stream matched nothing: %s", first)
	}
	_, _, cst := s.cacheStats()
	if cst.Hits == 0 {
		t.Fatalf("no candidate-cache hits after a repeat shape: %+v", cst)
	}
	if cst.Misses == 0 || cst.Entries == 0 {
		t.Fatalf("cold run did not populate the cache: %+v", cst)
	}

	// The counters surface on /stats.
	resp, body := postJSON(t, ts.URL+"/stats", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats status %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.CandCacheHits != cst.Hits || st.CandCacheEntries == 0 {
		t.Fatalf("/stats cand-cache counters: %+v", st)
	}
}

// TestCandCacheDisabled: a negative CandCacheSize turns the cache off
// without touching the match path.
func TestCandCacheDisabled(t *testing.T) {
	s, ts := testServer(t, Options{CandCacheSize: -1})
	if streamOnce(t, ts.URL) != streamOnce(t, ts.URL) {
		t.Fatal("repeat stream differs with cache disabled")
	}
	if _, _, cst := s.cacheStats(); cst.Hits != 0 || cst.Misses != 0 || cst.Entries != 0 {
		t.Fatalf("disabled cache recorded activity: %+v", cst)
	}
}

// TestCandCacheStressLiveSwap: concurrent evaluations sharing the candidate
// cache race live ingest batches, each of which publishes a new
// generation — retiring the old candidate cache, whose counters are the
// server's — while dirty views bypass caching entirely. The assertions are
// (1) no request ever fails, (2) the final post-publish answer reflects the
// last write, and (3) the cache counters never go backwards.
func TestCandCacheStressLiveSwap(t *testing.T) {
	s, _, ts := liveServer(t)

	const (
		queryWorkers = 4
		queriesEach  = 25
		ingests      = 20
	)
	var wg sync.WaitGroup
	errs := make(chan error, queryWorkers*queriesEach+2*ingests)
	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queriesEach; i++ {
				body, _ := json.Marshal(MatchRequest{Query: motivatingQuerySrc, Alpha: fixtures.MotivatingAlpha})
				resp, err := http.Post(ts.URL+"/match", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("match status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev lru.Stats
		for i := 0; i < ingests; i++ {
			// Alternate the {r3,r4} linkage probability; every accepted batch
			// publishes a fresh generation (new candidate cache).
			p := 0.8
			if i%2 == 0 {
				p = 0.5
			}
			resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson",
				strings.NewReader(fmt.Sprintf(`{"op":"set-linkage","members":[2,3],"p":%v}`, p)))
			if err != nil {
				errs <- err
				continue
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("ingest status %d", resp.StatusCode)
			}
			resp.Body.Close()
			// Every swap gives the served generation a fresh cache; the
			// counters it reports are the server's and never go backwards.
			_, _, st := s.cacheStats()
			if st.Hits < prev.Hits || st.Misses < prev.Misses || st.Bypassed < prev.Bypassed {
				errs <- fmt.Errorf("cache counters went backwards across a swap: %+v then %+v", prev, st)
			}
			prev = st
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	_, _, cst := s.cacheStats()
	// Re-reading after the storm must never observe a counter reset.
	if _, _, again := s.cacheStats(); again.Hits < cst.Hits || again.Misses < cst.Misses {
		t.Fatalf("cache counters went backwards: %+v then %+v", cst, again)
	}
	// The final ingest set p=0.8 (i=19 odd): the original match probability
	// holds, and a fresh query must succeed against the last generation.
	r := matchOnce(t, ts.URL, fixtures.MotivatingAlpha)
	if r.NumMatches != 1 || abs(r.Matches[0].Pr-0.2025) > 1e-9 {
		t.Fatalf("post-stress match: %+v", r)
	}
}
