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

// streamOnce streams the motivating query and returns its match lines and
// whether its done line reports a cached plan.
func streamOnce(t *testing.T, url string) (string, bool) {
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
	var done *StreamDone
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, `{"match"`) {
			matches = append(matches, line)
		} else if strings.HasPrefix(line, `{"done"`) {
			var ev StreamEvent
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatal(err)
			}
			done = ev.Done
		}
	}
	if done == nil {
		t.Fatalf("stream has no done line: %s", buf.String())
	}
	return strings.Join(matches, "\n"), done.PlanCached
}

// TestCandCacheServesRepeatShapes: the same query twice over the streaming
// endpoint (which bypasses the result cache) answers byte-identically, and
// the second evaluation reuses the first one's plan — the serving-tier
// contract the CI smoke asserts through the real binary.
func TestCandCacheServesRepeatShapes(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2})

	first, cached := streamOnce(t, ts.URL)
	if cached {
		t.Fatal("the first stream reports a cached plan")
	}
	second, cached := streamOnce(t, ts.URL)
	if first != second {
		t.Fatalf("repeat stream differs:\n%s\nvs\n%s", first, second)
	}
	if !strings.Contains(first, `"match"`) {
		t.Fatalf("stream matched nothing: %s", first)
	}
	if !cached {
		t.Fatal("the repeat stream did not reuse the cached plan")
	}
}

// TestResultCacheStressLiveSwap: concurrent /match requests sharing the
// result and plan caches race live ingest batches, each of which publishes
// a new generation — retiring the old caches, whose counters are the
// server's. The assertions are (1) no request ever fails, (2) the cache
// counters never go backwards, and (3) the final post-publish answer
// reflects the last write.
func TestResultCacheStressLiveSwap(t *testing.T) {
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
	backwards := func(prev, cur lru.Stats) bool { return cur.Hits < prev.Hits || cur.Misses < prev.Misses }
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prevR, prevP lru.Stats
		for i := 0; i < ingests; i++ {
			// Alternate the {r3,r4} linkage probability; every accepted batch
			// publishes a fresh generation (new result and plan caches).
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
			// Every swap gives the served generation fresh caches; the
			// counters they report are the server's and never go backwards.
			r, pl := s.cacheStats()
			if backwards(prevR, r) || backwards(prevP, pl) {
				errs <- fmt.Errorf("cache counters went backwards across a swap: result %+v then %+v, plan %+v then %+v", prevR, r, prevP, pl)
			}
			prevR, prevP = r, pl
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	r, pl := s.cacheStats()
	// Re-reading after the storm must never observe a counter reset.
	if r2, pl2 := s.cacheStats(); backwards(r, r2) || backwards(pl, pl2) {
		t.Fatalf("cache counters went backwards: result %+v then %+v, plan %+v then %+v", r, r2, pl, pl2)
	}
	// The final ingest set p=0.8 (i=19 odd): the original match probability
	// holds, and a fresh query must succeed against the last generation.
	res := matchOnce(t, ts.URL, fixtures.MotivatingAlpha)
	if res.NumMatches != 1 || abs(res.Matches[0].Pr-0.2025) > 1e-9 {
		t.Fatalf("post-stress match: %+v", res)
	}
}
