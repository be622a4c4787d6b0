package main

import (
	"context"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		got  float64
	}{
		{2000, 0.99, 0.99},        // 20 samples beyond p99: supported
		{1000, 0.99, 0.99},        // exactly 10 beyond
		{120, 0.99, 1 - 10.0/120}, // only p91.7 has 10 samples beyond it
		{120, 0.95, 1 - 10.0/120},
		{400, 0.95, 0.95},
		{12, 0.99, 0.5}, // never below the median
		{0, 0.99, 0.5},
	} {
		if got := supportedPercentile(c.n, c.want); math.Abs(got-c.got) > 1e-12 {
			t.Errorf("supportedPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.got)
		}
	}
	xs := make([]float64, 120)
	for i := range xs {
		xs[i] = float64(i)
	}
	v, p := tail(xs, 0.99)
	if beyond := 119 - int(math.Ceil(v)); beyond < tailSamples-1 || p >= 0.95 {
		t.Errorf("tail(0..119, 0.99) = %v at p%v: fewer than %d samples beyond it", v, p*100, tailSamples)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	q1, q3, ok := quartiles(xs)
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v, %v; want 2.75, 8.25", q1, q3, ok)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	q1, q3, _ = quartiles([]float64{1, 2, 4, 8})
	if q1 != 1.25 || q3 != 7 {
		t.Fatalf("quartiles = %v, %v; want 1.25, 7", q1, q3)
	}
	if _, _, ok := quartiles([]float64{1, 2, 3}); ok {
		t.Fatal("quartiles of three values must not be reported")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, s := range specs {
		if !s.serve() {
			continue
		}
		a, b := readSchedule(s, 1, 7, 500, s.poolSize), readSchedule(s, 1, 7, 500, s.poolSize)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different read schedules", s.name)
		}
		c := readSchedule(s, 1, 8, 500, s.poolSize)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same order", s.name)
		}
		// The seed orders the reads; which reads they are is pinned.
		count := func(sched []request) map[request]int {
			m := make(map[request]int)
			for _, r := range sched {
				r.due = 0
				m[r]++
			}
			return m
		}
		if !reflect.DeepEqual(count(a), count(c)) {
			t.Errorf("%s: different seeds gave different reads", s.name)
		}
		for i := 1; i < len(a); i++ {
			if a[i].due <= a[i-1].due {
				t.Fatalf("%s: schedule is not strictly increasing at %d", s.name, i)
			}
		}
		// The ranking is shuffled but pinned: the hottest text is not the
		// first one generated, and it is the same under other draws.
		hottest := func(sched []request) int {
			counts := make(map[int]int)
			best := 0
			for _, r := range sched {
				if counts[r.query]++; counts[r.query] > counts[best] {
					best = r.query
				}
			}
			return best
		}
		if h7, h8 := hottest(a), hottest(readSchedule(s, 2, 8, 500, s.poolSize)); h7 == 0 || h7 != h8 {
			t.Errorf("%s: hottest query is %d under seed 7 and %d under seed 8, want one shuffled rank 0", s.name, h7, h8)
		}
	}
	s := specByName("serve-ingest")
	_, a, err := writeSchedule(s, 7, 20, 1000)
	if err != nil {
		t.Fatal(err)
	}
	_, b, _ := writeSchedule(s, 7, 20, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different ingest batches")
	}
}

func TestPoolIsPinned(t *testing.T) {
	ctx := context.Background()
	s := specByName("lib-cyclic-first").smoke(300)
	d, err := s.corpus()
	if err != nil {
		t.Fatal(err)
	}
	sy, err := setUp(ctx, s, d, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sy.close()
	a, err := buildPool(ctx, s, sy.reader())
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildPool(ctx, s, sy.reader())
	if err != nil {
		t.Fatal(err)
	}
	if a.fingerprint() != b.fingerprint() || len(a.queries) != s.poolSize {
		t.Fatalf("pool fingerprints %v and %v over %d queries, want equal over %d", a.fingerprint(), b.fingerprint(), len(a.queries), s.poolSize)
	}
	if f := a.fingerprint(); f != math.Trunc(f) || f >= 1<<48 {
		t.Fatalf("fingerprint %v does not survive a JSON number", f)
	}
}

// schedule returns n requests spaced gap apart.
func schedule(n int, gap time.Duration) []request {
	sched := make([]request, n)
	for i := range sched {
		sched[i] = request{due: time.Duration(i) * gap, query: i}
	}
	return sched
}

func keepNone(int) bool { return false }

func TestOpenLoopIssuesEverything(t *testing.T) {
	var calls atomic.Int64
	sched := schedule(200, 100*time.Microsecond)
	out := openLoop(time.Now(), sched, 3, func(int, request) reply {
		calls.Add(1)
		time.Sleep(300 * time.Microsecond) // slower than the offered rate: a backlog builds
		return reply{status: http.StatusOK}
	}, keepNone)
	issued := 0
	for i, o := range out {
		if o.issued {
			issued++
		}
		if o.req.query != i || o.sent < o.req.due {
			t.Fatalf("request %d: recorded as query %d, sent %v before due %v", i, o.req.query, o.sent, o.req.due)
		}
	}
	if issued != len(sched) || int(calls.Load()) != len(sched) {
		t.Fatalf("issued %d and called %d of %d offered", issued, calls.Load(), len(sched))
	}
}

// A stall in the server must show in the latency of the requests that were
// due during it, not only in the one that hit it: latency runs from the
// intended send time.
func TestStallDelaysLaterRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte("{}\n"))
	}))
	defer srv.Close()
	cl := newClient(srv.URL)
	defer cl.close()

	sched := schedule(6, 10*time.Millisecond)
	out := openLoop(time.Now(), sched, 1, func(_ int, r request) reply { return cl.post("/", []byte("{}")) }, keepNone)
	for i, o := range out {
		if o.failed() {
			t.Fatalf("request %d failed: %+v", i, o.reply)
		}
		// Request i was due i*10ms into a 200ms stall on the only
		// connection: it cannot have finished before the stall ended.
		if min := stall - o.req.due; o.latency() < min {
			t.Errorf("request %d: latency %v hides the stall (want at least %v)", i, o.latency(), min)
		}
		if i > 0 && o.sent-o.req.due < stall-o.req.due-20*time.Millisecond {
			t.Errorf("request %d: send lag %v does not show the wait for the connection", i, o.sent-o.req.due)
		}
	}
}

func TestTransportErrorsAreFailures(t *testing.T) {
	// Refused: nothing listens on the port any more.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	refused := newClient("http://" + addr)
	defer refused.close()

	// Reset: the server drops the connection without answering.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	defer srv.Close()
	reset := newClient(srv.URL)
	defer reset.close()

	// Shed: an answer, but not a 2xx.
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "saturated", http.StatusServiceUnavailable)
	}))
	defer busy.Close()
	shed := newClient(busy.URL)
	defer shed.close()

	for name, cl := range map[string]*client{"refused": refused, "reset": reset, "shed": shed} {
		out := openLoop(time.Now(), schedule(3, time.Millisecond), 1, func(_ int, r request) reply { return cl.post("/match", []byte("{}")) }, keepNone)
		for i, o := range out {
			if !o.issued || !o.failed() {
				t.Errorf("%s: request %d issued=%v failed=%v, want an issued failure (reply %+v)", name, i, o.issued, o.failed(), o.reply)
			}
		}
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "query", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "candidates.find", Start: 10, End: 60},
		{ID: 2, Parent: 1, Name: "pathindex.lookup", Start: 10, End: 40}, // two lookups side by side
		{ID: 3, Parent: 1, Name: "pathindex.lookup", Start: 20, End: 50},
		{ID: 4, Parent: 0, Name: "join.enumerate", Start: 60, End: 90},
	}
	self := selfTimes(spans)
	if self[0] != 20 || self[1] != 10 || self[4] != 30 {
		t.Fatalf("self times %v: want query 20, find 10 (50 minus the 40 its lookups cover together), enumerate 30", self)
	}
	layers := layerSelf(spans)
	var total int64
	for _, v := range layers {
		total += v
	}
	if total != 100 || layers["pathindex"] != 40 || layers["candidates"] != 10 {
		t.Fatalf("layer attribution %v sums to %d: want the root's 100, pathindex 40, candidates 10", layers, total)
	}
}
