package router

import (
	"bufio"
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/trace"
)

// StreamDone is the terminal NDJSON line of a routed /match/stream: the
// single-node done summary (stats summed across shards) plus the
// partial-failure report.
type StreamDone struct {
	server.StreamDone
	Partial      bool  `json:"partial,omitempty"`
	ShardsFailed []int `json:"shards_failed,omitempty"`
}

// streamEvent mirrors server.StreamEvent with the router's done type.
type streamEvent struct {
	Match *server.MatchEntry `json:"match,omitempty"`
	Done  *StreamDone        `json:"done,omitempty"`
	Error string             `json:"error,omitempty"`
}

// shardStream is one shard's live /match/stream: resp feeds pump, which
// fills out and records the terminal done line or error.
type shardStream struct {
	s    int
	resp *http.Response
	ch   chan server.MatchEntry // per-shard channel (probability merge only)
	done *server.StreamDone
	err  error
}

// openShardStream starts one shard's /match/stream with pre-first-byte
// failover: a replica that fails before producing any line is retried on the
// next untried replica. Once a line has been forwarded the stream cannot be
// restarted (a retry would replay matches), so later failures surface as the
// stream's error instead.
func (r *Router) openShardStream(ctx context.Context, s int, body []byte, reqID string) (*http.Response, error) {
	tried := make(map[*replica]bool)
	var lastErr error
	cause := "primary"
	for {
		rep := r.pick(s, tried)
		if rep == nil {
			if lastErr == nil {
				lastErr = &shardError{msg: fmt.Sprintf("shard %d: no replicas", s)}
			}
			return nil, lastErr
		}
		tried[rep] = true
		// The attempt span covers open-to-first-byte: the stream body's
		// lifetime is the pump's "shard.stream" span.
		asp := r.startAttempt(ctx, "shard.attempt", s, rep, cause)
		cause = "failover"
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/match/stream", bytes.NewReader(body))
		if err != nil {
			e := &shardError{msg: err.Error()}
			endAttempt(asp, "error", e)
			return nil, e
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(server.RequestIDHeader, reqID)
		propagate(ctx, asp, req.Header)
		resp, err := r.client.Do(req)
		shardLabel := fmt.Sprint(s)
		if err != nil {
			r.met.shardRequests.WithLabelValues(shardLabel, "error").Inc()
			lastErr = &shardError{msg: fmt.Sprintf("shard %d: %v", s, err)}
			endAttempt(asp, "error", lastErr)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			r.met.shardRequests.WithLabelValues(shardLabel, fmt.Sprint(resp.StatusCode)).Inc()
			var je struct {
				Error string `json:"error"`
			}
			msg := fmt.Sprintf("shard %d: HTTP %d", s, resp.StatusCode)
			if b, rerr := readSmall(resp); rerr == nil && json.Unmarshal(b, &je) == nil && je.Error != "" {
				msg = fmt.Sprintf("shard %d: %s", s, je.Error)
			}
			resp.Body.Close()
			se := &shardError{status: resp.StatusCode, msg: msg}
			endAttempt(asp, fmt.Sprint(se.status), se)
			if se.status >= 400 && se.status < 500 {
				return nil, se // the request's own fault; no replica will differ
			}
			lastErr = se
			continue
		}
		r.met.shardRequests.WithLabelValues(shardLabel, "ok").Inc()
		endAttempt(asp, "ok", nil)
		return resp, nil
	}
}

func readSmall(resp *http.Response) ([]byte, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(http.MaxBytesReader(nil, resp.Body, 1<<20))
	return buf.Bytes(), err
}

// pump decodes one shard's stream, translating each match into global ids
// and forwarding it on out (without closing it; the caller owns out's
// lifecycle). The bounded out channel is the backpressure path: when the
// client reads slowly the merge loop stops draining, the channel fills,
// this goroutine blocks, and the shard's HTTP response stalls — no
// unbounded buffering anywhere.
func (r *Router) pump(ctx context.Context, ss *shardStream, out chan<- server.MatchEntry) {
	defer ss.resp.Body.Close()
	if r.opt.Tracer != nil && trace.SpanFromContext(ctx).Sampled() {
		pstart := time.Now()
		defer func() {
			attrs := map[string]string{"shard": strconv.Itoa(ss.s)}
			if ss.err != nil {
				attrs["error"] = ss.err.Error()
			}
			r.opt.Tracer.RecordSpan(ctx, "shard.stream", pstart, time.Since(pstart), attrs)
		}()
	}
	sc := bufio.NewScanner(ss.resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var ev server.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			ss.err = fmt.Errorf("shard %d: malformed stream line: %v", ss.s, err)
			return
		}
		switch {
		case ev.Match != nil:
			if err := r.translate(ss.s, ev.Match); err != nil {
				ss.err = err
				return
			}
			select {
			case out <- *ev.Match:
			case <-ctx.Done():
				ss.err = ctx.Err()
				return
			}
		case ev.Done != nil:
			ss.done = ev.Done
			return
		case ev.Error != "":
			ss.err = fmt.Errorf("shard %d: %s", ss.s, ev.Error)
			return
		}
	}
	// Abnormal end: a canceled merge (limit reached) or a shard that died
	// mid-stream without a done line.
	if err := ctx.Err(); err != nil {
		ss.err = err
		return
	}
	if err := sc.Err(); err != nil {
		ss.err = fmt.Errorf("shard %d: %w", ss.s, err)
		return
	}
	ss.err = fmt.Errorf("shard %d: stream ended without a done line", ss.s)
}

// handleMatchStream scatters one streaming match to every shard and merges
// the NDJSON feeds: emission order interleaves lines as shards produce them
// (lowest first-line latency, arrival order deliberately nondeterministic);
// probability order runs a bounded k-way heap merge over the per-shard
// sorted streams, which is exact because each shard stream is sorted under
// the same total order and the id translation is monotone.
func (r *Router) handleMatchStream(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	rctx, st := r.startRequest(w, req, "stream", "router.stream")
	mr, body, err := r.parseRequest(req, w)
	if err != nil {
		r.settle(st, "failed", err, 0, nil)
		writeShardError(w, err)
		return
	}
	st.mr = mr
	_, orderName, _ := server.ParseOrder(mr.Order)

	ctx, cancel := context.WithTimeout(rctx, r.opt.ShardTimeout)
	defer cancel()

	// Open every shard stream before the first byte goes out, so an
	// opening-time failure can still answer with a real HTTP status.
	n := r.manifest.Shards
	streams := make([]*shardStream, n)
	var openFailed []int
	var openErrs []error
	var wg sync.WaitGroup
	var mu sync.Mutex
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ss := &shardStream{s: s}
			resp, err := r.openShardStream(ctx, s, body, st.reqID)
			if err != nil {
				ss.err = err
				mu.Lock()
				openFailed = append(openFailed, s)
				openErrs = append(openErrs, err)
				mu.Unlock()
			} else {
				ss.resp = resp
			}
			streams[s] = ss
		}(s)
	}
	wg.Wait()
	sort.Ints(openFailed)
	if len(openFailed) > 0 {
		if fe := r.failNow(openFailed, openErrs); fe != nil {
			for _, ss := range streams {
				if ss.resp != nil {
					ss.resp.Body.Close()
				}
			}
			r.settle(st, "failed", fe, 0, openFailed)
			writeShardError(w, fe)
			return
		}
	}
	live := make([]*shardStream, 0, n)
	for _, ss := range streams {
		if ss.resp != nil {
			live = append(live, ss)
		}
	}

	// Bound every event write by the stream deadline, mirroring the shard
	// handler: a client that stops reading fails its writes instead of
	// pinning the handler and all shard connections.
	if dl, ok := ctx.Deadline(); ok {
		_ = http.NewResponseController(w).SetWriteDeadline(dl)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emitted := 0
	clientGone := false
	emit := func(e *server.MatchEntry) bool {
		if err := enc.Encode(&streamEvent{Match: e}); err != nil {
			clientGone = true
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		emitted++
		return mr.Limit <= 0 || emitted < mr.Limit
	}

	// Start the pumps and merge. Both merges stop early when emit returns
	// false (limit reached or client gone); cancel then unblocks every pump
	// and the drain loop below retires them.
	var pumps sync.WaitGroup
	stopped := false
	if orderName == "prob" {
		for _, ss := range live {
			ss.ch = make(chan server.MatchEntry, 16)
			pumps.Add(1)
			go func(ss *shardStream) {
				defer pumps.Done()
				defer close(ss.ch)
				r.pump(ctx, ss, ss.ch)
			}(ss)
		}
		stopped = mergeProb(live, emit)
		if stopped {
			cancel()
		}
		for _, ss := range live {
			for range ss.ch {
			}
		}
	} else {
		merged := make(chan server.MatchEntry, 64)
		for _, ss := range live {
			pumps.Add(1)
			go func(ss *shardStream) {
				defer pumps.Done()
				r.pump(ctx, ss, merged)
			}(ss)
		}
		go func() { pumps.Wait(); close(merged) }()
		for e := range merged {
			if !emit(&e) {
				stopped = true
				cancel()
				break
			}
		}
		for range merged {
		}
	}
	pumps.Wait()
	limitCut := stopped && !clientGone
	if clientGone {
		r.settle(st, "canceled", nil, emitted, nil)
		return
	}

	// Settle: every pump has returned, so done/err are stable.
	done := &StreamDone{}
	done.NumMatches = emitted
	done.Truncated = limitCut
	haveStats := false
	stats := &server.MatchStats{}
	for _, ss := range streams {
		switch {
		case ss.done != nil:
			done.Alpha, done.Strategy = ss.done.Alpha, ss.done.Strategy
			done.Truncated = done.Truncated || ss.done.Truncated
			if ss.done.Stats != nil {
				addStats(stats, ss.done.Stats)
				haveStats = true
			}
		case limitCut && errors.Is(ss.err, context.Canceled):
			// The router's own limit cancellation, not a shard failure.
		default:
			done.ShardsFailed = append(done.ShardsFailed, ss.s)
		}
	}
	sort.Ints(done.ShardsFailed)
	if haveStats {
		done.Stats = stats
	}
	if len(done.ShardsFailed) > 0 {
		if r.opt.RequireAll {
			// Mid-stream failure under RequireAll: the answer is incomplete
			// and must not masquerade as success — terminal error line.
			ferr := fmt.Errorf("%d/%d shards failed mid-stream", len(done.ShardsFailed), n)
			_ = enc.Encode(&streamEvent{Error: ferr.Error()})
			r.settle(st, "failed", ferr, emitted, done.ShardsFailed)
			return
		}
		done.Partial = true
		r.settle(st, "partial", nil, emitted, done.ShardsFailed)
	} else {
		r.settle(st, "ok", nil, emitted, nil)
	}
	_ = enc.Encode(&streamEvent{Done: done})
}

// entryHead is one shard's current head in the k-way probability merge.
type entryHead struct {
	e  server.MatchEntry
	ss *shardStream
}

type entryHeap []entryHead

func (h entryHeap) Len() int           { return len(h) }
func (h entryHeap) Less(i, j int) bool { return probBetter(&h[i].e, &h[j].e) }
func (h entryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x any)        { *h = append(*h, x.(entryHead)) }
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// mergeProb is the bounded k-way merge over per-shard probability-sorted
// streams: the heap holds one head per live shard, so router memory is
// O(shards) regardless of result size. Returns true when emit stopped the
// merge early.
func mergeProb(live []*shardStream, emit func(*server.MatchEntry) bool) bool {
	h := make(entryHeap, 0, len(live))
	for _, ss := range live {
		if e, ok := <-ss.ch; ok {
			h = append(h, entryHead{e, ss})
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		head := h[0]
		if !emit(&head.e) {
			return true
		}
		if e, ok := <-head.ss.ch; ok {
			h[0] = entryHead{e, head.ss}
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return false
}
