// Package router implements the cluster tier's online half: a stateless
// scatter-gather front end over N component-partitioned shards (see
// internal/shard). The router loads the manifest catalog, fans every query
// out to one replica of every shard over the existing HTTP/JSON protocol,
// translates shard-local entity ids back into the global id space, and
// merges the per-shard results under the same total orders the single-node
// server uses — so for a connected query the routed answer is byte-identical
// to the single-node answer (the partition is lossless and the id
// translation is strictly monotone).
//
// Failure handling: every shard call runs under its own timeout and is
// hedged to a second healthy replica after an adaptive (p99-based) delay;
// a shard that still fails is reported through partial:true and
// shards_failed on the response (or the whole request fails with 502 under
// RequireAll). Replica health is tracked by polling GET /healthz (the
// shards' readiness probe), and per-replica in-flight counts steer each
// call to the least-loaded healthy replica.
package router

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/trace"
)

// Options configures a Router.
type Options struct {
	// Replicas[s] lists the base URLs (e.g. "http://host:8080") serving
	// shard s. Every shard needs at least one.
	Replicas [][]string
	// ShardTimeout caps each per-shard call, streams included (0 = 30s).
	ShardTimeout time.Duration
	// HedgeAfter is the delay before a buffered shard call is hedged to a
	// second healthy replica: 0 selects an adaptive delay (the shard's
	// observed p99 latency, clamped to [5ms, ShardTimeout/2]), negative
	// disables hedging.
	HedgeAfter time.Duration
	// RequireAll makes any shard failure fail the whole request with 502
	// instead of returning a partial result.
	RequireAll bool
	// HealthEvery is the replica health-poll interval (0 = 2s, negative
	// disables polling; replicas then stay in their initial healthy state).
	HealthEvery time.Duration
	// Tracer enables span-structured distributed tracing: a root span per
	// request, a child span per shard attempt (annotated with the replica
	// and the failover/hedge cause), traceparent + deadline propagation to
	// shards, and GET /debug/trace/{id} over the ring buffer.
	Tracer *trace.Tracer
}

func (o *Options) normalize() {
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 30 * time.Second
	}
	if o.HealthEvery == 0 {
		o.HealthEvery = 2 * time.Second
	}
}

// replica is one backend process serving a shard.
type replica struct {
	url      string
	healthy  atomic.Bool
	inflight atomic.Int64
}

// latRing is a fixed ring of recent per-shard latency samples; its p99
// drives the adaptive hedge delay.
type latRing struct {
	mu  sync.Mutex
	buf [128]float64
	n   int // filled entries
	i   int // next write slot
}

func (l *latRing) add(v float64) {
	l.mu.Lock()
	l.buf[l.i] = v
	l.i = (l.i + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

func (l *latRing) p99() (float64, bool) {
	l.mu.Lock()
	n := l.n
	s := make([]float64, n)
	copy(s, l.buf[:n])
	l.mu.Unlock()
	if n == 0 {
		return 0, false
	}
	sort.Float64s(s)
	return s[(n*99)/100], true
}

// Router is the stateless scatter-gather front end. All state it holds is
// soft (health flags, latency samples, counters): any number of routers can
// serve the same manifest concurrently.
type Router struct {
	opt      Options
	manifest *shard.Manifest
	alphabet *prob.Alphabet
	idmaps   []*shard.IDMap
	replicas [][]*replica
	lat      []latRing
	start    time.Time
	stop     chan struct{}
	stopOnce sync.Once
	// client issues the shard calls, with its own connection pool.
	client *http.Client

	met *routerMetrics
}

// New builds a router over a loaded manifest and starts the replica health
// loop (unless disabled). Close releases it.
func New(m *shard.Manifest, opt Options) (*Router, error) {
	opt.normalize()
	if len(opt.Replicas) != m.Shards {
		return nil, fmt.Errorf("router: %d replica lists for %d shards", len(opt.Replicas), m.Shards)
	}
	alphabet, err := prob.NewAlphabet(m.Labels...)
	if err != nil {
		return nil, fmt.Errorf("router: manifest alphabet: %w", err)
	}
	r := &Router{
		opt:      opt,
		manifest: m,
		alphabet: alphabet,
		idmaps:   make([]*shard.IDMap, m.Shards),
		replicas: make([][]*replica, m.Shards),
		lat:      make([]latRing, m.Shards),
		start:    time.Now(),
		stop:     make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}},
	}
	for s := 0; s < m.Shards; s++ {
		if len(opt.Replicas[s]) == 0 {
			return nil, fmt.Errorf("router: shard %d has no replicas", s)
		}
		r.idmaps[s] = m.IDMap(s)
		for _, u := range opt.Replicas[s] {
			rep := &replica{url: u}
			// Start healthy: a router must be able to route before the first
			// poll lands, and a dead replica fails fast on its own.
			rep.healthy.Store(true)
			r.replicas[s] = append(r.replicas[s], rep)
		}
	}
	r.met = newRouterMetrics(r)
	if opt.HealthEvery > 0 {
		go r.healthLoop()
	}
	return r, nil
}

// Close stops the health loop.
func (r *Router) Close() { r.stopOnce.Do(func() { close(r.stop) }) }

// healthLoop polls every replica's readiness probe. A replica is healthy
// iff its shard answers GET /healthz with 200 — which the shard only does
// with an index installed and no publish swap in flight.
func (r *Router) healthLoop() {
	t := time.NewTicker(r.opt.HealthEvery)
	defer t.Stop()
	for {
		r.pollHealth()
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
	}
}

func (r *Router) pollHealth() {
	var wg sync.WaitGroup
	for _, reps := range r.replicas {
		for _, rep := range reps {
			wg.Add(1)
			go func(rep *replica) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/healthz", nil)
				if err != nil {
					rep.healthy.Store(false)
					return
				}
				resp, err := r.client.Do(req)
				if err != nil {
					rep.healthy.Store(false)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				rep.healthy.Store(resp.StatusCode == http.StatusOK)
			}(rep)
		}
	}
	wg.Wait()
}

// pick selects the least-loaded healthy replica of shard s not in tried
// (lowest index on ties). With every healthy replica tried — or none
// healthy — it falls back to any untried replica: attempting a possibly-down
// backend beats failing without trying.
func (r *Router) pick(s int, tried map[*replica]bool) *replica {
	var best *replica
	for _, pass := range []bool{true, false} { // healthy first, then any
		for _, rep := range r.replicas[s] {
			if tried[rep] || rep.healthy.Load() != pass {
				continue
			}
			if best == nil || rep.inflight.Load() < best.inflight.Load() {
				best = rep
			}
		}
		if best != nil {
			return best
		}
	}
	return nil
}

// hedgeDelay is how long a buffered call waits before trying a second
// replica: the configured fixed delay, or the shard's observed p99 clamped
// into [5ms, ShardTimeout/2]. Negative HedgeAfter reports false (disabled).
func (r *Router) hedgeDelay(s int) (time.Duration, bool) {
	if r.opt.HedgeAfter < 0 {
		return 0, false
	}
	if r.opt.HedgeAfter > 0 {
		return r.opt.HedgeAfter, true
	}
	lo, hi := 5*time.Millisecond, r.opt.ShardTimeout/2
	p99, ok := r.lat[s].p99()
	if !ok {
		return 25 * time.Millisecond, true
	}
	d := time.Duration(p99 * float64(time.Second))
	if d < lo {
		d = lo
	}
	if d > hi {
		d = hi
	}
	return d, true
}

// shardError is a failed shard call carrying the backend's HTTP status (0
// for transport errors).
type shardError struct {
	status int
	msg    string
}

func (e *shardError) Error() string { return e.msg }

// propagate stamps cross-process context onto one outbound shard request:
// the trace context (the attempt span's, so shard-side spans parent to the
// attempt; the client's own context passes through when the router has no
// tracer) and the remaining deadline budget, so a shard stops working for
// an attempt the router has already abandoned.
func propagate(ctx context.Context, sp *trace.Span, h http.Header) {
	if sc := sp.Context(); sc.Valid() {
		trace.Inject(sc, h)
	} else if rsc, ok := trace.RemoteFromContext(ctx); ok {
		trace.Inject(rsc, h)
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			h.Set(server.DeadlineHeader, strconv.FormatInt(ms, 10))
		}
	}
}

// startAttempt opens the per-attempt child span. cause records why this
// attempt launched: "primary", "failover", or "hedge".
func (r *Router) startAttempt(ctx context.Context, name string, s int, rep *replica, cause string) *trace.Span {
	_, sp := r.opt.Tracer.StartSpan(ctx, name)
	sp.SetAttr("shard", strconv.Itoa(s))
	sp.SetAttr("replica", rep.url)
	sp.SetAttr("cause", cause)
	return sp
}

// endAttempt settles an attempt span with its outcome ("ok", "error", or
// the backend's HTTP status).
func endAttempt(sp *trace.Span, outcome string, err error) {
	if sp == nil {
		return
	}
	sp.SetAttr("outcome", outcome)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
}

// doOnce issues one POST to one replica and reads the whole response,
// recording latency, in-flight accounting, and the attempt span.
func (r *Router) doOnce(ctx context.Context, s int, rep *replica, path string, body []byte, reqID, cause string) ([]byte, error) {
	asp := r.startAttempt(ctx, "shard.attempt", s, rep, cause)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+path, bytes.NewReader(body))
	if err != nil {
		e := &shardError{msg: err.Error()}
		endAttempt(asp, "error", e)
		return nil, e
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.RequestIDHeader, reqID)
	propagate(ctx, asp, req.Header)
	rep.inflight.Add(1)
	start := time.Now()
	resp, err := r.client.Do(req)
	elapsed := time.Since(start).Seconds()
	rep.inflight.Add(-1)
	r.lat[s].add(elapsed)
	shardLabel := fmt.Sprint(s)
	r.met.shardLatency.WithLabelValue(shardLabel).Observe(elapsed)
	if err != nil {
		r.met.shardRequests.WithLabelValues(shardLabel, "error").Inc()
		e := &shardError{msg: err.Error()}
		endAttempt(asp, "error", e)
		return nil, e
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		r.met.shardRequests.WithLabelValues(shardLabel, "error").Inc()
		e := &shardError{msg: err.Error()}
		endAttempt(asp, "error", e)
		return nil, e
	}
	if resp.StatusCode != http.StatusOK {
		r.met.shardRequests.WithLabelValues(shardLabel, fmt.Sprint(resp.StatusCode)).Inc()
		var je struct {
			Error string `json:"error"`
		}
		msg := fmt.Sprintf("shard %d: HTTP %d", s, resp.StatusCode)
		if json.Unmarshal(b, &je) == nil && je.Error != "" {
			msg = fmt.Sprintf("shard %d: %s", s, je.Error)
		}
		e := &shardError{status: resp.StatusCode, msg: msg}
		endAttempt(asp, strconv.Itoa(resp.StatusCode), e)
		return nil, e
	}
	r.met.shardRequests.WithLabelValues(shardLabel, "ok").Inc()
	endAttempt(asp, "ok", nil)
	return b, nil
}

// callShard runs one buffered shard call with failover and hedging: the
// primary replica is tried first; an error fails over to the next untried
// replica immediately, and a response slower than the hedge delay races a
// second replica (first answer wins).
func (r *Router) callShard(ctx context.Context, s int, path string, body []byte, reqID string) ([]byte, error) {
	cctx, cancel := context.WithTimeout(ctx, r.opt.ShardTimeout)
	defer cancel()

	type result struct {
		body []byte
		err  error
	}
	ch := make(chan result, len(r.replicas[s]))
	tried := make(map[*replica]bool)
	launch := func(cause string) bool {
		rep := r.pick(s, tried)
		if rep == nil {
			return false
		}
		tried[rep] = true
		go func() {
			b, err := r.doOnce(cctx, s, rep, path, body, reqID, cause)
			ch <- result{b, err}
		}()
		return true
	}
	if !launch("primary") {
		return nil, &shardError{msg: fmt.Sprintf("shard %d: no replicas", s)}
	}
	inFlight := 1

	var hedgeC <-chan time.Time
	if d, ok := r.hedgeDelay(s); ok && len(r.replicas[s]) > 1 {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}
	var lastErr error
	for {
		select {
		case res := <-ch:
			inFlight--
			if res.err == nil {
				return res.body, nil
			}
			lastErr = res.err
			// A 4xx is the request's own fault and will fail identically on
			// every replica — no failover.
			var se *shardError
			if errors.As(res.err, &se) && se.status >= 400 && se.status < 500 {
				return nil, res.err
			}
			if launch("failover") {
				inFlight++
			} else if inFlight == 0 {
				return nil, lastErr
			}
		case <-hedgeC:
			hedgeC = nil
			if launch("hedge") {
				inFlight++
				r.met.hedges.WithLabelValues(fmt.Sprint(s)).Inc()
			}
		case <-cctx.Done():
			if lastErr == nil {
				lastErr = &shardError{msg: fmt.Sprintf("shard %d: %v", s, cctx.Err())}
			}
			return nil, lastErr
		}
	}
}

// newRequestID mints a 16-hex-digit correlation id.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// requestID returns the client's X-Request-ID, minting one if absent, and
// echoes it onto the response.
func (r *Router) requestID(w http.ResponseWriter, req *http.Request) string {
	id := req.Header.Get(server.RequestIDHeader)
	if id == "" {
		id = newRequestID()
	}
	w.Header().Set(server.RequestIDHeader, id)
	return id
}

// reqState threads one routed request's observability context — endpoint,
// wall-clock start, correlation id, root span, decoded body — to its
// terminal settle call.
type reqState struct {
	endpoint string
	start    time.Time
	reqID    string
	sp       *trace.Span
	mr       *server.MatchRequest // nil until parseRequest succeeds
}

// startRequest opens the router-side observability context for one
// request: the correlation id (echoed onto the response) and, with a
// tracer configured, the root span — continuing the client's traceparent
// when one was sent. The returned context carries the span (or the raw
// remote context when tracing is off, so it can pass through to shards).
func (r *Router) startRequest(w http.ResponseWriter, req *http.Request, endpoint, spanName string) (context.Context, *reqState) {
	st := &reqState{endpoint: endpoint, start: time.Now(), reqID: r.requestID(w, req)}
	ctx := req.Context()
	if sc, ok := trace.Extract(req.Header); ok {
		ctx = trace.ContextWithRemote(ctx, sc)
	}
	if r.opt.Tracer != nil {
		ctx, st.sp = r.opt.Tracer.StartSpan(ctx, spanName)
		st.sp.SetAttr("request_id", st.reqID)
	}
	return ctx, st
}

// settle is the single terminal path of a routed request: metrics and the
// root span, which carries the request's shape and terminal state —
// pegserve's root attributes plus the router-only partial and
// shards_failed.
func (r *Router) settle(st *reqState, outcome string, err error, matches int, failed []int) {
	r.finish(st.endpoint, st.start, outcome)
	if !st.sp.Sampled() {
		return
	}
	st.sp.SetAttr("outcome", outcome)
	if err != nil {
		st.sp.SetAttr("error", err.Error())
	}
	if st.mr != nil {
		st.mr.SetSpanAttrs(st.sp)
	}
	if st.endpoint != "explain" {
		st.sp.SetAttr("matches", strconv.Itoa(matches))
	}
	if outcome == "partial" {
		st.sp.SetAttr("partial", "true")
	}
	if len(failed) > 0 {
		st.sp.SetAttr("shards_failed", fmt.Sprint(failed))
	}
	st.sp.End()
}

// parseRequest decodes and pre-validates one match request at the router:
// the query must parse against the manifest's alphabet and be connected —
// a disconnected query's matches combine partial mappings across linkage
// closures, which no single shard can see, so the router rejects it rather
// than return silently wrong results.
func (r *Router) parseRequest(req *http.Request, w http.ResponseWriter) (*server.MatchRequest, []byte, error) {
	var mr server.MatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, 8<<20)).Decode(&mr); err != nil {
		return nil, nil, &shardError{status: http.StatusBadRequest, msg: fmt.Sprintf("malformed request: %v", err)}
	}
	q, err := query.ParseString(mr.Query, r.alphabet)
	if err != nil {
		return nil, nil, &shardError{status: http.StatusBadRequest, msg: err.Error()}
	}
	if err := q.Validate(r.alphabet); err != nil {
		return nil, nil, &shardError{status: http.StatusBadRequest, msg: err.Error()}
	}
	if !q.Connected() {
		return nil, nil, &shardError{status: http.StatusBadRequest,
			msg: "disconnected query: matches would span multiple shards; split it into its connected components"}
	}
	if _, _, err := server.ParseStrategy(mr.Strategy); err != nil {
		return nil, nil, &shardError{status: http.StatusBadRequest, msg: err.Error()}
	}
	if _, _, err := server.ParseOrder(mr.Order); err != nil {
		return nil, nil, &shardError{status: http.StatusBadRequest, msg: err.Error()}
	}
	if mr.Limit < 0 {
		return nil, nil, &shardError{status: http.StatusBadRequest, msg: fmt.Sprintf("negative limit %d", mr.Limit)}
	}
	body, err := json.Marshal(&mr)
	if err != nil {
		return nil, nil, err
	}
	return &mr, body, nil
}

// translate rewrites one shard-local match mapping into global entity ids.
func (r *Router) translate(s int, e *server.MatchEntry) error {
	im := r.idmaps[s]
	for i, v := range e.Mapping {
		g, ok := im.Global(v)
		if !ok {
			return fmt.Errorf("shard %d returned unknown local entity id %d", s, v)
		}
		e.Mapping[i] = g
	}
	return nil
}

// emitLess is the collect total order — mapping-lexicographic ascending,
// probability descending on equal mappings — exactly core.Match's
// plan.SortMatches order, so the merged collect answer is byte-identical to
// the single-node answer.
func emitLess(a, b *server.MatchEntry) bool {
	for k := range a.Mapping {
		if k >= len(b.Mapping) {
			return false
		}
		if a.Mapping[k] != b.Mapping[k] {
			return a.Mapping[k] < b.Mapping[k]
		}
	}
	if len(a.Mapping) < len(b.Mapping) {
		return true
	}
	return a.Pr > b.Pr
}

// probBetter is the top-K total order — probability descending, mapping
// ascending on ties — exactly the executor's betterMatch order. The id
// translation is strictly monotone, so per-shard rankings agree with the
// global ranking and a k-way merge of sorted shard streams is globally
// sorted.
func probBetter(a, b *server.MatchEntry) bool {
	if a.Pr != b.Pr {
		return a.Pr > b.Pr
	}
	for k := range a.Mapping {
		if k >= len(b.Mapping) {
			return false
		}
		if a.Mapping[k] != b.Mapping[k] {
			return a.Mapping[k] < b.Mapping[k]
		}
	}
	return false
}

// addStats folds one shard's per-request statistics into the aggregate: the
// counters add up, and the shards ran concurrently so the aggregate stage
// times report total work, not wall clock. The plan tree and stage
// breakdown are per-shard artifacts and are not aggregated.
func addStats(dst, src *server.MatchStats) {
	if src == nil {
		return
	}
	dst.NumPaths += src.NumPaths
	dst.SSFinal += src.SSFinal
	dst.TotalMicros += src.TotalMicros
	dst.PlanMicros += src.PlanMicros
	dst.DecomposeMicros += src.DecomposeMicros
	dst.CandidateMicros += src.CandidateMicros
	dst.ReduceMicros += src.ReduceMicros
	dst.JoinMicros += src.JoinMicros
}

// MatchResponse is the router's answer to POST /match: the single-node
// response shape plus the partial-failure report.
type MatchResponse struct {
	server.MatchResponse
	// Partial reports that at least one shard failed and its matches are
	// missing (never set under RequireAll, which fails the request instead).
	Partial bool `json:"partial,omitempty"`
	// ShardsFailed lists the failed shards, ascending.
	ShardsFailed []int `json:"shards_failed,omitempty"`
}

// scatter fans one buffered call to every shard concurrently and gathers
// per-shard bodies and failures (failed ascending).
func (r *Router) scatter(ctx context.Context, path string, body []byte, reqID string) (bodies [][]byte, failed []int, errs []error) {
	n := r.manifest.Shards
	bodies = make([][]byte, n)
	errsBy := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			b, err := r.callShard(ctx, s, path, body, reqID)
			bodies[s], errsBy[s] = b, err
		}(s)
	}
	wg.Wait()
	for s, err := range errsBy {
		if err != nil {
			failed = append(failed, s)
			errs = append(errs, err)
		}
	}
	return bodies, failed, errs
}

// handleMatch scatters one buffered match to every shard and merges: collect
// answers re-sort under the single-node mapping order, top-K answers merge
// the per-shard top-K sets under the probability order and cut at K.
func (r *Router) handleMatch(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	ctx, st := r.startRequest(w, req, "match", "router.match")
	mr, body, err := r.parseRequest(req, w)
	if err != nil {
		r.settle(st, "failed", err, 0, nil)
		writeShardError(w, err)
		return
	}
	st.mr = mr
	bodies, failedShards, errs := r.scatter(ctx, "/match", body, st.reqID)
	if len(failedShards) > 0 {
		if fe := r.failNow(failedShards, errs); fe != nil {
			r.settle(st, "failed", fe, 0, failedShards)
			writeShardError(w, fe)
			return
		}
	}

	out := &MatchResponse{}
	var entries []server.MatchEntry
	stats := &server.MatchStats{}
	haveStats := false
	for s, b := range bodies {
		if b == nil {
			continue
		}
		var sr server.MatchResponse
		if err := json.Unmarshal(b, &sr); err != nil {
			ge := fmt.Errorf("shard %d: malformed response: %v", s, err)
			r.settle(st, "failed", ge, 0, failedShards)
			writeError(w, http.StatusBadGateway, ge.Error())
			return
		}
		for i := range sr.Matches {
			if err := r.translate(s, &sr.Matches[i]); err != nil {
				r.settle(st, "failed", err, 0, failedShards)
				writeError(w, http.StatusBadGateway, err.Error())
				return
			}
		}
		entries = append(entries, sr.Matches...)
		out.Alpha, out.Strategy = sr.Alpha, sr.Strategy
		out.Truncated = out.Truncated || sr.Truncated
		if sr.Stats != nil {
			addStats(stats, sr.Stats)
			haveStats = true
		}
	}
	_, orderName, _ := server.ParseOrder(mr.Order) // validated in parseRequest
	if orderName == "prob" {
		sort.Slice(entries, func(i, j int) bool { return probBetter(&entries[i], &entries[j]) })
	} else {
		sort.Slice(entries, func(i, j int) bool { return emitLess(&entries[i], &entries[j]) })
	}
	r.met.mergeCandidates.Observe(float64(len(entries)))
	if mr.Limit > 0 && len(entries) > mr.Limit {
		entries = entries[:mr.Limit]
		out.Truncated = true
	}
	out.Matches = entries
	if out.Matches == nil {
		out.Matches = []server.MatchEntry{}
	}
	out.NumMatches = len(out.Matches)
	if haveStats {
		out.Stats = stats
	}
	if len(failedShards) > 0 {
		out.Partial = true
		out.ShardsFailed = failedShards
		r.settle(st, "partial", nil, out.NumMatches, failedShards)
	} else {
		r.settle(st, "ok", nil, out.NumMatches, nil)
	}
	writeJSON(w, http.StatusOK, out)
}

// failNow decides whether shard failures fail the request: always under
// RequireAll, when every shard failed, or when a shard rejected the request
// itself (4xx — the other shards' answers would not make it valid).
func (r *Router) failNow(failedShards []int, errs []error) error {
	var client *shardError
	for _, err := range errs {
		var se *shardError
		if errors.As(err, &se) && se.status >= 400 && se.status < 500 {
			client = se
			break
		}
	}
	if client != nil {
		return client
	}
	if r.opt.RequireAll || len(failedShards) == r.manifest.Shards {
		return &shardError{status: http.StatusBadGateway,
			msg: fmt.Sprintf("%d/%d shards failed: %v", len(failedShards), r.manifest.Shards, errs[0])}
	}
	return nil
}

// ShardExplain is one shard's plan in an ExplainResponse.
type ShardExplain struct {
	Shard int `json:"shard"`
	// Explain is the shard's verbatim /explain answer (plan tree + cached
	// flag); plans are per-shard artifacts, so none is synthesized globally.
	Explain json.RawMessage `json:"explain"`
}

// ExplainResponse answers POST /explain at the router: one plan per shard.
type ExplainResponse struct {
	Shards       []ShardExplain `json:"shards"`
	Partial      bool           `json:"partial,omitempty"`
	ShardsFailed []int          `json:"shards_failed,omitempty"`
}

func (r *Router) handleExplain(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	ctx, st := r.startRequest(w, req, "explain", "router.explain")
	mr, body, err := r.parseRequest(req, w)
	if err != nil {
		r.settle(st, "failed", err, 0, nil)
		writeShardError(w, err)
		return
	}
	st.mr = mr
	bodies, failedShards, errs := r.scatter(ctx, "/explain", body, st.reqID)
	if len(failedShards) > 0 {
		if fe := r.failNow(failedShards, errs); fe != nil {
			r.settle(st, "failed", fe, 0, failedShards)
			writeShardError(w, fe)
			return
		}
	}
	out := &ExplainResponse{Shards: make([]ShardExplain, 0, len(bodies))}
	for s, b := range bodies {
		if b == nil {
			continue
		}
		out.Shards = append(out.Shards, ShardExplain{Shard: s, Explain: json.RawMessage(b)})
	}
	if len(failedShards) > 0 {
		out.Partial = true
		out.ShardsFailed = failedShards
		r.settle(st, "partial", nil, 0, failedShards)
	} else {
		r.settle(st, "ok", nil, 0, nil)
	}
	writeJSON(w, http.StatusOK, out)
}

// HealthResponse answers the router's own probes.
type HealthResponse struct {
	OK            bool    `json:"ok"`
	Ready         bool    `json:"ready"`
	Shards        int     `json:"shards"`
	ShardsDown    []int   `json:"shards_down,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// handleHealth is the router's readiness probe: ready iff every shard has at
// least one healthy replica — the condition under which a non-partial answer
// is possible.
func (r *Router) handleHealth(w http.ResponseWriter, req *http.Request) {
	resp := &HealthResponse{Shards: r.manifest.Shards, UptimeSeconds: time.Since(r.start).Seconds()}
	for s, reps := range r.replicas {
		up := false
		for _, rep := range reps {
			if rep.healthy.Load() {
				up = true
				break
			}
		}
		if !up {
			resp.ShardsDown = append(resp.ShardsDown, s)
		}
	}
	if len(resp.ShardsDown) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	resp.OK, resp.Ready = true, true
	writeJSON(w, http.StatusOK, resp)
}

func (r *Router) handleHealthLive(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, &HealthResponse{OK: true, Ready: true,
		Shards: r.manifest.Shards, UptimeSeconds: time.Since(r.start).Seconds()})
}

// Handler returns the router's HTTP handler.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/match", r.handleMatch)
	mux.HandleFunc("/match/stream", r.handleMatchStream)
	mux.HandleFunc("/explain", r.handleExplain)
	mux.HandleFunc("/healthz", r.handleHealth)
	mux.HandleFunc("/healthz/live", r.handleHealthLive)
	mux.HandleFunc("/debug/trace/", r.handleDebugTrace)
	mux.HandleFunc("/metrics", r.handleMetrics)
	mux.HandleFunc("/metrics/cluster", r.handleMetricsCluster)
	return mux
}

// handleDebugTrace serves the router's half of a trace waterfall from the
// ring buffer — same response shape as the shards' endpoint, so a client
// can fetch /debug/trace/{id} from the router and every shard and merge.
func (r *Router) handleDebugTrace(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet && req.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if r.opt.Tracer == nil {
		writeError(w, http.StatusNotFound, "tracing disabled (start with -trace or -trace-sample)")
		return
	}
	id := strings.TrimPrefix(req.URL.Path, "/debug/trace/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusBadRequest, "want /debug/trace/{trace-id}")
		return
	}
	spans := r.opt.Tracer.Collect(id)
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound, "no spans recorded for trace "+id)
		return
	}
	writeJSON(w, http.StatusOK, &server.TraceResponse{TraceID: id, Spans: spans})
}

func (r *Router) finish(endpoint string, start time.Time, outcome string) {
	r.met.requests.WithLabelValues(endpoint, outcome).Inc()
	r.met.latency.WithLabelValue(endpoint).Observe(time.Since(start).Seconds())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func writeShardError(w http.ResponseWriter, err error) {
	var se *shardError
	if errors.As(err, &se) && se.status != 0 {
		writeError(w, se.status, se.msg)
		return
	}
	writeError(w, http.StatusBadGateway, err.Error())
}
