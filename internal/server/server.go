// Package server exposes the online matching phase as a concurrent HTTP/JSON
// service: the query-serving subsystem in front of one opened (read-only)
// path index. Every request parses the text query DSL, runs core.Match, and
// streams the matches back as JSON.
//
// The design leans on the read path being lock-free for concurrent callers
// (see pathindex.Index): requests never contend on the index itself, only on
// the bounded worker pool that caps how many match evaluations run at once,
// and on the served generation's three caches — one mechanism (package lru),
// keyed by one query identity (query.Fingerprint): the result cache that
// short-circuits repeated queries entirely, the plan cache that lets every
// evaluation of a previously seen query (different limit/order, streaming,
// after a result eviction) skip decomposition and planning, and the
// candidate cache under both that skips posting decode and context pruning.
//
// Endpoints:
//
//	POST /match         one MatchRequest  → MatchResponse (optionally
//	                    limit/order fields for top-K retrieval)
//	POST /match/stream  one MatchRequest  → NDJSON stream of StreamEvent
//	                    lines: matches flushed incrementally as the join
//	                    finds them, then a terminal done/error line
//	POST /explain       one MatchRequest  → ExplainResponse: the plan tree
//	                    the query would execute under, without executing it
//	                    (shares the plan cache with the match endpoints)
//	POST /ingest        live.Mutation (single JSON or NDJSON batch) →
//	                    live.ApplyResult; 501 unless SetLive enabled the
//	                    write path
//	GET  /healthz       readiness: 200 + generation/uptime/index identity
//	                    once an index is installed, 503 ready:false before
//	GET  /healthz/live  liveness: 200 as soon as the process serves HTTP
//	GET  /stats         serving counters (requests, cache hits, rejections,
//	                    ingest and live-database state)
//
// The served index is any pathindex.Reader. With a live database attached
// (SetLive + live.DB.SetPublisher), every ingested batch publishes a fresh
// view through Publish — an atomic swap that drops the old generation's
// caches with it — and the compactor uses DrainObsolete to know
// when a retired generation's base index is safe to close.
package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/live"
	"repro/internal/lru"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/trace"
)

// Options configures a Server.
type Options struct {
	// Workers bounds how many match evaluations run concurrently
	// (0 = GOMAXPROCS), each on one core: the pool is the server's one CPU
	// budget, so a request never fans out to take cores from the others.
	// This is the admission-control knob: the index itself imposes no
	// reader limit.
	Workers int
	// QueueDepth is how many requests may wait for a worker slot before the
	// server sheds load with 503 (0 = 4×Workers).
	QueueDepth int
	// CacheEntries sizes the LRU result cache (0 = 1024, negative disables).
	CacheEntries int
	// RequestTimeout caps per-request wall clock (0 = 30s). A request may
	// lower it via its timeout_ms field but never raise it.
	RequestTimeout time.Duration
	// PlanCacheEntries sizes the LRU plan cache (0 = 256, negative
	// disables). Cached plans are keyed by query fingerprint + α +
	// strategy, so repeat queries — including /match/stream requests, which
	// bypass the result cache — skip decomposition and planning.
	PlanCacheEntries int
	// CandCacheSize bounds the candidate cache: the total number of pruned
	// path candidates it may retain across entries
	// (0 = candidates.DefaultCacheBudget, negative disables). Repeat query
	// shapes skip posting decode and context pruning; live views carrying
	// mutations bypass it until the next publish.
	CandCacheSize int
	// MaxPlanCost is the cost-based admission budget: a query whose
	// plan-cost estimate (plan.Tree.Cost.Total) exceeds it is
	// rejected with 429 + Retry-After before execution, counted as
	// cost_rejected — distinct from the 503 shed of a saturated pool.
	// Planning is tens of microseconds, so the server can afford to predict
	// before it admits; result-cache hits bypass admission (serving a cached
	// answer costs nothing). 0 disables admission.
	MaxPlanCost float64
	// Tracer enables span-structured distributed tracing: the server
	// continues a client's traceparent context (or opens a new root),
	// emits child spans for admission, plan-cache lookup, planning, and
	// every executor stage, and serves the ring buffer at
	// GET /debug/trace/{id}. Each request's root span carries its shape and
	// terminal state as attributes (see finishRequest). Nil disables
	// tracing.
	Tracer *trace.Tracer
}

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

func (o *Options) normalize() {
	if o.Workers <= 0 {
		o.Workers = defaultWorkers()
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 1024
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.PlanCacheEntries == 0 {
		o.PlanCacheEntries = 256
	}
}

// servedIndex is one generation of the served index with its in-flight
// reference count, so a swap can drain readers before the old index is
// closed. Each generation carries its own caches: every cached result, plan
// and candidate set is only valid against the data it came from, so a swap
// starts them all fresh and cache keys carry no generation.
type servedIndex struct {
	ix pathindex.Reader
	id string
	// The generation's caches; nil when disabled.
	results *lru.Cache[*MatchResponse]
	plans   *lru.Cache[*plan.Plan]
	cands   *candidates.Cache
	// graphBytes is the resident size of the generation's PEG, taken once
	// at install.
	graphBytes int64
	refs       atomic.Int64
}

// Server serves match queries over one opened index. Safe for concurrent
// use; the index may be hot-swapped with SetIndex. A server constructed
// with a nil index starts unready: /healthz reports ready:false (503) and
// the compute endpoints answer 503 until the first SetIndex or Publish —
// the window a process uses to accept health checks while the first index
// is still building or loading.
type Server struct {
	opt   Options
	start time.Time

	mu      sync.RWMutex
	cur     *servedIndex
	retired []*servedIndex // swapped-out generations not yet drained
	gen     atomic.Uint64
	// swapping counts in-flight index swaps; readiness is false while it is
	// non-zero so a health-checker never sends traffic into a publish flip.
	swapping atomic.Int64

	live *live.DB // nil unless live ingest is enabled

	sem     chan struct{}
	waiters atomic.Int64
	// The counters of the result, plan and candidate caches outlive the
	// generations whose caches count into them, so they never go backwards.
	resultCtrs, planCtrs, candCtrs lru.Counters

	// Request accounting: every request counted in requests settles into
	// exactly one of succeeded / failed / canceled / rejected / costRejected
	// (see finishRequest), so the five always sum back to requests.
	requests     atomic.Uint64
	rejected     atomic.Uint64
	failed       atomic.Uint64
	succeeded    atomic.Uint64
	canceled     atomic.Uint64
	costRejected atomic.Uint64
	ingested     atomic.Uint64
	ingestFailed atomic.Uint64

	met *serverMetrics
}

// New creates a server over an opened index (or any other index reader,
// e.g. a live database view). A nil index is allowed: the server starts
// unready — liveness up, readiness and compute endpoints 503 — until the
// first SetIndex or Publish installs an index.
func New(ix pathindex.Reader, opt Options) *Server {
	opt.normalize()
	s := &Server{
		opt:   opt,
		start: time.Now(),
		sem:   make(chan struct{}, opt.Workers),
	}
	// Metrics before the first setIndex so the swap can stamp the index
	// info gauge; the scrape-time closures only run once /metrics is hit.
	s.met = newServerMetrics(s)
	if ix != nil {
		s.setIndex(ix)
	}
	return s
}

// SetIndex atomically replaces the served index (e.g. after an offline
// rebuild), blocks until every in-flight request on the previous index has
// finished, and returns that previous index — at which point it is safe to
// Close. The old index's caches go with it.
func (s *Server) SetIndex(ix pathindex.Reader) pathindex.Reader {
	old := s.setIndex(ix)
	if old == nil {
		return nil
	}
	s.DrainObsolete()
	return old.ix
}

// Publish atomically swaps the served index without waiting for in-flight
// requests on earlier generations — the hot half of live.Publisher, called
// on every ingested mutation batch. Retired generations accumulate until
// DrainObsolete.
func (s *Server) Publish(r pathindex.Reader) { s.setIndex(r) }

// DrainObsolete blocks until every request pinning a previously retired
// index generation has finished — the live compactor calls it before
// closing the old on-disk base. Generations published after the call
// started are not waited for.
func (s *Server) DrainObsolete() {
	s.mu.Lock()
	snapshot := append([]*servedIndex(nil), s.retired...)
	s.mu.Unlock()
	for _, si := range snapshot {
		for si.refs.Load() > 0 {
			time.Sleep(time.Millisecond)
		}
	}
	s.mu.Lock()
	s.pruneRetired()
	s.mu.Unlock()
}

// pruneRetired drops every fully released generation from the retired list
// and clears the slots past the new length, so a dropped generation (a live
// view carries its own graph delta and context tables) is not kept
// reachable by the list's backing array. Caller holds s.mu for writing,
// which excludes acquireIndex: refs.Load() == 0 is then a stable "nobody
// can pin it anymore" fact.
func (s *Server) pruneRetired() {
	kept := s.retired[:0]
	for _, si := range s.retired {
		if si.refs.Load() > 0 {
			kept = append(kept, si)
		}
	}
	clear(s.retired[len(kept):])
	s.retired = kept
}

func (s *Server) setIndex(ix pathindex.Reader) *servedIndex {
	s.swapping.Add(1)
	defer s.swapping.Add(-1)
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur
	// A monotonically increasing generation makes the id collision-free
	// across swaps (a %p pointer could be reused after GC); the entry count
	// is informational.
	s.cur = &servedIndex{
		ix:      ix,
		id:      fmt.Sprintf("gen%d#%d", s.gen.Add(1), ix.Stats().Entries),
		results: lru.New[*MatchResponse](s.opt.CacheEntries, nil, &s.resultCtrs),
		plans:   lru.New[*plan.Plan](s.opt.PlanCacheEntries, nil, &s.planCtrs),
		cands:   candidates.NewSharedCache(s.opt.CandCacheSize, &s.candCtrs),

		graphBytes: ix.Graph().Bytes(),
	}
	s.met.indexInfo.SetLabelValue(s.cur.id)
	// Route posting-decode timings from the new reader into the histogram.
	// Live views forward the observer to the shared base index, so
	// reinstalling per publish is idempotent.
	if src, ok := ix.(pathindex.MetricsSource); ok {
		src.SetPostingObserver(s.met.postingDecode.Observe)
	}
	// Prune fully released generations right away: with live ingest every
	// batch publishes, and without pruning the retired list would pin one
	// whole view (context tables, dirty set, graph delta) per batch until the
	// next compaction drains.
	s.pruneRetired()
	if old != nil {
		s.retired = append(s.retired, old)
	}
	return old
}

// cacheStats snapshots the result, plan and candidate caches: the
// server's counters, with the served generation's residency.
func (s *Server) cacheStats() (results, plans, cands lru.Stats) {
	si, release := s.acquireIndex()
	defer release()
	if si != nil {
		results, plans, cands = si.results.Stats(), si.plans.Stats(), si.cands.Stats()
	}
	return results, plans, cands
}

// acquireIndex pins the current index generation; callers must call
// release() when done with it. On an unready server (no index installed
// yet) si is nil and release is a no-op — callers must check.
func (s *Server) acquireIndex() (si *servedIndex, release func()) {
	s.mu.RLock()
	si = s.cur
	if si == nil {
		s.mu.RUnlock()
		return nil, func() {}
	}
	si.refs.Add(1)
	s.mu.RUnlock()
	return si, func() { si.refs.Add(-1) }
}

// errNotReady answers compute requests on a server whose first index is
// still building or loading.
var errNotReady = &httpError{status: http.StatusServiceUnavailable, msg: "index not ready"}

// MatchRequest is the JSON body of /match, /match/stream and /explain.
type MatchRequest struct {
	// Query is the text DSL ("node NAME LABEL" / "edge A B" lines).
	Query string `json:"query"`
	// Alpha is the probability threshold α (0 = defaultAlpha).
	Alpha float64 `json:"alpha,omitempty"`
	// Strategy is "optimized" (default), "random-decomp", or
	// "no-ss-reduction".
	Strategy string `json:"strategy,omitempty"`
	// TimeoutMillis optionally lowers the server's request timeout.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// Limit caps the number of returned matches (0 = all). With order
	// "emit" the match enumeration stops as soon as Limit matches were
	// produced; with order "prob" the top-Limit matches by probability are
	// returned.
	Limit int `json:"limit,omitempty"`
	// Order is "emit" (default: enumeration order, lowest latency) or
	// "prob" (decreasing probability — top-K together with Limit).
	Order string `json:"order,omitempty"`
}

// MatchEntry is one probabilistic match in a response.
type MatchEntry struct {
	// Mapping lists the entity id matched to each query node, in query-node
	// order.
	Mapping []uint32 `json:"mapping"`
	Pr      float64  `json:"pr"`
	Prle    float64  `json:"prle"`
	Prn     float64  `json:"prn"`
}

// MatchStats is the per-request statistics summary. Plan is the executed
// plan tree — the same tree POST /explain returns for the query (with the
// plan cache enabled, the very same cached value) — and Stages carries the
// executor's per-stage timings, estimated vs. observed cardinalities, and
// prune counts. PlannedOrder vs ExecOrder shows the adaptive join reorder:
// they differ exactly when the observed candidate counts contradicted the
// histogram ranking.
type MatchStats struct {
	NumPaths int     `json:"num_paths"`
	SSFinal  float64 `json:"search_space_final"`
	// Stage times are float microseconds with nanosecond precision: a stage
	// that ran for 800ns reports 0.8, not the 0 that integer-microsecond
	// truncation used to produce for every sub-µs stage.
	TotalMicros     float64 `json:"total_us"`
	PlanMicros      float64 `json:"plan_us,omitempty"`
	DecomposeMicros float64 `json:"decompose_us"`
	CandidateMicros float64 `json:"candidates_us"`
	ReduceMicros    float64 `json:"reduce_us"`
	JoinMicros      float64 `json:"join_us"`

	Plan         *plan.Tree        `json:"plan,omitempty"`
	Stages       []plan.StageStats `json:"stages,omitempty"`
	PlannedOrder []int             `json:"planned_join_order,omitempty"`
	ExecOrder    []int             `json:"exec_join_order,omitempty"`
}

// MatchResponse is the JSON body answering one match request.
type MatchResponse struct {
	NumMatches int          `json:"num_matches"`
	Matches    []MatchEntry `json:"matches"`
	Alpha      float64      `json:"alpha"`
	Strategy   string       `json:"strategy"`
	Cached     bool         `json:"cached"`
	// PlanCached reports that the evaluation reused a cached query plan,
	// skipping decomposition and planning (independent of Cached, which
	// short-circuits the whole evaluation).
	PlanCached bool `json:"plan_cached,omitempty"`
	// Truncated reports that the match set may be incomplete: the request's
	// limit stopped the enumeration (order "emit") or discarded matches
	// beyond the top-K (order "prob").
	Truncated bool        `json:"truncated,omitempty"`
	Stats     *MatchStats `json:"stats,omitempty"`
}

// StreamEvent is one NDJSON line of a /match/stream response. Exactly one
// field is set per line: a match, the final done summary, or a mid-stream
// error (errors before the first byte use a plain HTTP error status
// instead).
type StreamEvent struct {
	Match *MatchEntry `json:"match,omitempty"`
	Done  *StreamDone `json:"done,omitempty"`
	Error string      `json:"error,omitempty"`
}

// StreamDone is the terminal NDJSON line of a successful /match/stream
// response.
type StreamDone struct {
	NumMatches int     `json:"num_matches"`
	Truncated  bool    `json:"truncated,omitempty"`
	Alpha      float64 `json:"alpha"`
	Strategy   string  `json:"strategy"`
	// PlanCached reports that this stream reused a cached query plan.
	PlanCached bool        `json:"plan_cached,omitempty"`
	Stats      *MatchStats `json:"stats,omitempty"`
}

// StatsResponse answers /stats. The outcome counters partition Requests:
// requests = succeeded + failed + canceled + rejected + cost_rejected.
type StatsResponse struct {
	Requests  uint64 `json:"requests"`
	Succeeded uint64 `json:"succeeded"`
	Failed    uint64 `json:"failed"`
	// Canceled counts requests whose client went away (disconnect, 499) —
	// not server faults, and deliberately not part of Failed.
	Canceled uint64 `json:"canceled"`
	Rejected uint64 `json:"rejected"`
	// CostRejected counts 429 cost-based admission rejections (predicted
	// plan cost over MaxPlanCost), distinct from pool-saturation Rejected.
	CostRejected uint64 `json:"cost_rejected"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	CacheEntries int    `json:"cache_entries"`
	// Plan cache counters: hits are evaluations (or /explain calls) that
	// skipped decomposition and planning entirely.
	PlanCacheHits    uint64 `json:"plan_cache_hits"`
	PlanCacheMisses  uint64 `json:"plan_cache_misses"`
	PlanCacheEntries int    `json:"plan_cache_entries"`
	// Candidate-cache counters: hits are per-path evaluations served from
	// the per-generation pruned-candidate cache (posting decode and context
	// pruning skipped). Monotonic across generation swaps.
	CandCacheHits     uint64 `json:"cand_cache_hits"`
	CandCacheMisses   uint64 `json:"cand_cache_misses"`
	CandCacheBypassed uint64 `json:"cand_cache_bypassed"`
	CandCacheEntries  int    `json:"cand_cache_entries"`
	Workers           int    `json:"workers"`
	IndexEntries      uint64 `json:"index_entries"`
	// GraphBytes is the resident size of the served generation's PEG.
	GraphBytes int64 `json:"graph_bytes"`
	// Live ingest counters (zero when the write path is disabled).
	Ingested     uint64       `json:"ingested,omitempty"`
	IngestFailed uint64       `json:"ingest_failed,omitempty"`
	Live         *live.Status `json:"live,omitempty"`
}

// httpError is an error with an HTTP status. retryAfter, when positive, is
// surfaced as a Retry-After header — set on cost-based admission rejections
// so clients can tell "back off and retry" from a hard failure.
type httpError struct {
	status     int
	msg        string
	retryAfter int // seconds; 0 = no header
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// decodeError maps a request-body decode failure: size-limit violations get
// 413 so clients can tell "split the batch" from "fix the JSON".
func decodeError(err error) *httpError {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return &httpError{status: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)}
	}
	return badRequest("malformed request: %v", err)
}

var errSaturated = &httpError{
	status: http.StatusServiceUnavailable,
	msg:    "server saturated: worker pool and queue full",
}

// maxBodyBytes caps request bodies: a match request or an /ingest batch.
const maxBodyBytes = 8 << 20

// defaultAlpha is the threshold of a request that omits alpha.
const defaultAlpha = 0.25

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/match", s.handleMatch)
	mux.HandleFunc("/match/stream", s.handleMatchStream)
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/healthz/live", s.handleHealthLive)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/debug/trace/", s.handleDebugTrace)
	mux.HandleFunc("/metrics", s.handleMetrics)
	// Echo the caller's X-Request-ID onto every response — success, error,
	// or stream — before any handler writes a status, so a request can be
	// correlated across client, server and trace log by one id.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id := r.Header.Get(RequestIDHeader); id != "" {
			w.Header().Set(RequestIDHeader, id)
		}
		mux.ServeHTTP(w, r)
	})
}

// RequestIDHeader carries the end-to-end request correlation id. The server
// accepts a client's, echoes it on the response, and records it as the
// root span's request_id.
const RequestIDHeader = "X-Request-ID"

// startRequestSpan opens the server-side root span for one request,
// continuing the remote traceparent context when one was propagated
// (inheriting its sampling decision). A client asks for a trace of one
// request by sending a sampled traceparent.
func (s *Server) startRequestSpan(r *http.Request, name string) (context.Context, *trace.Span) {
	ctx := r.Context()
	if s.opt.Tracer == nil {
		return ctx, nil
	}
	if sc, ok := trace.Extract(r.Header); ok {
		ctx = trace.ContextWithRemote(ctx, sc)
	}
	ctx, sp := s.opt.Tracer.StartSpan(ctx, name)
	if id := r.Header.Get(RequestIDHeader); id != "" {
		sp.SetAttr("request_id", id)
	}
	return ctx, sp
}

// endRequestSpan settles a root span with the request's terminal state:
// its outcome, its shape (query, α, strategy, order and limit, each when
// set) and, for a finished match, the result summary.
// Attributes are only formatted for sampled spans. The per-stage
// breakdown is the root's stage.* children.
func endRequestSpan(sp *trace.Span, outcome string, req *MatchRequest, res *MatchResponse, err error) {
	if !sp.Sampled() {
		return
	}
	sp.SetAttr("outcome", outcome)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	if req != nil {
		if req.Query != "" {
			sp.SetAttr("query", req.Query)
		}
		if req.Alpha != 0 {
			sp.SetAttr("alpha", strconv.FormatFloat(req.Alpha, 'g', -1, 64))
		}
		if req.Strategy != "" {
			sp.SetAttr("strategy", req.Strategy)
		}
		if req.Order != "" {
			sp.SetAttr("order", req.Order)
		}
		if req.Limit != 0 {
			sp.SetAttr("limit", strconv.Itoa(req.Limit))
		}
	}
	if res != nil {
		sp.SetAttr("matches", strconv.Itoa(res.NumMatches))
		sp.SetAttr("cached", strconv.FormatBool(res.Cached))
		sp.SetAttr("plan_cached", strconv.FormatBool(res.PlanCached))
		sp.SetAttr("truncated", strconv.FormatBool(res.Truncated))
	}
	sp.End()
}

// TraceResponse answers GET /debug/trace/{id}: the spans the in-process
// ring recorder still holds for one trace, oldest first.
type TraceResponse struct {
	TraceID string           `json:"trace_id"`
	Spans   []trace.SpanData `json:"spans"`
}

func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, &httpError{status: http.StatusMethodNotAllowed, msg: "GET required"})
		return
	}
	if s.opt.Tracer == nil {
		writeError(w, &httpError{status: http.StatusNotFound, msg: "tracing disabled (start with -trace or -trace-sample)"})
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, badRequest("want /debug/trace/{trace-id}"))
		return
	}
	spans := s.opt.Tracer.Collect(id)
	if len(spans) == 0 {
		writeError(w, &httpError{status: http.StatusNotFound, msg: "no spans recorded for trace " + id})
		return
	}
	writeJSON(w, http.StatusOK, &TraceResponse{TraceID: id, Spans: spans})
}

// SetLive enables the write path: /ingest mutations are applied to db, and
// the database publishes every fresh view back through the server's
// Publisher implementation (pair this with db.SetPublisher(s)).
func (s *Server) SetLive(db *live.DB) {
	s.mu.Lock()
	s.live = db
	s.mu.Unlock()
}

func (s *Server) liveDB() *live.DB {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}

// maxIngestBatch caps mutations per /ingest request.
const maxIngestBatch = 4096

// handleIngest applies a batch of mutations. The body is one JSON mutation
// object, a JSON stream of them, or NDJSON — one mutation per line — all
// decoded the same way; the whole batch is applied atomically and the
// response reports the assigned ids and dirty-set state. The 501 answer
// distinguishes "server runs read-only" from transient failures.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, errPostRequired)
		return
	}
	db := s.liveDB()
	if db == nil {
		writeError(w, &httpError{status: http.StatusNotImplemented, msg: "live ingest disabled (start the server with -live)"})
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var batch []live.Mutation
	for {
		var m live.Mutation
		if err := dec.Decode(&m); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			writeError(w, decodeError(err))
			return
		}
		if len(batch) == maxIngestBatch {
			writeError(w, badRequest("ingest batch exceeds the %d-mutation limit", maxIngestBatch))
			return
		}
		batch = append(batch, m)
	}
	if len(batch) == 0 {
		writeError(w, badRequest("empty ingest batch"))
		return
	}
	started := time.Now()
	res, err := db.Apply(batch)
	if err != nil {
		s.ingestFailed.Add(1)
		// Only the client's own mutations warrant a 400; server-side
		// failures (WAL I/O, shutdown race) must read as retryable.
		switch {
		case errors.Is(err, live.ErrClosed):
			writeError(w, &httpError{status: http.StatusServiceUnavailable, msg: err.Error()})
		case errors.Is(err, live.ErrInvalidMutation):
			writeError(w, badRequest("%v", err))
		default:
			writeError(w, &httpError{status: http.StatusInternalServerError, msg: err.Error()})
		}
		return
	}
	s.met.liveApply.Observe(time.Since(started).Seconds())
	s.ingested.Add(uint64(res.Applied))
	writeJSON(w, http.StatusOK, &res)
}

// answerFunc is an endpoint's own part of the request path: it gets the
// request pinned to a served generation, parsed and under its deadline,
// and returns the response the request settles with (nil for /explain)
// and reply, which writes the answer once the request has settled. With no
// reply, serve writes the error, or else the response as JSON.
type answerFunc func(ctx context.Context, si *servedIndex, p *matchParams) (res *MatchResponse, reply func(), err error)

// errPostRequired answers an endpoint that takes a request body called
// with any other method.
var errPostRequired = &httpError{status: http.StatusMethodNotAllowed, msg: "POST required"}

// serve is the one request path of /match, /match/stream and /explain. It
// counts the request before anything can fail — a wrong method or a body
// that does not decode settles as failed like any other error — opens the
// root span and decodes the body, then pins the served generation, parses
// the request against it and runs answer under the request's deadline. The
// generation is released before the reply goes out, and the request settles
// exactly once before that, so a client that has read the answer finds it
// counted.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, endpoint string, answer answerFunc) {
	s.requests.Add(1)
	start := time.Now()
	ctx, sp := s.startRequestSpan(r, "serve."+endpoint)
	var (
		req   MatchRequest
		res   *MatchResponse
		reply func()
		err   error
	)
	if r.Method != http.MethodPost {
		err = errPostRequired
	} else if derr := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); derr != nil {
		err = decodeError(derr)
	} else if si, release := s.acquireIndex(); si == nil {
		err = errNotReady
	} else {
		var p *matchParams
		if p, err = s.parseParams(si.ix, &req); err == nil {
			// The deadline starts before the queue so RequestTimeout caps the
			// whole wall clock — a request stuck behind a saturated pool, or
			// waiting on an identical in-flight request, times out rather
			// than hanging for the wait plus a full match budget.
			actx, cancel := context.WithTimeout(ctx, s.requestTimeout(&req))
			res, reply, err = answer(actx, si, p)
			cancel()
		}
		release()
	}
	s.finishRequest(endpoint, start, sp, &req, res, err)
	switch {
	case reply != nil:
		reply()
	case err != nil:
		writeError(w, err)
	default:
		writeJSON(w, http.StatusOK, res)
	}
}

// handleMatchStream answers one match request as NDJSON: one StreamEvent
// line per match, flushed as the join enumeration finds it, then a terminal
// done (or error) line. Streaming responses bypass the result cache — the
// point is first-match latency, which a buffered cache entry cannot
// improve — but share the worker pool and admission control with /match.
func (s *Server) handleMatchStream(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, "stream", func(ctx context.Context, si *servedIndex, p *matchParams) (*MatchResponse, func(), error) {
		return s.stream(ctx, w, si, p)
	})
}

// stream is /match/stream's part of the request path. Streams never hit
// the result cache, so the plan cache is what a repeat streaming query
// saves on, and every stream is a fresh execution that goes through
// cost-based admission.
func (s *Server) stream(ctx context.Context, w http.ResponseWriter, si *servedIndex, p *matchParams) (*MatchResponse, func(), error) {
	pl, planCached, err := s.planned(ctx, si, p, true)
	if err != nil {
		return nil, nil, err
	}
	defer func() { <-s.sem }()

	// Bound every event write by the request deadline: a client that stops
	// reading mid-stream blocks the handler inside a write, where the ctx
	// timeout alone cannot interrupt it — the write deadline makes the
	// blocked write fail instead, releasing this worker slot on schedule.
	if dl, ok := ctx.Deadline(); ok {
		_ = http.NewResponseController(w).SetWriteDeadline(dl)
	}

	// The Content-Type is set up front but the 200 status only goes on the
	// wire with the first event line, so a run that fails before producing
	// any output can still answer with a real HTTP error status; after the
	// first byte, failures become NDJSON error lines.
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	clientGone := false
	n := 0
	execStart := time.Now()
	st, err := core.MatchStreamPlan(ctx, si.ix, pl, p.options(si), func(m join.Match) bool {
		e := matchEntry(m)
		if err := enc.Encode(&StreamEvent{Match: &e}); err != nil {
			clientGone = true
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		n++
		return true
	})
	s.executed(ctx, execStart, &st, pl, planCached)
	switch {
	case clientGone:
		// The event write failed because the client stopped reading or went
		// away mid-stream. That is the client's choice, not a server fault:
		// bill it as canceled, never failed, and write nothing more.
		return nil, func() {}, &httpError{status: 499, msg: "client closed connection mid-stream"}
	case err != nil:
		herr := matchError(err)
		if n == 0 {
			// Nothing on the wire yet: serve answers with a real HTTP status
			// (writeError resets the Content-Type).
			return nil, nil, herr
		}
		return nil, func() { _ = enc.Encode(&StreamEvent{Error: herr.msg}) }, herr
	}
	res := &MatchResponse{NumMatches: n, PlanCached: planCached, Truncated: st.Truncated, Stats: statsJSON(st)}
	return res, func() {
		_ = enc.Encode(&StreamEvent{Done: &StreamDone{
			NumMatches: n,
			Truncated:  st.Truncated,
			Alpha:      p.alpha,
			Strategy:   p.stratName,
			PlanCached: planCached,
			Stats:      res.Stats,
		}})
	}, nil
}

// ExplainResponse answers POST /explain: the plan tree the query would
// execute under right now, without executing it. Because /explain and the
// match endpoints share the plan cache, a subsequent identical match request
// executes — and reports in its stats — this very tree.
type ExplainResponse struct {
	Plan *plan.Tree `json:"plan"`
	// Cached reports a plan-cache hit (the tree was compiled by an earlier
	// request against the same index generation).
	Cached bool `json:"cached"`
	// ReduceSkipped is the reduce row's "skipped" of a run of this request:
	// "limit" when its order and limit leave out the plan's reduction.
	ReduceSkipped string `json:"reduce_skipped,omitempty"`
	// Links is the build row's "links" of a run of this request: "keyed"
	// when its order and limit make the run build no links and walk its
	// paths by root and join key.
	Links string `json:"links,omitempty"`
}

// handleExplain plans a match request without executing it. The request
// body is a MatchRequest; limit/order/timeout fields are run-time knobs that
// do not change the plan — order and limit only decide whether a run of it
// skips the reduction and links by key, which the response reports.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, "explain", func(ctx context.Context, si *servedIndex, p *matchParams) (*MatchResponse, func(), error) {
		// Planning enumerates every simple path of the query (exponential in
		// query size), so /explain plans under a worker slot and the request
		// deadline like the compute endpoints — a burst of explains must not
		// starve the match traffic the pool was sized for. It is NOT subject
		// to cost-based admission: asking what a query would cost must stay
		// answerable precisely when the answer is "too much".
		pl, cached, err := s.planned(ctx, si, p, false)
		if err != nil {
			return nil, nil, err
		}
		<-s.sem
		ex := &ExplainResponse{Plan: pl.Tree, Cached: cached, ReduceSkipped: pl.ReduceSkipped(p.order, p.limit), Links: plan.Links(p.order, p.limit)}
		return nil, func() { writeJSON(w, http.StatusOK, ex) }, nil
	})
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, "match", s.answer)
}

// HealthResponse is the body of GET /healthz (readiness) and
// GET /healthz/live (liveness). Liveness reports only ok + uptime; the
// readiness form adds the serving generation and index identity, and
// answers 503 with ready:false while the first index build/load or a
// publish swap is in flight — the signal a load balancer's health-checker
// keys on.
type HealthResponse struct {
	OK            bool    `json:"ok"`
	Ready         bool    `json:"ready"`
	Generation    uint64  `json:"generation"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Index         string  `json:"index,omitempty"`
	IndexEntries  uint64  `json:"index_entries,omitempty"`
	Nodes         int     `json:"nodes,omitempty"`
	Edges         int     `json:"edges,omitempty"`
	MaxLen        int     `json:"max_len,omitempty"`
	Beta          float64 `json:"beta,omitempty"`
}

// handleHealth is the readiness probe: 200 only when an index is installed
// and no swap is mid-flip, so a server answering 200 here can serve a match
// immediately.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := &HealthResponse{
		Generation:    s.gen.Load(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	si, release := s.acquireIndex()
	defer release()
	if si == nil || s.swapping.Load() > 0 {
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	ix := si.ix
	st := ix.Stats()
	resp.OK = true
	resp.Ready = true
	resp.Index = si.id
	resp.IndexEntries = st.Entries
	resp.Nodes = ix.Graph().NumNodes()
	resp.Edges = ix.Graph().NumEdges()
	resp.MaxLen = ix.MaxLen()
	resp.Beta = ix.Beta()
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthLive is the liveness probe: 200 as soon as the process
// serves HTTP, index or not — restarting on its failure is correct,
// restarting on readiness failure is not.
func (s *Server) handleHealthLive(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, &HealthResponse{
		OK:            true,
		Ready:         s.Ready(),
		Generation:    s.gen.Load(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

// Ready reports whether the server has an installed index and no swap in
// flight.
func (s *Server) Ready() bool {
	s.mu.RLock()
	ready := s.cur != nil
	s.mu.RUnlock()
	return ready && s.swapping.Load() == 0
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	rst, pst, cst := s.cacheStats()
	si, release := s.acquireIndex()
	defer release()
	var indexEntries uint64
	var graphBytes int64
	if si != nil {
		indexEntries, graphBytes = si.ix.Stats().Entries, si.graphBytes
	}
	resp := &StatsResponse{
		Requests:          s.requests.Load(),
		Succeeded:         s.succeeded.Load(),
		Failed:            s.failed.Load(),
		Canceled:          s.canceled.Load(),
		Rejected:          s.rejected.Load(),
		CostRejected:      s.costRejected.Load(),
		CacheHits:         rst.Hits,
		CacheMisses:       rst.Misses,
		CacheEntries:      rst.Entries,
		PlanCacheHits:     pst.Hits,
		PlanCacheMisses:   pst.Misses,
		PlanCacheEntries:  pst.Entries,
		CandCacheHits:     cst.Hits,
		CandCacheMisses:   cst.Misses,
		CandCacheBypassed: cst.Bypassed,
		CandCacheEntries:  cst.Entries,
		Workers:           s.opt.Workers,
		IndexEntries:      indexEntries,
		GraphBytes:        graphBytes,
		Ingested:          s.ingested.Load(),
		IngestFailed:      s.ingestFailed.Load(),
	}
	if db := s.liveDB(); db != nil {
		st := db.Status()
		resp.Live = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// matchParams is one parsed and validated match request, shared by the
// buffered and streaming paths.
type matchParams struct {
	q *query.Query
	// shape keys the plan cache: the query's fingerprint, α's bits and the
	// strategy. The result key appends order and limit.
	shape     string
	alpha     float64
	strat     core.Strategy
	stratName string
	order     core.ResultOrder
	orderName string
	limit     int
}

// options maps the parsed request onto the core options for one evaluation
// against one served generation (whose candidate cache serves repeated
// query shapes). Every stage runs
// on one core: the worker pool, not the request, spends the server's CPU.
func (p *matchParams) options(si *servedIndex) core.Options {
	return core.Options{
		Alpha:     p.alpha,
		Strategy:  p.strat,
		Workers:   1,
		Limit:     p.limit,
		Order:     p.order,
		CandCache: si.cands,
	}
}

// requestTimeout derives one request's deadline: the server cap, lowerable
// (never raisable) by the request's timeout_ms; a non-positive timeout_ms
// leaves the cap. The comparison is in milliseconds, so a timeout_ms too
// large for a Duration cannot overflow into an expired deadline.
func (s *Server) requestTimeout(req *MatchRequest) time.Duration {
	if ms := req.TimeoutMillis; ms > 0 && ms < s.opt.RequestTimeout.Milliseconds() {
		return time.Duration(ms) * time.Millisecond
	}
	return s.opt.RequestTimeout
}

// planned takes a worker slot for the request and plans it against one
// served generation through its plan cache — a hit skips decomposition,
// cover selection and cost-model evaluation entirely — then, for a request
// that will execute, runs cost-based admission. On success the caller holds
// the slot and frees it with <-s.sem. The boolean reports whether the plan
// came from the cache (or from a concurrent identical request's planning).
func (s *Server) planned(ctx context.Context, si *servedIndex, p *matchParams, execute bool) (*plan.Plan, bool, error) {
	if err := s.acquireTraced(ctx); err != nil {
		return nil, false, err
	}
	traced := s.opt.Tracer != nil && trace.SpanFromContext(ctx).Sampled()
	t0 := time.Now()
	pl, hit, err := si.plans.Do(ctx, p.shape, func() (*plan.Plan, error) {
		if traced {
			s.opt.Tracer.RecordSpan(ctx, "plan-cache", t0, time.Since(t0), map[string]string{"result": "miss"})
		}
		t1 := time.Now()
		pl, err := core.Prepare(ctx, si.ix, p.q, p.options(si))
		if traced {
			s.opt.Tracer.RecordSpan(ctx, "plan", t1, time.Since(t1), nil)
		}
		return pl, err
	})
	if err != nil {
		err = matchError(err)
	} else if hit && traced {
		s.opt.Tracer.RecordSpan(ctx, "plan-cache", t0, time.Since(t0), map[string]string{"result": "hit"})
	}
	// Cost-based admission sits between planning and execution: a request
	// that gets here missed or bypasses the result cache, so admitting it
	// means paying the predicted cost for real.
	if err == nil && execute {
		err = s.admit(pl)
	}
	if err != nil {
		<-s.sem
		return nil, false, err
	}
	return pl, hit, nil
}

// executed records a run's stage rows as child spans and then bills the
// planning this request ran, if it missed the plan cache: the stats carry
// the plan row, while the trace already has the planning as the "plan" span
// and gets no "stage.plan" span.
func (s *Server) executed(ctx context.Context, execStart time.Time, st *core.Stats, pl *plan.Plan, planCached bool) {
	s.stageSpans(ctx, execStart, st.Stages)
	if !planCached {
		core.BillPlanning(st, pl)
	}
}

// acquireTraced takes a worker slot like acquire, recording the wait as an
// "admission" child span of the request (queue time is exactly what a
// saturated-pool investigation needs to see per trace).
func (s *Server) acquireTraced(ctx context.Context) error {
	t0 := time.Now()
	err := s.acquire(ctx)
	if s.opt.Tracer != nil && trace.SpanFromContext(ctx).Sampled() {
		s.opt.Tracer.RecordSpan(ctx, "admission", t0, time.Since(t0),
			map[string]string{"outcome": outcomeOf(err)})
	}
	return err
}

// stageSpans converts the executor's already-timed stage rows into child
// spans: each row carries its start offset from the run's beginning, so
// the spans reproduce the exact execution timeline without the executor
// knowing tracing exists.
func (s *Server) stageSpans(ctx context.Context, execStart time.Time, stages []plan.StageStats) {
	if s.opt.Tracer == nil || !trace.SpanFromContext(ctx).Sampled() {
		return
	}
	for i := range stages {
		sg := &stages[i]
		attrs := map[string]string{
			"obs_rows": strconv.FormatFloat(sg.ObsRows, 'g', -1, 64),
		}
		if sg.Pruned != 0 {
			attrs["pruned"] = strconv.FormatInt(sg.Pruned, 10)
		}
		if sg.Skipped != "" { // on the stage and, for whoever reads one span, the request
			attrs["skipped"] = sg.Skipped
			trace.SpanFromContext(ctx).SetAttr(sg.Name+"_skipped", sg.Skipped)
		}
		if sg.Links != "" {
			attrs["links"] = sg.Links
		}
		if sg.KeyWalks != 0 {
			attrs["key_walks"] = strconv.Itoa(sg.KeyWalks)
			attrs["key_rows"] = strconv.Itoa(sg.KeyRows)
		}
		s.opt.Tracer.RecordSpan(ctx, "stage."+sg.Name,
			execStart.Add(time.Duration(sg.StartMicros*1e3)),
			time.Duration(sg.Micros*1e3), attrs)
	}
}

// parseParams validates one request against the served index's alphabet.
func (s *Server) parseParams(ix pathindex.Reader, req *MatchRequest) (*matchParams, error) {
	p := &matchParams{alpha: req.Alpha, limit: req.Limit}
	if p.alpha == 0 {
		p.alpha = defaultAlpha
	}
	if p.alpha < 0 || p.alpha > 1 {
		return nil, badRequest("alpha %v out of range (0,1]", p.alpha)
	}
	if p.limit < 0 {
		return nil, badRequest("negative limit %d", p.limit)
	}
	var err error
	if p.strat, p.stratName, err = parseStrategy(req.Strategy); err != nil {
		return nil, badRequest("%v", err)
	}
	if p.order, p.orderName, err = parseOrder(req.Order); err != nil {
		return nil, badRequest("%v", err)
	}
	if p.q, err = query.ParseString(req.Query, ix.Graph().Alphabet()); err != nil {
		return nil, badRequest("%v", err)
	}
	if err := p.q.Validate(ix.Graph().Alphabet()); err != nil {
		return nil, badRequest("%v", err)
	}
	fp := query.Fingerprint(p.q)
	shape := make([]byte, 0, len(fp)+9)
	shape = binary.LittleEndian.AppendUint64(append(shape, fp...), math.Float64bits(p.alpha))
	p.shape = string(append(shape, byte(p.strat)))
	return p, nil
}

// answer is /match's part of the request path: the generation's result
// cache, whose misses run compute. It has no reply of its own; serve writes
// the response.
func (s *Server) answer(ctx context.Context, si *servedIndex, p *matchParams) (*MatchResponse, func(), error) {
	// Concurrent identical cold requests share one computation: the first
	// computes under a worker slot and the rest wait without taking one.
	key := string(binary.AppendUvarint(append([]byte(p.shape), byte(p.order)), uint64(p.limit)))
	res, hit, err := si.results.Do(ctx, key, func() (*MatchResponse, error) { return s.compute(ctx, si, p) })
	if err != nil {
		return nil, nil, matchError(err)
	}
	if hit {
		cached := *res
		cached.Cached = true
		return &cached, nil, nil
	}
	return res, nil, nil
}

// compute runs one match evaluation under a worker-pool slot: plan (or
// reuse the cached plan), execute, convert.
func (s *Server) compute(ctx context.Context, si *servedIndex, p *matchParams) (*MatchResponse, error) {
	pl, planCached, err := s.planned(ctx, si, p, true)
	if err != nil {
		return nil, err
	}
	defer func() { <-s.sem }()
	execStart := time.Now()
	result, err := core.MatchPlan(ctx, si.ix, pl, p.options(si))
	if err != nil {
		return nil, matchError(err)
	}
	s.executed(ctx, execStart, &result.Stats, pl, planCached)

	res := &MatchResponse{
		NumMatches: len(result.Matches),
		Matches:    make([]MatchEntry, len(result.Matches)),
		Alpha:      p.alpha,
		Strategy:   p.stratName,
		PlanCached: planCached,
		Truncated:  result.Stats.Truncated,
		Stats:      statsJSON(result.Stats),
	}
	for i, m := range result.Matches {
		res.Matches[i] = matchEntry(m)
	}
	return res, nil
}

// matchError maps an error out of the match pipeline to an HTTP status. An
// options-validation failure is the request's own fault and maps to 400;
// after that, anything that is not the request's deadline or disconnect is
// a server fault (e.g. index I/O).
func matchError(err error) *httpError {
	var he *httpError
	if errors.As(err, &he) {
		return he
	}
	if oe, ok := core.IsOptionsError(err); ok {
		return badRequest("%v", oe)
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &httpError{status: http.StatusGatewayTimeout, msg: "match timed out"}
	case errors.Is(err, context.Canceled):
		return &httpError{status: 499, msg: "client closed request"}
	default:
		return &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
}

// matchEntry converts one core match into its JSON form.
func matchEntry(m join.Match) MatchEntry {
	e := MatchEntry{Mapping: make([]uint32, len(m.Mapping)), Pr: m.Pr(), Prle: m.Prle, Prn: m.Prn}
	for j, v := range m.Mapping {
		e.Mapping[j] = uint32(v)
	}
	return e
}

// statsJSON converts per-run statistics into their JSON form.
func statsJSON(st core.Stats) *MatchStats {
	return &MatchStats{
		NumPaths:        st.NumPaths,
		SSFinal:         st.SSFinal,
		TotalMicros:     plan.Micros(st.Total),
		PlanMicros:      plan.Micros(st.PlanTime),
		DecomposeMicros: plan.Micros(st.DecomposeTime),
		CandidateMicros: plan.Micros(st.CandidateTime),
		ReduceMicros:    plan.Micros(st.ReduceTime),
		JoinMicros:      plan.Micros(st.JoinTime),
		Plan:            st.Plan,
		Stages:          st.Stages,
		PlannedOrder:    st.PlannedOrder,
		ExecOrder:       st.ExecOrder,
	}
}

// acquire takes a worker slot, waiting while the queue has room and the
// request is still live; it sheds load once QueueDepth requests are already
// waiting. The shed is counted by finishRequest (via outcomeOf), not here,
// so every terminal state settles through exactly one code path.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if s.waiters.Add(1) > int64(s.opt.QueueDepth) {
		s.waiters.Add(-1)
		return errSaturated
	}
	defer s.waiters.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return &httpError{status: http.StatusGatewayTimeout, msg: "timed out waiting for a worker"}
		}
		return &httpError{status: 499, msg: "client closed request"}
	}
}

// admit is the cost-based admission check, run after planning and before
// execution: the plan's total cost estimate is compared against
// the configured budget, and a predicted-expensive query is turned away with
// 429 + Retry-After without consuming executor time. Every planned execution
// feeds the cost histogram, so the exported distribution shows where the
// budget sits relative to real traffic.
func (s *Server) admit(pl *plan.Plan) error {
	if pl.Tree == nil {
		return nil
	}
	cost := pl.Tree.Cost.Total
	s.met.planCost.Observe(cost)
	if s.opt.MaxPlanCost > 0 && cost > s.opt.MaxPlanCost {
		return &httpError{
			status:     http.StatusTooManyRequests,
			msg:        fmt.Sprintf("admission: predicted plan cost %.0f exceeds the server budget %.0f", cost, s.opt.MaxPlanCost),
			retryAfter: 1,
		}
	}
	return nil
}

// outcomeOf classifies a request's terminal error into its accounting class.
// A client that went away (499 anywhere in the pipeline, or a bare context
// cancellation) is canceled, not failed: the server did nothing wrong, and
// billing disconnects as failures poisons both alerting and the
// succeeded/failed ratio.
func outcomeOf(err error) string {
	if err == nil {
		return outcomeOK
	}
	var he *httpError
	if errors.As(err, &he) {
		switch {
		case he == errSaturated:
			return outcomeShed
		case he.status == http.StatusTooManyRequests:
			return outcomeCostRejected
		case he.status == 499:
			return outcomeCanceled
		}
		return outcomeFailed
	}
	if errors.Is(err, context.Canceled) {
		return outcomeCanceled
	}
	return outcomeFailed
}

// finishRequest settles one request previously counted in s.requests:
// exactly one outcome counter, the endpoint latency histogram, the
// per-stage histograms for fresh (non-cached) executions, and the
// request's root span sp. serve calls it on every terminal path, so the
// requests = Σ outcomes invariant cannot drift.
func (s *Server) finishRequest(endpoint string, start time.Time, sp *trace.Span, req *MatchRequest, res *MatchResponse, err error) {
	outcome := outcomeOf(err)
	switch outcome {
	case outcomeOK:
		s.succeeded.Add(1)
	case outcomeCanceled:
		s.canceled.Add(1)
	case outcomeShed:
		s.rejected.Add(1)
	case outcomeCostRejected:
		s.costRejected.Add(1)
	default:
		s.failed.Add(1)
	}
	s.met.requests.WithLabelValues(endpoint, outcome).Inc()
	s.met.latency.WithLabelValue(endpoint).Observe(time.Since(start).Seconds())
	if res != nil && !res.Cached && res.Stats != nil {
		s.met.observeStages(res.Stats)
	}
	endRequestSpan(sp, outcome, req, res, err)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	var he *httpError
	if !errors.As(err, &he) {
		he = &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	if he.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(he.retryAfter))
	}
	writeJSON(w, he.status, map[string]string{"error": he.msg})
}

// parseStrategy maps a request strategy name to the core constant, returning
// the normalized name. An empty name selects the optimized strategy.
func parseStrategy(name string) (core.Strategy, string, error) {
	switch name {
	case "", "optimized":
		return core.StrategyOptimized, "optimized", nil
	case "random-decomp":
		return core.StrategyRandomDecomp, "random-decomp", nil
	case "no-ss-reduction":
		return core.StrategyNoSSReduction, "no-ss-reduction", nil
	}
	return 0, "", fmt.Errorf("unknown strategy %q", name)
}

// parseOrder maps a request order name to the core constant, returning the
// normalized name. An empty name selects emission order.
func parseOrder(name string) (core.ResultOrder, string, error) {
	switch name {
	case "", "emit":
		return core.OrderEmit, "emit", nil
	case "prob":
		return core.OrderByProb, "prob", nil
	}
	return 0, "", fmt.Errorf("unknown order %q (want \"emit\" or \"prob\")", name)
}
