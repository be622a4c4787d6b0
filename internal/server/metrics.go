package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"

	"repro/internal/metrics"
	"repro/internal/pathindex"
	"repro/internal/trace"
)

// Request outcome classes: the label values on peg_requests_total and the
// /stats counters. Every request counted in s.requests settles into exactly
// one, so requests == ok + failed + canceled + shed + cost_rejected holds at
// any quiescent point.
const (
	outcomeOK           = "ok"
	outcomeFailed       = "failed"
	outcomeCanceled     = "canceled"      // client disconnect / 499, not a server fault
	outcomeShed         = "shed"          // 503: worker pool and queue full
	outcomeCostRejected = "cost_rejected" // 429: predicted plan cost over budget
)

// serverMetrics holds the hot-path instruments (counters and histograms the
// request path touches directly); everything that already has an
// authoritative value elsewhere — cache tallies, pool occupancy, live-DB
// state — is exported through scrape-time closures so
// serving never pays for bookkeeping it does not need.
type serverMetrics struct {
	reg *metrics.Registry

	requests *metrics.CounterVec   // peg_requests_total{endpoint,outcome}
	latency  *metrics.HistogramVec // peg_request_duration_seconds{endpoint}
	stages   *metrics.HistogramVec // peg_stage_duration_seconds{stage}
	planCost *metrics.Histogram    // peg_plan_cost
	skipped  *metrics.Counter      // peg_reduce_skipped_total

	indexInfo     *metrics.InfoGauge // peg_index_info{index}
	postingDecode *metrics.Histogram // peg_index_posting_decode_micros
	liveApply     *metrics.Histogram // peg_live_apply_seconds
}

func newServerMetrics(s *Server) *serverMetrics {
	m := &serverMetrics{
		reg: metrics.NewRegistry(),
		requests: metrics.NewCounterVec("peg_requests_total",
			"Requests by endpoint and terminal outcome.", "endpoint", "outcome"),
		// 100µs .. ~100s end-to-end; 10µs .. ~40s per stage.
		latency: metrics.NewHistogramVec("peg_request_duration_seconds",
			"End-to-end request latency by endpoint.", "endpoint",
			metrics.ExpBuckets(1e-4, 4, 11)),
		stages: metrics.NewHistogramVec("peg_stage_duration_seconds",
			"Stage latency of fresh executions: each stage row (plan on a plan-cache miss, candidates, build, reduce, join), plus decompose and total.",
			"stage", metrics.ExpBuckets(1e-5, 4, 12)),
		planCost: metrics.NewHistogram("peg_plan_cost",
			"Planner cost estimate of admitted-or-rejected executions (cost-model units).",
			metrics.ExpBuckets(1, 8, 12)),
		skipped: metrics.NewCounter("peg_reduce_skipped_total",
			"Executions that skipped the reduction their plan asked for: emit-order limit runs it could not pay for."),
		indexInfo: metrics.NewInfoGauge("peg_index_info",
			"Identity of the served index generation.", "index"),
		// 1µs .. ~262ms per posting-blob decode.
		postingDecode: metrics.NewHistogram("peg_index_posting_decode_micros",
			"Wall-clock microseconds decoding one posting blob on the packed read path.",
			metrics.ExpBuckets(1, 4, 10)),
		// 100µs .. ~26s per accepted /ingest batch.
		liveApply: metrics.NewHistogram("peg_live_apply_seconds",
			"Wall clock of live.DB.Apply per accepted /ingest batch, time queued behind other writers included.",
			metrics.ExpBuckets(1e-4, 4, 10)),
	}
	// indexMetrics snapshots the served reader's read-path counters at
	// scrape time; zero-valued when the server is unready or the reader
	// predates the metrics surface.
	indexMetrics := func() pathindex.IndexMetrics {
		si, release := s.acquireIndex()
		defer release()
		if si == nil {
			return pathindex.IndexMetrics{}
		}
		src, ok := si.ix.(pathindex.MetricsSource)
		if !ok {
			return pathindex.IndexMetrics{}
		}
		return src.IndexMetrics()
	}
	m.reg.MustRegister(
		m.requests, m.latency, m.stages, m.planCost, m.skipped, m.indexInfo,
		m.postingDecode, m.liveApply,

		metrics.NewGaugeFunc("peg_index_mapped_bytes",
			"Bytes of the packed index file mapped into the process.",
			func() float64 { return float64(indexMetrics().MappedBytes) }),
		metrics.NewCounterFunc("peg_index_probes_total",
			"Index Lookup probes answered by the served generation.",
			func() float64 { return float64(indexMetrics().Probes) }),

		metrics.NewGaugeFunc("peg_index_entries",
			"Path-index entries in the served generation.", func() float64 {
				si, release := s.acquireIndex()
				defer release()
				if si == nil { // scrape of an unready server
					return 0
				}
				return float64(si.ix.Stats().Entries)
			}),
		metrics.NewGaugeFunc("peg_graph_bytes",
			"Resident bytes of the served generation's entity graph (column lengths × element sizes).", func() float64 {
				si, release := s.acquireIndex()
				defer release()
				if si == nil { // scrape of an unready server
					return 0
				}
				return float64(si.graphBytes)
			}),

		metrics.NewGaugeFunc("peg_workers",
			"Size of the match worker pool.", func() float64 { return float64(s.opt.Workers) }),
		metrics.NewGaugeFunc("peg_workers_busy",
			"Worker slots currently executing.", func() float64 { return float64(len(s.sem)) }),
		metrics.NewGaugeFunc("peg_queue_waiting",
			"Requests waiting for a worker slot.", func() float64 { return float64(s.waiters.Load()) }),
		metrics.NewGaugeFunc("peg_queue_depth_limit",
			"Waiting requests beyond this are shed with 503.", func() float64 { return float64(s.opt.QueueDepth) }),
		metrics.NewGaugeFunc("peg_admission_max_cost",
			"Plan-cost admission budget (0 = admission disabled).", func() float64 { return s.opt.MaxPlanCost }),

		metrics.NewCounterFunc("peg_result_cache_hits_total",
			"Result-cache hits.", func() float64 { r, _ := s.cacheStats(); return float64(r.Hits) }),
		metrics.NewCounterFunc("peg_result_cache_misses_total",
			"Result-cache misses.", func() float64 { r, _ := s.cacheStats(); return float64(r.Misses) }),
		metrics.NewGaugeFunc("peg_result_cache_entries",
			"Result-cache resident entries (current generation).", func() float64 { r, _ := s.cacheStats(); return float64(r.Entries) }),
		metrics.NewCounterFunc("peg_plan_cache_hits_total",
			"Plan-cache hits (evaluations that skipped planning).", func() float64 { _, p := s.cacheStats(); return float64(p.Hits) }),
		metrics.NewCounterFunc("peg_plan_cache_misses_total",
			"Plan-cache misses.", func() float64 { _, p := s.cacheStats(); return float64(p.Misses) }),
		metrics.NewGaugeFunc("peg_plan_cache_entries",
			"Plan-cache resident entries (current generation).", func() float64 { _, p := s.cacheStats(); return float64(p.Entries) }),

		metrics.NewCounterFunc("peg_ingested_mutations_total",
			"Mutations applied through /ingest.", func() float64 { return float64(s.ingested.Load()) }),
		metrics.NewCounterFunc("peg_ingest_failed_total",
			"Failed /ingest batches.", func() float64 { return float64(s.ingestFailed.Load()) }),

		&liveCollector{s: s},
	)
	m.reg.MustRegister(traceCollectors(s.opt.Tracer)...)
	return m
}

// traceCollectors builds the peg_trace_* families over the tracer's
// stats. The families render zeros when tracing is disabled (Stats on a
// nil tracer), keeping the page shape stable.
func traceCollectors(t *trace.Tracer) []metrics.Collector {
	stats := t.Stats
	return []metrics.Collector{
		metrics.NewCounterFunc("peg_trace_spans_recorded_total",
			"Finished spans recorded into the trace ring buffer.",
			func() float64 { return float64(stats().Recorded) }),
		metrics.NewCounterFunc("peg_trace_spans_dropped_total",
			"Ring-buffer spans overwritten before being read.",
			func() float64 { return float64(stats().Dropped) }),
		metrics.NewCounterFunc("peg_trace_spans_exported_total",
			"Spans exported as NDJSON lines.",
			func() float64 { return float64(stats().Exported) }),
		metrics.NewCounterFunc("peg_trace_sampled_roots_total",
			"New root spans the head sampler kept.",
			func() float64 { return float64(stats().Sampled) }),
		metrics.NewCounterFunc("peg_trace_unsampled_roots_total",
			"New root spans the head sampler discarded.",
			func() float64 { return float64(stats().Unsampled) }),
		metrics.NewCounterFunc("peg_trace_inherited_contexts_total",
			"Remote trace contexts continued (sampling decision inherited).",
			func() float64 { return float64(stats().Inherited) }),
	}
}

// observeStages feeds one fresh (non-cached) execution's stats into the
// stage histograms: every stage row once under its own name, plus the
// decomposition share of planning and the run's total. A plan-cache hit
// has no plan row and zero decompose time — planning did not run, so it is
// not observed.
func (m *serverMetrics) observeStages(st *MatchStats) {
	for i := range st.Stages {
		sg := &st.Stages[i]
		m.stages.WithLabelValue(sg.Name).Observe(sg.Micros / 1e6)
		if sg.Name == "reduce" && sg.Skipped != "" {
			m.skipped.Inc()
		}
	}
	if st.DecomposeMicros > 0 {
		m.stages.WithLabelValue("decompose").Observe(st.DecomposeMicros / 1e6)
	}
	m.stages.WithLabelValue("total").Observe(st.TotalMicros / 1e6)
}

// liveCollector renders the live-database families from one Status() call
// per scrape (Status takes the DB mutex; a gauge closure per family would
// take it once per family). Nothing is emitted when the server runs read-only.
type liveCollector struct{ s *Server }

func (c *liveCollector) Name() string { return "peg_live" }

func (c *liveCollector) Collect(w io.Writer) {
	db := c.s.liveDB()
	if db == nil {
		return
	}
	st := db.Status()
	b := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	for _, g := range []struct {
		name, help, typ string
		v               float64
	}{
		{"peg_live_generation", "Current live view generation.", "gauge", float64(st.Generation)},
		{"peg_live_mutation_lag", "Mutations folded into the live view since its base index was built.", "gauge", float64(st.Mutations)},
		{"peg_live_dirty_entities", "Entities the mutations dirtied since the base index was built; reads walk their paths on demand.", "gauge", float64(st.DirtyEntities)},
		{"peg_live_entities", "Entities in the live graph.", "gauge", float64(st.Entities)},
		{"peg_live_compacting", "1 while a background compaction is running.", "gauge", b(st.Compacting)},
		{"peg_live_compactions_total", "Completed background compactions.", "counter", float64(st.Compactions)},
		{"peg_live_last_compaction_seconds", "Wall clock of the most recent compaction.", "gauge", float64(st.LastCompactionNanos) / 1e9},
		{"peg_live_compaction_seconds_total", "Cumulative wall clock spent compacting.", "counter", float64(st.TotalCompactionNanos) / 1e9},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", g.name, g.help, g.name, g.typ, g.name, g.v)
	}
}

// handleMetrics serves GET /metrics in Prometheus text exposition format.
// The page is rendered into a buffer first so a slow scraper cannot observe
// a torn write.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, &httpError{status: http.StatusMethodNotAllowed, msg: "GET required"})
		return
	}
	var buf bytes.Buffer
	s.met.reg.Render(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}
