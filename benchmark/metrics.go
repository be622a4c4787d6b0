package main

// metricDef is one named metric. BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds; metrics_test.go fails
// when the two drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median a change may lose
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them. A bound is one number per metric over all four
// workloads. The four that are timings carry the widest bound the driver
// admits: this machine's speed changes by up to a third for minutes at a
// time (README, "Spread on this machine"), and no statistic of one run's
// window removes that. The three that are counts repeat and are bound as
// the issue asked.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"alloc_kb_per_query", "KiB", "lower", 0.05},
	{"live_heap_mb", "MiB", "lower", 0.10},
	{"index_mb", "MiB", "lower", 0.01},
}

// perLayer are the single-layer metrics of the traced run, layer = module.
// A workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{Name: "driver.query_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.send_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.send_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.issued_over_offered", Unit: "ratio", Better: "higher"},
	{Name: "driver.slo_miss_share", Unit: "ratio", Better: "lower"},
	{Name: "driver.error_share", Unit: "ratio", Better: "lower"},
	{Name: "driver.cpu_utilisation", Unit: "ratio", Better: "lower"},
	{Name: "driver.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "driver.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "driver.matches_per_query", Unit: "count", Better: "higher"},
	{Name: "driver.pool_fingerprint", Unit: "count", Better: "higher"},
	{Name: "driver.result_fingerprint", Unit: "count", Better: "higher"},
	{Name: "driver.trace_overhead_ratio", Unit: "ratio", Better: "lower"},

	{Name: "entity.build_s", Unit: "s", Better: "lower"},
	{Name: "entity.entities", Unit: "count", Better: "lower"},
	{Name: "entity.components", Unit: "count", Better: "lower"},

	{Name: "pathindex.build_s", Unit: "s", Better: "lower"},
	{Name: "pathindex.open_us", Unit: "us", Better: "lower"},
	{Name: "pathindex.entries", Unit: "count", Better: "lower"},
	{Name: "pathindex.bytes_per_entry", Unit: "B", Better: "lower"},
	{Name: "pathindex.lookup_us", Unit: "us", Better: "lower"},
	{Name: "pathindex.lookup_rows", Unit: "count", Better: "lower"},
	{Name: "pathindex.lookup_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "pathindex.cardinality_us", Unit: "us", Better: "lower"},
	{Name: "pathindex.self_share", Unit: "ratio", Better: "lower"},

	{Name: "query.parse_us", Unit: "us", Better: "lower"},
	{Name: "plan.plan_us", Unit: "us", Better: "lower"},
	{Name: "plan.paths", Unit: "count", Better: "lower"},
	{Name: "plan.card_q_error", Unit: "ratio", Better: "lower"},
	{Name: "plan.reorder_share", Unit: "ratio", Better: "lower"},

	{Name: "candidates.find_us", Unit: "us", Better: "lower"},
	{Name: "candidates.prune_us", Unit: "us", Better: "lower"},
	{Name: "candidates.initial", Unit: "count", Better: "lower"},
	{Name: "candidates.kept", Unit: "count", Better: "lower"},
	{Name: "candidates.keep_ratio", Unit: "ratio", Better: "lower"},
	{Name: "candidates.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "candidates.self_share", Unit: "ratio", Better: "lower"},

	{Name: "kpartite.build_us", Unit: "us", Better: "lower"},
	{Name: "kpartite.links", Unit: "count", Better: "lower"},
	{Name: "kpartite.reduce_us", Unit: "us", Better: "lower"},
	{Name: "kpartite.reduce_rounds", Unit: "count", Better: "lower"},
	{Name: "kpartite.reduce_keep_ratio", Unit: "ratio", Better: "lower"},
	{Name: "kpartite.self_share", Unit: "ratio", Better: "lower"},

	{Name: "join.order_us", Unit: "us", Better: "lower"},
	{Name: "join.enumerate_us", Unit: "us", Better: "lower"},
	{Name: "join.matches", Unit: "count", Better: "higher"},
	{Name: "join.ns_per_match", Unit: "ns", Better: "lower"},
	{Name: "join.self_share", Unit: "ratio", Better: "lower"},

	{Name: "core.sort_us", Unit: "us", Better: "lower"},
	{Name: "core.first_yield_us", Unit: "us", Better: "lower"},
	{Name: "core.facade_residual_us", Unit: "us", Better: "lower"},

	{Name: "server.start_s", Unit: "s", Better: "lower"},
	{Name: "server.roundtrip_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.reported_total_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.overhead_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.stream_first_line_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.response_kb_per_query", Unit: "KiB", Better: "lower"},
	{Name: "server.result_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.cand_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.cand_cache_bypass_share", Unit: "ratio", Better: "lower"},
	{Name: "server.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "server.cost_rejected_share", Unit: "ratio", Better: "lower"},

	{Name: "live.create_s", Unit: "s", Better: "lower"},
	{Name: "live.ingest_ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "live.ingest_ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "live.mutations_per_s", Unit: "1/s", Better: "higher"},
	{Name: "live.wal_bytes_per_mutation", Unit: "B", Better: "lower"},
	{Name: "live.compactions", Unit: "count", Better: "higher"},
	{Name: "live.compaction_s_total", Unit: "s", Better: "lower"},
	{Name: "live.generation_swaps", Unit: "count", Better: "higher"},
	{Name: "live.dirty_entities_max", Unit: "count", Better: "lower"},
	{Name: "live.read_slowdown_compacting", Unit: "ratio", Better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named keeps the values whose names defs lists, in a map with their
// units; a name without a value reports 0.
func named(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ledger turns the replayed queries' observations into the per-layer
// metrics of plan, candidates, kpartite, join and core, plus the index's
// query-time share. Values are per-query medians unless the unit is a
// ratio or a per-row/per-match cost, which are totals divided by totals.
// untracedP50us is the untraced window's median, for the façade residual.
func ledger(obs []stageObs, untracedP50us float64) map[string]float64 {
	out := make(map[string]float64)
	if len(obs) == 0 {
		return out
	}
	col := func(f func(o *stageObs) float64) []float64 {
		xs := make([]float64, len(obs))
		for i := range obs {
			xs[i] = f(&obs[i])
		}
		return xs
	}
	med := func(f func(o *stageObs) float64) float64 { return median(col(f)) }
	sum := func(f func(o *stageObs) float64) float64 {
		t := 0.0
		for _, x := range col(f) {
			t += x
		}
		return t
	}
	spanUs := func(name string) func(o *stageObs) float64 {
		return func(o *stageObs) float64 { return float64(o.byName[name]) / 1e3 }
	}
	selfNs := func(layer string) func(o *stageObs) float64 {
		return func(o *stageObs) float64 { return float64(o.self[layer]) }
	}
	totalNs := sum(func(o *stageObs) float64 { return o.total * 1e3 })
	share := func(layer string) float64 { return ratio(sum(selfNs(layer)), totalNs) }

	out["pathindex.lookup_us"] = med(spanUs("pathindex.lookup"))
	out["pathindex.lookup_rows"] = med(func(o *stageObs) float64 { return float64(o.lookupRows) })
	out["pathindex.lookup_ns_per_row"] = ratio(sum(spanUs("pathindex.lookup"))*1e3, sum(func(o *stageObs) float64 { return float64(o.lookupRows) }))
	out["pathindex.cardinality_us"] = med(spanUs("pathindex.cardinality"))
	out["pathindex.self_share"] = share("pathindex")

	out["query.parse_us"] = med(func(o *stageObs) float64 { return o.parse })
	out["plan.plan_us"] = med(func(o *stageObs) float64 { return o.plan })
	out["plan.paths"] = med(func(o *stageObs) float64 { return float64(o.paths) })
	out["plan.card_q_error"] = med(func(o *stageObs) float64 { return o.qerr })
	out["plan.reorder_share"] = sum(func(o *stageObs) float64 {
		if o.reordered {
			return 1
		}
		return 0
	}) / float64(len(obs))

	out["candidates.find_us"] = med(func(o *stageObs) float64 { return o.find })
	out["candidates.prune_us"] = med(selfNs("candidates")) / 1e3
	out["candidates.initial"] = med(func(o *stageObs) float64 { return float64(o.initial) })
	out["candidates.kept"] = med(func(o *stageObs) float64 { return float64(o.kept) })
	out["candidates.keep_ratio"] = ratio(sum(func(o *stageObs) float64 { return float64(o.kept) }), sum(func(o *stageObs) float64 { return float64(o.initial) }))
	out["candidates.self_share"] = share("candidates")

	out["kpartite.build_us"] = med(func(o *stageObs) float64 { return o.build })
	out["kpartite.links"] = med(func(o *stageObs) float64 { return float64(o.links) })
	out["kpartite.reduce_us"] = med(func(o *stageObs) float64 { return o.reduce })
	out["kpartite.reduce_rounds"] = med(func(o *stageObs) float64 { return float64(o.rounds) })
	out["kpartite.reduce_keep_ratio"] = ratio(sum(func(o *stageObs) float64 { return float64(o.aliveOut) }), sum(func(o *stageObs) float64 { return float64(o.aliveIn) }))
	out["kpartite.self_share"] = share("kpartite")

	out["join.order_us"] = med(func(o *stageObs) float64 { return o.order })
	out["join.enumerate_us"] = med(func(o *stageObs) float64 { return o.enumerate })
	out["join.matches"] = med(func(o *stageObs) float64 { return float64(o.matches) })
	out["join.ns_per_match"] = ratio(sum(func(o *stageObs) float64 { return o.enumerate * 1e3 }), sum(func(o *stageObs) float64 { return float64(o.matches) }))
	out["join.self_share"] = share("join")

	out["core.sort_us"] = med(func(o *stageObs) float64 { return o.sort })
	out["core.first_yield_us"] = med(func(o *stageObs) float64 { return o.firstYield })
	out["core.facade_residual_us"] = untracedP50us - med(func(o *stageObs) float64 {
		return o.plan + o.find + o.build + o.reduce + o.order + o.enumerate + o.sort
	})
	return out
}
