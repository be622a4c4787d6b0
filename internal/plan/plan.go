// Package plan turns the paper's fixed online pipeline (Section 5.2) into a
// planner-driven engine. The Planner enumerates candidate plans —
// decomposition mode × probe-reduction on/off × join-order heuristic —
// against a cost model fed by the offline histograms, and compiles the
// cheapest into an explicit Plan value: a plan is a function of the index,
// the query and the options, never of the runs before it. The Executor runs
// a Plan in stages (candidate retrieval → k-partite build → reduction →
// join), records per-stage timings, estimated vs. observed cardinalities,
// and prune counts in Stats, and adaptively re-orders the join on the
// observed candidate counts (the result set is invariant under join order —
// only cost changes).
//
// A Plan carries two faces: the compiled artifacts the Executor needs
// (query, decomposition, resolved knobs) and a JSON-serializable Tree that
// EXPLAIN surfaces end-to-end (core.Explain, POST /explain, pegquery
// -explain) and that Stats reports back after execution. Plans are immutable
// once built, so a server-side plan cache can hand one Plan to any number of
// concurrent executions.
package plan

import (
	"fmt"
	"time"

	"repro/internal/decompose"
	"repro/internal/join"
	"repro/internal/query"
)

// ResultOrder selects how an execution emits matches.
type ResultOrder int

const (
	// OrderEmit (default) emits matches in the order the join enumeration
	// discovers them: lowest latency to the first match, and with Limit > 0
	// the enumeration stops as soon as Limit matches were emitted.
	OrderEmit ResultOrder = iota
	// OrderByProb emits matches in decreasing probability (ties broken by
	// mapping). The join must run to completion before the first emission,
	// but with Limit > 0 the run retains only the top-Limit matches in a
	// bounded min-heap, so memory stays O(Limit) regardless of the match
	// count.
	OrderByProb
)

// String implements fmt.Stringer.
func (o ResultOrder) String() string {
	switch o {
	case OrderEmit:
		return "emit"
	case OrderByProb:
		return "prob"
	}
	return fmt.Sprintf("ResultOrder(%d)", int(o))
}

// Plan is one compiled execution plan: the decomposition and resolved knobs
// the Executor runs, plus the serializable Tree EXPLAIN shows. Immutable
// after planning; safe to execute concurrently and to reuse from a cache.
type Plan struct {
	// Query is the compiled query the plan answers.
	Query *query.Query
	// Dec is the chosen decomposition (paths, join predicates, covers).
	Dec *decompose.Decomposition
	// Alpha is the probability threshold the plan was built for.
	Alpha float64
	// Reduce selects the joint search-space reduction stage.
	Reduce bool
	// OrderMode is the join-order heuristic; Order is the planned join
	// order under the estimated cardinalities. The executor recomputes the
	// order from observed counts at run time (Stats.ExecOrder) — the plan
	// records what the estimates said.
	OrderMode join.OrderMode
	Order     []int
	// Tree is the JSON-serializable plan tree.
	Tree *Tree
	// PlanTime is the planning wall clock (enumeration, covers, costing);
	// DecomposeTime is the share spent in decomposition covers. Copied into
	// Stats by fresh plan-and-run calls and left zero by cached-plan
	// executions — which is exactly the work a plan cache hit skips.
	PlanTime      time.Duration
	DecomposeTime time.Duration
}

// Tree is the JSON-serializable plan tree: what EXPLAIN prints, what
// POST /explain returns, and what Stats.Plan reports after execution.
type Tree struct {
	// Query is the canonical query text (parse → Format).
	Query string `json:"query"`
	// Alpha is the probability threshold α.
	Alpha float64 `json:"alpha"`
	// Strategy is the requested matching strategy name.
	Strategy string `json:"strategy"`
	// DecomposeMode is "optimized" (SET COVER) or "random" (baseline).
	DecomposeMode string `json:"decompose_mode"`
	// DecomposeSeed is the seed the random cover drew (random mode only);
	// replaying with this seed reproduces the decomposition exactly.
	DecomposeSeed int64 `json:"decompose_seed,omitempty"`
	// Reduce reports whether the joint search-space reduction stage runs.
	Reduce bool `json:"reduce"`
	// JoinOrderMode is "heuristic" (three-tier rule) or "cardinality".
	JoinOrderMode string `json:"join_order_mode"`
	// JoinOrder is the planned partition order under estimated counts.
	JoinOrder []int `json:"join_order"`
	// AdaptiveJoin reports that the executor re-orders the join from
	// observed candidate counts after retrieval (results are unaffected).
	AdaptiveJoin bool `json:"adaptive_join_reorder"`
	// Paths describes the decomposition, one node per path.
	Paths []PathNode `json:"paths"`
	// Cost is the estimated cost breakdown of the chosen plan.
	Cost Cost `json:"cost"`
	// Alternatives lists the rejected candidate plans, cheapest first.
	Alternatives []Alternative `json:"alternatives,omitempty"`
}

// PathNode describes one decomposition path in a plan tree.
type PathNode struct {
	// ID is the partition index.
	ID int `json:"id"`
	// QueryNodes are the query node positions along the path.
	QueryNodes []int `json:"query_nodes"`
	// Labels is the label sequence, resolved to names.
	Labels []string `json:"labels"`
	// EstCard is the histogram-estimated candidate cardinality.
	EstCard float64 `json:"est_card"`
	// Cost is the path's C(P, α) = Card / (degree · density).
	Cost float64 `json:"cost"`
}

// Cost is the cost model's estimate for one candidate plan, in abstract
// row-visit units (comparable across candidates, not wall-clock).
type Cost struct {
	Candidates float64 `json:"candidates"`
	Build      float64 `json:"build"`
	Reduce     float64 `json:"reduce"`
	Join       float64 `json:"join"`
	Total      float64 `json:"total"`
}

// Alternative summarizes one rejected candidate plan.
type Alternative struct {
	DecomposeMode string  `json:"decompose_mode"`
	Reduce        bool    `json:"reduce"`
	JoinOrderMode string  `json:"join_order_mode"`
	JoinOrder     []int   `json:"join_order"`
	Cost          float64 `json:"cost"`
}

// StageStats is one executed stage's record: wall clock plus the estimated
// vs. observed row counts and how much the stage pruned.
type StageStats struct {
	// Name is "plan", "candidates", "build", "reduce", or "join".
	Name string `json:"name"`
	// Micros is the stage wall clock in microseconds, with nanosecond
	// precision preserved in the fraction: a 300ns stage reports 0.3, not 0.
	// (Truncating to whole microseconds made every plan-cache-hit planning
	// time — and most fast stages — invisible.)
	Micros float64 `json:"us"`
	// StartMicros is the stage's start offset from the beginning of the
	// run, in the same float-microsecond unit. It lets a caller that
	// recorded the run's wall-clock start reconstruct exact stage
	// timelines — the serving tier converts these rows into trace spans.
	StartMicros float64 `json:"start_us,omitempty"`
	// EstRows / ObsRows are the estimated and observed cardinalities at the
	// stage's granularity (candidate totals, search-space sizes, matches).
	EstRows float64 `json:"est_rows,omitempty"`
	ObsRows float64 `json:"obs_rows,omitempty"`
	// Pruned counts rows the stage discarded.
	Pruned int64 `json:"pruned,omitempty"`
	// Skipped, on the reduce row, says why a reduction the plan asked for
	// did not run: "limit" for an emit-order run that stops after Limit
	// matches (Plan.ReduceSkipped).
	Skipped string `json:"skipped,omitempty"`
	// Links, on the build row, is "keyed" when the run built no links and
	// its join walked the first path one root at a time and every other
	// one join key at a time (Links); ObsRows, the links built, is then 0.
	Links string `json:"links,omitempty"`
	// KeyWalks and KeyRows, on the candidates row of such a run, count the
	// root and key walks its join ran and the rows they kept
	// (pathindex.Walker.At walks filtered by the node-level sets, kept by
	// the path-level tests); Pruned and the cache counters there read 0,
	// since no path is scanned whole.
	KeyWalks int `json:"key_walks,omitempty"`
	KeyRows  int `json:"key_rows,omitempty"`
	// Workers is the parallelism the stage actually ran with (omitted for
	// inherently sequential stages).
	Workers int `json:"workers,omitempty"`
	// CacheHits/CacheMisses/CacheBypassed report candidate-cache outcomes
	// for the candidates stage (absent when no cache is configured).
	CacheHits     int `json:"cache_hits,omitempty"`
	CacheMisses   int `json:"cache_misses,omitempty"`
	CacheBypassed int `json:"cache_bypassed,omitempty"`
}

// Stats reports per-stage behaviour of one match run.
type Stats struct {
	// NumPaths is the decomposition size k.
	NumPaths int
	// SSPath, SSContext, SSAfterStructure, SSFinal are the search space
	// sizes (product of candidate list lengths) after index lookup, after
	// context pruning, after reduction by structure, and after the full
	// reduction — the progression of Figure 7(e).
	SSPath           float64
	SSContext        float64
	SSAfterStructure float64
	SSFinal          float64
	// ReductionRounds counts upperbound message-passing rounds.
	ReductionRounds int
	// Matched counts the matches emitted by this run.
	Matched int
	// Truncated reports that the emitted set may be incomplete: the
	// enumeration was stopped by Limit or by the consumer before it was
	// exhausted (OrderEmit), or matches beyond the top-Limit were
	// discarded (OrderByProb). More matches above α may exist.
	Truncated bool
	// PlanTime is the planner overhead (candidate enumeration, covers,
	// costing). Zero when the run executed a cached plan — planning was
	// skipped entirely.
	PlanTime time.Duration
	// Per-stage wall clock.
	DecomposeTime time.Duration
	CandidateTime time.Duration
	BuildTime     time.Duration
	ReduceTime    time.Duration
	JoinTime      time.Duration
	Total         time.Duration
	// Plan is the executed plan's tree — the same tree EXPLAIN returns for
	// the query (and, through the server's plan cache, the same value).
	Plan *Tree
	// Stages records the executed stages in order with timings, estimated
	// vs. observed cardinalities, and prune counts.
	Stages []StageStats
	// PlannedOrder is the join order the plan predicted from estimated
	// cardinalities; ExecOrder is the order actually executed after the
	// adaptive reorder on observed candidate counts. They differ exactly
	// when the histograms misranked the partitions.
	PlannedOrder []int
	ExecOrder    []int
}

// Micros converts a duration to float microseconds, keeping nanosecond
// precision — the stage-row and JSON-stats unit.
func Micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
