// Package core is the façade over the online phase of the paper (Section
// 5.2). Since the planner refactor the orchestration itself lives in
// internal/plan: a cost-based Planner compiles an explicit Plan (query path
// decomposition mode, probe-reduction on/off, join order — enumerated
// against the histogram cost model) and a staged Executor runs it with
// per-stage observability and an adaptive join reorder. core maps the
// public Options/Strategy surface onto that subsystem, exposes EXPLAIN
// (Prepare/Explain) and cached-plan execution (MatchStreamPlan/MatchPlan),
// and keeps the paper's evaluation baselines selectable as constrained
// points of the plan space.
package core

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"

	"repro/internal/candidates"
	"repro/internal/decompose"
	"repro/internal/join"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/query"
)

// Strategy selects the matching variant of Section 6.2.1. Every strategy
// routes through the planner; the baselines pin a single candidate plan
// while StrategyOptimized opens the full plan space to the cost model.
type Strategy int

const (
	// StrategyOptimized is the full proposed approach: the planner
	// enumerates decomposition mode × probe-reduction × join order and
	// picks the cheapest candidate under the histogram cost model.
	StrategyOptimized Strategy = iota
	// StrategyRandomDecomp replaces SET COVER with random decomposition and
	// orders joins by candidate count only.
	StrategyRandomDecomp
	// StrategyNoSSReduction skips the joint search space reduction and goes
	// straight from candidate lists to result generation.
	StrategyNoSSReduction
)

// String implements fmt.Stringer for benchmark labels.
func (s Strategy) String() string {
	switch s {
	case StrategyOptimized:
		return "Optimized"
	case StrategyRandomDecomp:
		return "RandomDecomp"
	case StrategyNoSSReduction:
		return "NoSSReduction"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Name returns the wire name used by the server API and plan trees.
func (s Strategy) Name() string {
	switch s {
	case StrategyOptimized:
		return "optimized"
	case StrategyRandomDecomp:
		return "random-decomp"
	case StrategyNoSSReduction:
		return "no-ss-reduction"
	}
	return fmt.Sprintf("strategy-%d", int(s))
}

// space maps a strategy onto the planner's candidate space.
func (s Strategy) space() plan.Space {
	switch s {
	case StrategyRandomDecomp:
		return plan.Space{
			Modes:  []decompose.Mode{decompose.ModeRandom},
			Reduce: []bool{true},
			Orders: []join.OrderMode{join.OrderByCardinality},
		}
	case StrategyNoSSReduction:
		return plan.Space{
			Modes:  []decompose.Mode{decompose.ModeOptimized},
			Reduce: []bool{false},
			Orders: []join.OrderMode{join.OrderHeuristic},
		}
	default:
		return plan.FullSpace()
	}
}

// ResultOrder selects how MatchStream emits matches (see internal/plan).
type ResultOrder = plan.ResultOrder

const (
	// OrderEmit (default) emits matches in discovery order.
	OrderEmit = plan.OrderEmit
	// OrderByProb emits matches in decreasing probability.
	OrderByProb = plan.OrderByProb
)

// Stats reports per-stage behaviour of one match run, including the
// executed plan tree, per-stage estimated vs. observed cardinalities and
// prune counts, and the planned vs. adaptively executed join order.
type Stats = plan.Stats

// Options configures a match run.
type Options struct {
	// Alpha is the query probability threshold α.
	Alpha float64
	// Strategy selects the variant (default StrategyOptimized).
	Strategy Strategy
	// Workers bounds the parallelism of candidate pruning, the k-partite
	// build and the reduction (0 = GOMAXPROCS) — a run's one CPU knob. The
	// join (Section 5.2.5) enumerates on the calling goroutine.
	Workers int
	// Seed seeds the random decomposition baseline (0 = deterministic
	// default). The seed actually used is recorded in the plan tree, so an
	// EXPLAIN output or ablation run can be replayed exactly.
	Seed int64
	// Limit caps the number of emitted matches (0 = unlimited). With
	// OrderEmit the join enumeration is aborted as soon as Limit matches
	// were emitted; with OrderByProb it selects the top-Limit matches by
	// probability. A truncated run sets Stats.Truncated.
	Limit int
	// Order selects the emission order (OrderEmit or OrderByProb).
	Order ResultOrder
	// CandCache, when set, serves pruned per-path candidate sets for
	// repeated query shapes, skipping posting decode and context pruning on
	// a hit. It belongs to one index generation: sharing it across
	// different snapshots returns stale candidates. Live views with
	// pending mutations bypass it automatically.
	CandCache *candidates.Cache
}

// OptionsError reports an invalid Options field. It is returned by every
// entry point before any work happens, so a bad request fails fast with a
// typed error the server maps to HTTP 400 — instead of a late panic or a
// silently empty result.
type OptionsError struct {
	Field  string
	Reason string
}

func (e *OptionsError) Error() string {
	return fmt.Sprintf("core: invalid option %s: %s", e.Field, e.Reason)
}

// Validate checks the options for values no run could make sense of.
func (o Options) Validate() error {
	if math.IsNaN(o.Alpha) {
		return &OptionsError{Field: "Alpha", Reason: "is NaN"}
	}
	if o.Alpha <= 0 || o.Alpha > 1 {
		return &OptionsError{Field: "Alpha", Reason: fmt.Sprintf("%v out of range (0,1]", o.Alpha)}
	}
	switch o.Strategy {
	case StrategyOptimized, StrategyRandomDecomp, StrategyNoSSReduction:
	default:
		return &OptionsError{Field: "Strategy", Reason: fmt.Sprintf("unknown strategy %d", int(o.Strategy))}
	}
	if o.Workers < 0 {
		return &OptionsError{Field: "Workers", Reason: fmt.Sprintf("negative worker count %d", o.Workers)}
	}
	if o.Limit < 0 {
		return &OptionsError{Field: "Limit", Reason: fmt.Sprintf("negative limit %d", o.Limit)}
	}
	switch o.Order {
	case OrderEmit, OrderByProb:
	default:
		return &OptionsError{Field: "Order", Reason: fmt.Sprintf("unknown result order %d", int(o.Order))}
	}
	return nil
}

// exec maps the run-time knobs onto the executor's options.
func (o Options) exec() plan.Exec {
	return plan.Exec{
		Workers:   o.Workers,
		Limit:     o.Limit,
		Order:     o.Order,
		CandCache: o.CandCache,
	}
}

// Result is the outcome of a match run.
type Result struct {
	Matches []join.Match
	Stats   Stats
}

// Prepare runs the planner only: options are validated, the candidate plan
// space for the strategy is enumerated against the index's histogram cost
// model, and the cheapest plan is compiled — decomposition included —
// without executing anything. The plan is a function of the index, the query
// and the options (α, strategy, seed) alone: no earlier run changes it. The
// returned plan is immutable; it may be executed any number of times
// (MatchStreamPlan, MatchPlan), concurrently, which is what the server's
// plan cache does to make repeat queries skip decomposition and planning
// entirely.
func Prepare(ctx context.Context, ix pathindex.Reader, q *query.Query, opt Options) (*plan.Plan, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := q.Validate(ix.Graph().Alphabet()); err != nil {
		return nil, err
	}
	return plan.NewPlanner(ix, nil).Plan(ctx, q, plan.Options{
		Alpha:    opt.Alpha,
		Strategy: opt.Strategy.Name(),
		Space:    opt.Strategy.space(),
		Seed:     opt.Seed,
	})
}

// Explain returns the JSON-serializable plan tree the query would execute
// under — the same tree Stats.Plan reports after an actual run.
func Explain(ctx context.Context, ix pathindex.Reader, q *query.Query, opt Options) (*plan.Tree, error) {
	pl, err := Prepare(ctx, ix, q, opt)
	if err != nil {
		return nil, err
	}
	return pl.Tree, nil
}

// Match answers a probabilistic subgraph pattern matching query
// (Definition 5) over the graph behind the given index: all matches M with
// Pr(M) ≥ α, together with per-stage statistics. With Order == OrderEmit the
// matches come sorted by mapping (then probability), with OrderByProb in
// decreasing probability. It is Prepare followed by MatchPlan.
func Match(ctx context.Context, ix pathindex.Reader, q *query.Query, opt Options) (*Result, error) {
	pl, err := Prepare(ctx, ix, q, opt)
	if err != nil {
		return nil, err
	}
	res, err := MatchPlan(ctx, ix, pl, opt)
	if err != nil {
		return nil, err
	}
	BillPlanning(&res.Stats, pl)
	return res, nil
}

// BillPlanning adds the planning that ran for a run of pl to the run's
// stats: the plan and decompose times, a leading "plan" stage row, and the
// plan time in Total, so the stage times keep summing within it. Match and
// MatchStream call it, and so does a caller that prepares through a plan
// cache of its own, on a miss. A run of a cached plan (MatchPlan,
// MatchStreamPlan directly) reports none of it: that is the work the cache
// skips.
func BillPlanning(st *Stats, pl *plan.Plan) {
	st.PlanTime = pl.PlanTime
	st.DecomposeTime = pl.DecomposeTime
	st.Stages = append([]plan.StageStats{{
		Name:   "plan",
		Micros: plan.Micros(pl.PlanTime),
	}}, st.Stages...)
	st.Total += pl.PlanTime
}

// MatchStream answers the same query as Match but drives a per-match yield
// callback instead of buffering the result set: matches flow to the caller
// as the join enumeration finds them (OrderEmit), so the first match costs
// a fraction of the full run and opt.Limit / ctx cancellation abort the
// remaining search immediately. Returning false from yield stops the stream
// (not an error). The returned Stats cover whatever part of the run
// happened; on error the partial results already yielded should be
// discarded. It is Prepare followed by MatchStreamPlan.
func MatchStream(ctx context.Context, ix pathindex.Reader, q *query.Query, opt Options, yield func(join.Match) bool) (Stats, error) {
	pl, err := Prepare(ctx, ix, q, opt)
	if err != nil {
		return Stats{}, err
	}
	st, err := MatchStreamPlan(ctx, ix, pl, opt, yield)
	if err != nil {
		return st, err
	}
	BillPlanning(&st, pl)
	return st, nil
}

// MatchStreamPlan executes a previously prepared plan, skipping query
// validation, decomposition, and planning — the plan-cache hot path. The
// streaming contract is exactly MatchStream's. Only the run-time knobs of
// opt apply (Workers, Limit, Order, CandCache); Alpha and
// Strategy were compiled into the plan, so a disagreeing value is rejected
// rather than silently ignored — a plan prepared at α=0.25 cannot be
// mistaken for a run at α=0.9.
func MatchStreamPlan(ctx context.Context, ix pathindex.Reader, pl *plan.Plan, opt Options, yield func(join.Match) bool) (Stats, error) {
	if err := opt.fits(pl); err != nil {
		return Stats{}, err
	}
	return plan.NewExecutor(ix).Run(ctx, pl, opt.exec(), yield)
}

// fits validates the options and checks them against a prepared plan.
func (o Options) fits(pl *plan.Plan) error {
	if err := o.Validate(); err != nil {
		return err
	}
	if o.Alpha != pl.Alpha {
		return &OptionsError{Field: "Alpha", Reason: fmt.Sprintf("%v differs from the prepared plan's %v", o.Alpha, pl.Alpha)}
	}
	if pl.Tree != nil && o.Strategy.Name() != pl.Tree.Strategy {
		return &OptionsError{Field: "Strategy", Reason: fmt.Sprintf("%s differs from the prepared plan's %s", o.Strategy.Name(), pl.Tree.Strategy)}
	}
	return nil
}

// MatchPlan executes a previously prepared plan and returns the whole
// answer, in Match's order, under MatchStreamPlan's rules for opt. The join
// retains its matches in one store the executor walks in order
// (plan.Executor.Collect), so nothing is streamed, re-copied or sorted
// here.
func MatchPlan(ctx context.Context, ix pathindex.Reader, pl *plan.Plan, opt Options) (*Result, error) {
	if err := opt.fits(pl); err != nil {
		return nil, err
	}
	ms, st, err := plan.NewExecutor(ix).Collect(ctx, pl, opt.exec())
	if err != nil {
		return nil, err
	}
	return &Result{Matches: ms, Stats: st}, nil
}

// MatchSeq is the Go-1.23 iterator form of MatchStream: it ranges over the
// matches of one run, yielding (match, nil) pairs and, if the run fails, a
// final (zero, err) pair. Breaking out of the loop stops the underlying
// enumeration immediately.
//
//	for m, err := range core.MatchSeq(ctx, ix, q, opt) {
//		if err != nil { ... }
//		use(m)
//	}
func MatchSeq(ctx context.Context, ix pathindex.Reader, q *query.Query, opt Options) iter.Seq2[join.Match, error] {
	return func(yield func(join.Match, error) bool) {
		stopped := false
		_, err := MatchStream(ctx, ix, q, opt, func(m join.Match) bool {
			if !yield(m, nil) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil && !stopped {
			yield(join.Match{}, err)
		}
	}
}

// IsOptionsError reports whether err is an options-validation failure (the
// caller's request is at fault, not the engine) and returns it.
func IsOptionsError(err error) (*OptionsError, bool) {
	var oe *OptionsError
	if errors.As(err, &oe) {
		return oe, true
	}
	return nil, false
}
