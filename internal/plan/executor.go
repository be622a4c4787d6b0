package plan

import (
	"context"
	"runtime"
	"time"

	"repro/internal/candidates"
	"repro/internal/entity"
	"repro/internal/join"
	"repro/internal/kpartite"
	"repro/internal/pathindex"
)

// Exec configures one plan execution — the run-time knobs that do not
// affect which plan is chosen.
type Exec struct {
	// Workers bounds stage parallelism for candidate pruning, the k-partite
	// build and the reduction (0 = GOMAXPROCS). The join enumerates on the
	// calling goroutine.
	Workers int
	// Limit caps the number of emitted matches (0 = unlimited).
	Limit int
	// Order selects the emission order (OrderEmit or OrderByProb).
	Order ResultOrder
}

// Executor runs compiled plans against one index. It is stateless, so one
// Executor value may run any number of plans concurrently.
type Executor struct {
	ix pathindex.Reader
}

// NewExecutor returns an executor over the index.
func NewExecutor(ix pathindex.Reader) *Executor {
	return &Executor{ix: ix}
}

// Run executes the plan in stages — candidate retrieval → k-partite build →
// joint reduction → join — streaming matches into yield, each with a
// Mapping of its own. Per-stage timings, estimated vs. observed
// cardinalities, and prune counts land in Stats. Before the join the
// executor re-orders the partitions using the observed alive counts instead
// of the plan's histogram estimates: the match set is invariant under join
// order, so this changes cost only (PlannedOrder and ExecOrder record both
// sides). Returning false from yield stops the enumeration (not an error);
// the semantics of Limit, Order, and cancellation are exactly
// core.MatchStream's.
func (e *Executor) Run(ctx context.Context, pl *Plan, opt Exec, yield func(join.Match) bool) (Stats, error) {
	jr, st, err := e.preJoin(ctx, pl, opt)
	if err != nil {
		return st, err
	}
	if opt.Order == OrderByProb {
		// The join must finish before the best match is known: retain, then
		// emit in decreasing probability.
		var ms []join.Match
		if ms, err = jr.retain(ctx, opt, &st); err == nil {
			for i, m := range ms {
				if !yield(m) {
					st.Matched, st.Truncated = i+1, true
					break
				}
			}
		}
	} else {
		// Emit order is discovery order: the enumeration itself stops at
		// Limit or when the consumer does.
		err = jr.enumerate(ctx, func(_ int, m join.Match) bool {
			st.Matched++
			if !yield(m.Clone()) || (opt.Limit > 0 && st.Matched >= opt.Limit) {
				st.Truncated = true
				return false
			}
			return true
		})
	}
	if err != nil {
		return st, err
	}
	jr.finish(&st)
	return st, nil
}

// Collect executes the plan like Run and returns the whole answer instead
// of streaming it: in decreasing probability, cut to the best Limit, under
// OrderByProb; sorted by mapping (SortMatches' order) under OrderEmit, where
// a Limit keeps the first Limit matches the sequential enumeration finds.
// The matches are copied once, out of the join's scratch into a store (see
// store.go), and the returned Mapping slices alias that store.
func (e *Executor) Collect(ctx context.Context, pl *Plan, opt Exec) ([]join.Match, Stats, error) {
	jr, st, err := e.preJoin(ctx, pl, opt)
	if err != nil {
		return nil, st, err
	}
	ms, err := jr.retain(ctx, opt, &st)
	if err != nil {
		return nil, st, err
	}
	jr.finish(&st)
	return ms, st, nil
}

// joinRun is one execution past its pre-join stages: the reduced k-partite
// graph and the adaptive join order, ready to enumerate.
type joinRun struct {
	g     *entity.Graph
	pl    *Plan
	kg    *kpartite.Graph
	order []int
	start time.Time // of the execution
	t0    time.Time // of the join stage
}

// preJoin runs every stage before the join and opens the join stage.
func (e *Executor) preJoin(ctx context.Context, pl *Plan, opt Exec) (*joinRun, Stats, error) {
	start := time.Now()
	st := Stats{
		Plan:         pl.Tree,
		NumPaths:     len(pl.Dec.Paths),
		PlannedOrder: pl.Order,
	}
	g := e.ix.Graph()
	q := pl.Query
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Candidate retrieval with context pruning (Section 5.2.2), fanned out
	// per path — or, for a run that stops early, every path's count and no
	// row. Such a run is never reduced, so the join order those counts give
	// is known before anything is built, and its join walks the first path's
	// candidates one root at a time and every later path's one join key at a
	// time.
	t0 := time.Now()
	links := Links(opt.Order, opt.Limit)
	var (
		sets   []candidates.Set
		cstats candidates.Stats
		walks  *candidates.KeyWalks
		order  []int
		err    error
	)
	if links == "keyed" {
		if cstats.Initial, err = candidates.Counts(ctx, e.ix, pl.Dec, pl.Alpha); err != nil {
			return nil, st, err
		}
		cstats.SSPath = 1
		for _, n := range cstats.Initial {
			cstats.SSPath *= float64(n)
		}
		order = execOrder(pl, func(p int) int { return cstats.Initial[p] })
		walks = candidates.NewKeyWalks(e.ix, q, pl.Dec, pl.Alpha)
		workers = 1
	} else if sets, cstats, err = candidates.Find(ctx, e.ix, q, pl.Dec, pl.Alpha, workers, nil); err != nil {
		return nil, st, err
	}
	st.SSPath = cstats.SSPath
	st.SSContext = cstats.SSContext
	st.CandidateTime = time.Since(t0)
	estTotal, obsTotal, pruned := 0.0, 0.0, int64(0)
	for i := range pl.Dec.Paths {
		estTotal += pl.Dec.Paths[i].Card
		obsTotal += float64(cstats.Initial[i])
		if walks == nil { // no path of a keyed run is scanned whole
			pruned += int64(cstats.Initial[i] - cstats.Kept[i])
		}
	}
	st.Stages = append(st.Stages, StageStats{
		Name: "candidates", Micros: Micros(st.CandidateTime), StartMicros: Micros(t0.Sub(start)),
		EstRows: estTotal, ObsRows: obsTotal, Pruned: pruned, Workers: workers,
	})

	// Join-candidates / k-partite graph (Section 5.2.3), pairs fanned out
	// across the same pool — or, for a run that stops early, no row at all,
	// every path left to the join's root and key walks.
	t0 = time.Now()
	var kg *kpartite.Graph
	if walks != nil {
		kg = kpartite.Walked(g, pl.Dec, walks)
	} else if kg, err = kpartite.Build(ctx, g, q, pl.Dec, sets, pl.Alpha, workers); err != nil {
		return nil, st, err
	}
	st.BuildTime = time.Since(t0)
	st.Stages = append(st.Stages, StageStats{
		Name: "build", Micros: Micros(st.BuildTime), StartMicros: Micros(t0.Sub(start)),
		ObsRows: float64(kg.NumLinks()), Workers: workers, Links: links,
	})

	// Joint search space reduction (Section 5.2.4), when the plan says so
	// and the run has not declared that it stops early.
	t0 = time.Now()
	ssBefore := kg.SearchSpace()
	before := aliveTotal(kg)
	skipped := pl.ReduceSkipped(opt.Order, opt.Limit)
	if pl.Reduce && skipped == "" {
		rst, err := kg.Reduce(ctx, workers)
		if err != nil {
			return nil, st, err
		}
		st.SSAfterStructure = rst.SSAfterStructure
		st.SSFinal = rst.SSAfterUpperbound
		st.ReductionRounds = rst.Rounds
	} else {
		st.SSAfterStructure, st.SSFinal = ssBefore, ssBefore
	}
	st.ReduceTime = time.Since(t0)
	st.Stages = append(st.Stages, StageStats{
		Name: "reduce", Micros: Micros(st.ReduceTime), StartMicros: Micros(t0.Sub(start)),
		EstRows: ssBefore, ObsRows: st.SSFinal, Pruned: int64(before - aliveTotal(kg)), Skipped: skipped,
	})

	if order == nil {
		order = execOrder(pl, kg.AliveCount)
	}
	st.ExecOrder = order

	return &joinRun{g: g, pl: pl, kg: kg, order: order, start: start, t0: time.Now()}, st, nil
}

// Links says which join-candidate links a run in the given order and limit
// builds: "keyed" for an emit-order run that stops after limit matches —
// kpartite.Walked, whose join walks the first path one root at a time and
// every other one join key at a time — and "" — kpartite.Build's filtered
// CSR — for one that enumerates
// exhaustively. The one rule for what a declared limit changes before the
// join: such a run neither links nor reduces (ReduceSkipped).
func Links(order ResultOrder, limit int) string {
	if order == OrderEmit && limit > 0 {
		return "keyed"
	}
	return ""
}

// ReduceSkipped says why a run of pl in the given order and limit leaves out
// the reduction the plan asks for ("" when it runs, or the plan has none):
// "limit" for an emit-order run that stops after limit matches. The reduction
// is priced for an exhaustive enumeration — rounds over every link, to shrink
// a join that such a run abandons after a few rows.
func (pl *Plan) ReduceSkipped(order ResultOrder, limit int) string {
	if pl.Reduce && Links(order, limit) == "keyed" {
		return "limit"
	}
	return ""
}

// execOrder is the adaptive join reorder: the plan's order heuristic rerun
// with the observed alive counts in place of the histogram estimates. The
// match set is order-invariant, so this is purely a cost move — and it uses
// real numbers where planning had only estimates.
func execOrder(pl *Plan, alive func(p int) int) []int {
	obsCards := make([]float64, len(pl.Dec.Paths))
	for p := range obsCards {
		obsCards[p] = float64(alive(p))
	}
	return join.OrderWithCards(pl.Dec, pl.OrderMode, obsCards)
}

func aliveTotal(kg *kpartite.Graph) int {
	n := 0
	for p := 0; p < kg.NumPartitions(); p++ {
		n += kg.AliveCount(p)
	}
	return n
}

// enumerate is the final match generation (Section 5.2.5), on one worker:
// the calling goroutine. A match the sink is lent is valid until it returns.
func (r *joinRun) enumerate(ctx context.Context, sink func(worker int, m join.Match) bool) error {
	return join.Enumerate(ctx, r.g, r.pl.Query, r.pl.Dec, r.kg, r.order, r.pl.Alpha, 1, sink)
}

// finish closes the join stage and the execution. On a walked graph it
// also settles what only the join knew: how many root and key walks ran and
// how many rows they kept, on the candidates row, and the search space of
// the rows the run held, on the reduce row and in Stats.
func (r *joinRun) finish(st *Stats) {
	st.JoinTime = time.Since(r.t0)
	if r.kg.IsWalked() {
		walks, kept, ss := 0, 0, 1.0
		for p := 0; p < r.kg.NumPartitions(); p++ {
			w, n := r.kg.Walks(p)
			walks, kept, ss = walks+w, kept+n, ss*float64(n)
		}
		st.SSContext, st.SSAfterStructure, st.SSFinal = ss, ss, ss
		for i := range st.Stages {
			switch sg := &st.Stages[i]; sg.Name {
			case "candidates":
				sg.KeyWalks, sg.KeyRows = walks, kept
			case "reduce":
				sg.EstRows, sg.ObsRows = ss, ss
			}
		}
	}
	st.Stages = append(st.Stages, StageStats{
		Name: "join", Micros: Micros(st.JoinTime), StartMicros: Micros(r.t0.Sub(r.start)),
		EstRows: st.SSFinal, ObsRows: float64(st.Matched),
	})
	st.Total = time.Since(r.start)
}

// retain runs the join copying the matches it is lent into one store — no
// channel, lock or per-match allocation — then walks the store's order into
// the answer. Under OrderByProb with a Limit the store is a bounded heap, so
// the run holds O(Limit) rows however many matches there are. An emit-order
// Limit instead stops the enumeration once it has that many.
func (r *joinRun) retain(ctx context.Context, opt Exec, st *Stats) ([]join.Match, error) {
	keep, stopAt := 0, 0
	switch {
	case opt.Order == OrderByProb:
		keep = opt.Limit
	case opt.Limit > 0:
		stopAt = opt.Limit
	}
	var s store
	s.init(r.pl.Query.NumNodes(), keep)
	err := r.enumerate(ctx, func(_ int, m join.Match) bool {
		s.offer(m)
		return stopAt == 0 || s.n < stopAt
	})
	if err != nil {
		return nil, err
	}
	ms := s.matches(opt.Order)
	st.Matched = len(ms)
	st.Truncated = (keep > 0 && s.offered > keep) || (stopAt > 0 && s.offered >= stopAt)
	return ms, nil
}
