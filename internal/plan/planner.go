package plan

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/decompose"
	"repro/internal/join"
	"repro/internal/pathindex"
	"repro/internal/query"
)

// Space constrains the candidate plan space the planner enumerates. The
// paper's ablation baselines pin a single point of the space; the optimized
// strategy opens all of it and lets the cost model choose.
type Space struct {
	Modes  []decompose.Mode
	Reduce []bool
	Orders []join.OrderMode
}

// FullSpace is the whole candidate space: both decomposition modes, the
// reduction on and off, both join-order heuristics. Enumeration order is the
// deterministic tie-break — on equal cost the earlier candidate wins, which
// puts the paper's default pipeline (optimized cover, reduction on,
// heuristic order) first.
func FullSpace() Space {
	return Space{
		Modes:  []decompose.Mode{decompose.ModeOptimized, decompose.ModeRandom},
		Reduce: []bool{true, false},
		Orders: []join.OrderMode{join.OrderHeuristic, join.OrderByCardinality},
	}
}

func (s *Space) normalize() {
	if len(s.Modes) == 0 {
		s.Modes = []decompose.Mode{decompose.ModeOptimized}
	}
	if len(s.Reduce) == 0 {
		s.Reduce = []bool{true}
	}
	if len(s.Orders) == 0 {
		s.Orders = []join.OrderMode{join.OrderHeuristic}
	}
}

// Options configures one planning run.
type Options struct {
	// Alpha is the query probability threshold α.
	Alpha float64
	// Strategy is the requested strategy's name, recorded in the tree.
	Strategy string
	// Space is the candidate space (zero value = the paper's default
	// single-point pipeline; use FullSpace for cost-based choice).
	Space Space
	// Seed seeds random decomposition candidates (0 = the deterministic
	// default); the seed the cover drew is recorded in the plan.
	Seed int64
}

// Planner enumerates and costs candidate plans for one index. Its estimates
// are the index's histogram cardinalities, so a plan is a function of the
// index, the query and the options alone.
type Planner struct {
	ix pathindex.Reader
}

// Calibration is empty and NewPlanner ignores it: it remains only as the
// type of NewPlanner's second parameter, which the benchmark module still
// passes as nil.
type Calibration struct{}

// NewPlanner returns a planner over the index. The second argument is
// ignored (see Calibration).
func NewPlanner(ix pathindex.Reader, _ *Calibration) *Planner {
	return &Planner{ix: ix}
}

// Plan compiles the cheapest candidate plan for the query. The returned
// plan's Tree lists every other candidate under Alternatives.
func (p *Planner) Plan(ctx context.Context, q *query.Query, opt Options) (*Plan, error) {
	plans, err := p.Enumerate(ctx, q, opt)
	if err != nil {
		return nil, err
	}
	best := plans[0]
	if len(plans) > 1 {
		best.Tree.Alternatives = make([]Alternative, 0, len(plans)-1)
	}
	for _, alt := range plans[1:] {
		best.Tree.Alternatives = append(best.Tree.Alternatives, Alternative{
			DecomposeMode: alt.Dec.Mode.String(),
			Reduce:        alt.Reduce,
			JoinOrderMode: orderModeName(alt.OrderMode),
			JoinOrder:     alt.Order,
			Cost:          alt.Tree.Cost.Total,
		})
	}
	return best, nil
}

// Enumerate compiles every candidate plan in the constrained space, sorted
// by estimated cost (ties keep enumeration order, so the paper's default
// pipeline wins them). Every returned plan is executable and produces the
// identical match set — the plan-equivalence property test asserts this —
// so picking any of them is a pure cost decision. A decomposition mode that
// cannot cover the query is skipped as long as another mode can. The path
// enumeration checks ctx, so a request deadline bounds planning.
func (p *Planner) Enumerate(ctx context.Context, q *query.Query, opt Options) ([]*Plan, error) {
	start := time.Now()
	opt.Space.normalize()
	maxLen := p.ix.MaxLen()
	cands, err := decompose.Enumerate(ctx, q, p.ix, maxLen, opt.Alpha)
	if err != nil {
		return nil, err
	}
	canonical := q.Format(p.ix.Graph().Alphabet())

	var (
		plans        = make([]*Plan, 0, len(opt.Space.Modes)*len(opt.Space.Orders)*len(opt.Space.Reduce))
		decomposeDur time.Duration
		firstErr     error
	)
	for _, mode := range opt.Space.Modes {
		t0 := time.Now()
		dec, err := decompose.Cover(q, cands, decompose.Options{
			MaxLen: maxLen,
			Alpha:  opt.Alpha,
			Mode:   mode,
			Seed:   opt.Seed,
		})
		decomposeDur += time.Since(t0)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		// The tree's path nodes depend only on the decomposition: built once
		// per mode and shared by all its candidates (the trees are immutable,
		// sharing is safe).
		pathNodes := p.pathNodes(dec)
		for _, om := range opt.Space.Orders {
			order := join.Order(dec, om)
			for _, reduce := range opt.Space.Reduce {
				cost := costOf(dec, order, reduce)
				plans = append(plans, &Plan{
					Query:     q,
					Dec:       dec,
					Alpha:     opt.Alpha,
					Reduce:    reduce,
					OrderMode: om,
					Order:     order,
					Tree:      p.tree(canonical, opt, dec, pathNodes, om, order, reduce, cost),
				})
			}
		}
	}
	if len(plans) == 0 {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, fmt.Errorf("plan: empty candidate space")
	}
	slices.SortStableFunc(plans, func(a, b *Plan) int {
		return cmp.Compare(a.Tree.Cost.Total, b.Tree.Cost.Total)
	})
	planDur := time.Since(start)
	for _, pl := range plans {
		pl.PlanTime = planDur
		pl.DecomposeTime = decomposeDur
	}
	return plans, nil
}

// pathNodes resolves one decomposition's paths into tree nodes (label
// names, estimated cardinalities) — shared by every candidate tree of that
// decomposition.
func (p *Planner) pathNodes(dec *decompose.Decomposition) []PathNode {
	alphabet := p.ix.Graph().Alphabet()
	nodes := make([]PathNode, 0, len(dec.Paths))
	for i := range dec.Paths {
		dp := &dec.Paths[i]
		node := PathNode{
			ID: dp.ID, EstCard: dp.Card, Cost: dp.Cost,
			QueryNodes: make([]int, len(dp.Nodes)),
			Labels:     make([]string, len(dp.Labels)),
		}
		for x, n := range dp.Nodes {
			node.QueryNodes[x] = int(n)
		}
		for x, l := range dp.Labels {
			node.Labels[x] = alphabet.Name(l)
		}
		nodes = append(nodes, node)
	}
	return nodes
}

// tree builds the serializable plan tree for one candidate.
func (p *Planner) tree(canonical string, opt Options, dec *decompose.Decomposition, pathNodes []PathNode, om join.OrderMode, order []int, reduce bool, cost Cost) *Tree {
	return &Tree{
		Query:         canonical,
		Alpha:         opt.Alpha,
		Strategy:      opt.Strategy,
		DecomposeMode: dec.Mode.String(),
		DecomposeSeed: dec.Seed,
		Reduce:        reduce,
		JoinOrderMode: orderModeName(om),
		JoinOrder:     order,
		AdaptiveJoin:  true,
		Paths:         pathNodes,
		Cost:          cost,
	}
}

func orderModeName(om join.OrderMode) string {
	if om == join.OrderByCardinality {
		return "cardinality"
	}
	return "heuristic"
}

// Cost model constants, in abstract row-visit units. They only need to rank
// candidate plans of the same query sanely, not predict wall clock:
//
//   - joinSelectivity is the assumed survival rate of one join predicate —
//     each equality between a new path's position and the bound prefix cuts
//     the cross product by this factor.
//   - reductionSurvival is the assumed fraction of candidates alive after
//     the joint search-space reduction; reductionRounds × the link volume
//     is what the reduction itself costs.
const (
	joinSelectivity   = 0.05
	reductionSurvival = 0.3
	reductionRounds   = 3
)

// costOf estimates the staged execution cost of one candidate plan:
// candidate retrieval is linear in the estimated cardinalities, the
// k-partite build linear in each joined pair (hash build + probe), the
// reduction proportional to the link volume, and the join a left-deep
// running product over the chosen order with per-predicate selectivity.
// Reduction shrinks the join's inputs (reductionSurvival) at the price of
// its own pass — which is exactly the probabilistic-pruning trade-off the
// planner decides (cf. Yuan et al.): for tiny search spaces the reduction
// costs more than it saves and the planner turns it off.
func costOf(dec *decompose.Decomposition, order []int, reduce bool) Cost {
	k := len(dec.Paths)
	card := func(i int) float64 {
		c := dec.Paths[i].Card
		if c < 1 {
			return 1
		}
		return c
	}
	var c Cost
	for i := 0; i < k; i++ {
		c.Candidates += card(i)
	}
	// Ascending pair order: the float sums must not depend on map order.
	linkVolume := 0.0
	for _, pair := range dec.Pairs {
		ca, cb := card(pair[0]), card(pair[1])
		c.Build += ca + cb
		linkVolume += math.Min(ca, cb)
	}
	survival := 1.0
	if reduce {
		c.Reduce = reductionRounds * linkVolume
		survival = reductionSurvival
	}
	// Left-deep running product over the join order: every step multiplies
	// in the (post-reduction) candidate count and applies the selectivity
	// of each predicate binding it to the prefix.
	rows := 0.0
	for s, b := range order {
		preds := 0
		for t := 0; t < s; t++ {
			preds += dec.NumPreds(b, order[t])
		}
		stepCard := card(b) * survival
		if s == 0 {
			rows = stepCard
		} else {
			rows *= stepCard * math.Pow(joinSelectivity, float64(preds))
		}
		c.Join += rows
	}
	c.Total = c.Candidates + c.Build + c.Reduce + c.Join
	return c
}
