package join

import (
	"context"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/decompose"
	"repro/internal/entity"
	"repro/internal/kpartite"
	"repro/internal/prob"
	"repro/internal/query"
)

// The enumeration is split into an immutable per-run plan shared by every
// worker and a per-worker scratch holding all mutable state, so extending a
// partial match allocates nothing: assignments live in a flat per-query-node
// array, the identity components in use in a bitset with an undo stack, and
// the running probability prefixes in per-step arrays. Which query nodes a
// step newly assigns, which it merely re-checks, and which query edges it
// newly covers depend only on the join order — never on the candidates — so
// they are precomputed once into the plan.

// joined names an earlier ordered path that shares a join predicate with the
// partition being extended, together with its position in the order.
type joined struct{ part, pos int }

// stepAssign is one path position whose query node is first assigned at this
// step.
type stepAssign struct {
	pos int32
	qn  query.NodeID
}

// stepCheck is one path position whose query node was assigned by an earlier
// step and must only be checked for consistency.
type stepCheck struct {
	pos int32
	qn  query.NodeID
}

// stepEdge is one query edge (qa < qb) whose probability is first multiplied
// into the prefix at this step. idx is its position in q.Edges(), the order
// the final Prle multiplies edge factors in; pos is its position along the
// step's path (that of its first node), unset for an edge no step covers.
type stepEdge struct {
	idx    int32
	pos    int32
	qa, qb query.NodeID
	la, lb prob.LabelID
}

// stepPlan is the precomputed shape of one join-order step.
type stepPlan struct {
	part   int // partition order[step]
	joins  []joined
	assign []stepAssign
	check  []stepCheck
	edges  []stepEdge
	// keyPos lists check's positions: on a walked graph the step's
	// candidates are its partition's rows under the entities bound there.
	keyPos []int32
}

// plan is the immutable shared state of one enumeration run.
type plan struct {
	g     *entity.Graph
	kg    *kpartite.Graph
	order []int
	alpha float64
	floor float64 // prob.Floor(alpha, the query's factors): apply's prefix test

	steps     []stepPlan
	loose     []stepEdge // query edges no step covers: looked up at emit
	covers    bool       // every query node is assigned by some step
	numQ      int
	numE      int
	compWords int // words in the identity-component bitset
}

func newPlan(g *entity.Graph, q *query.Query, dec *decompose.Decomposition, kg *kpartite.Graph, order []int, alpha float64) *plan {
	p := &plan{g: g, kg: kg, order: order, alpha: alpha, numQ: q.NumNodes(), numE: q.NumEdges()}
	p.floor = prob.Floor(alpha, prob.Factors(p.numQ, p.numE))
	qEdges := make([]stepEdge, 0, p.numE)
	edgeIdx := make(map[[2]query.NodeID]int32, p.numE)
	for i, e := range q.Edges() {
		qEdges = append(qEdges, stepEdge{idx: int32(i), qa: e[0], qb: e[1], la: q.Label(e[0]), lb: q.Label(e[1])})
		edgeIdx[e] = int32(i)
	}
	covered := make([]bool, p.numQ)
	coveredEdge := make([]bool, p.numE)
	p.steps = make([]stepPlan, len(order))
	for s, b := range order {
		sp := &p.steps[s]
		sp.part = b
		for pos := 0; pos < s; pos++ {
			if len(dec.Preds(order[pos], b)) > 0 {
				sp.joins = append(sp.joins, joined{order[pos], pos})
			}
		}
		path := &dec.Paths[b]
		for pos, qn := range path.Nodes {
			if covered[qn] {
				sp.check = append(sp.check, stepCheck{pos: int32(pos), qn: qn})
				sp.keyPos = append(sp.keyPos, int32(pos))
			} else {
				covered[qn] = true
				sp.assign = append(sp.assign, stepAssign{pos: int32(pos), qn: qn})
			}
		}
		for pos := 0; pos+1 < len(path.Nodes); pos++ {
			a, b2 := path.Nodes[pos], path.Nodes[pos+1]
			if a > b2 {
				a, b2 = b2, a
			}
			i, ok := edgeIdx[[2]query.NodeID{a, b2}]
			if !ok || coveredEdge[i] {
				continue
			}
			coveredEdge[i] = true
			e := qEdges[i]
			e.pos = int32(pos)
			sp.edges = append(sp.edges, e)
		}
	}
	for i, c := range coveredEdge {
		if !c {
			p.loose = append(p.loose, qEdges[i])
		}
	}
	p.covers = !slices.Contains(covered, false)
	p.compWords = (g.NumComponents() + 63) / 64
	return p
}

// scratch is the reusable per-worker state of the depth-first enumeration.
// All buffers are allocated once; extending, undoing and emitting allocate
// nothing — the sink is handed asn itself as the match's mapping.
type scratch struct {
	p      *plan
	ctx    context.Context
	worker int
	sink   func(worker int, m Match) bool
	stop   *atomic.Bool // shared by the run's workers

	asn    []entity.ID // per query node; -1 = unassigned
	nodeF  []float64   // label factor of asn[n], recorded when n is assigned
	existF []float64   // Exist of asn[n], recorded when n is assigned
	edgeF  []float64   // factor of query edge i, recorded when it is covered
	verts  []int32     // chosen vertex per ordered step
	prleAt []float64   // prleAt[s] = label/edge prefix product before step s
	prnAt  []float64   // prnAt[s] = Prn(nodes) before step s
	nodes  []entity.ID // assigned entities, assignment order (for Prn)

	// The identity components of the assigned entities, set by apply and
	// cleared through compUndo. sharedAt[s] counts the entities assigned
	// before step s whose component an earlier one had already marked: while
	// it is 0 every component holds one assigned entity — no two are the same
	// or share a reference — and Prn is the product of their Exist, which
	// prnAt carries forward one factor per assignment.
	compWords []uint64
	compUndo  []int32
	compMark  []int32 // compUndo length before each step
	sharedAt  []int32

	isect [][]int32   // per-step link-intersection buffers
	key   []entity.ID // a walked step's join key, by check position

	ops int // per-worker extension counter for ctx-cancellation checks
}

func newScratch(p *plan, ctx context.Context, worker int, sink func(int, Match) bool, stop *atomic.Bool) *scratch {
	s := &scratch{
		p:      p,
		ctx:    ctx,
		worker: worker,
		sink:   sink,
		stop:   stop,
		asn:    make([]entity.ID, p.numQ),
		nodeF:  make([]float64, p.numQ),
		existF: make([]float64, p.numQ),
		edgeF:  make([]float64, p.numE),
		verts:  make([]int32, len(p.order)),
		prleAt: make([]float64, len(p.order)+1),
		prnAt:  make([]float64, len(p.order)+1),
		nodes:  make([]entity.ID, 0, p.numQ),

		compWords: make([]uint64, p.compWords),
		compUndo:  make([]int32, 0, p.numQ),
		compMark:  make([]int32, len(p.order)),
		sharedAt:  make([]int32, len(p.order)+1),

		isect: make([][]int32, len(p.order)),
		key:   make([]entity.ID, 0, p.numQ),
	}
	for i := range s.asn {
		s.asn[i] = -1
	}
	s.prleAt[0], s.prnAt[0] = 1, 1
	return s
}

// drain claims morsels of the first partition's candidates [0, total)
// until none are left or the run is stopped, driving each alive seed
// depth-first through the whole join order. An error stops the other
// workers too.
func (s *scratch) drain(next *atomic.Int64, morsel, total int) error {
	first := s.p.order[0]
	for !s.stop.Load() {
		lo := int(next.Add(1)-1) * morsel
		if lo >= total {
			break
		}
		// Cancellation is also checked on every morsel pickup so the latency
		// bound does not depend on the per-extension counter.
		if err := s.ctx.Err(); err != nil {
			s.stop.Store(true)
			return err
		}
		for ci := lo; ci < min(lo+morsel, total) && !s.stop.Load(); ci++ {
			if !s.p.kg.Alive(first, ci) {
				continue
			}
			if err := s.tryCandidate(0, first, ci); err != nil {
				s.stop.Store(true)
				return err
			}
		}
	}
	return nil
}

// roots is drain on a walked graph: it visits the first partition's roots
// in ascending id, walks each one's rows and drives them depth-first
// through the whole join order, until none are left or the run is stopped.
// ctx is checked once per word of the root set, 64 roots.
func (s *scratch) roots() error {
	kg, first := s.p.kg, s.p.order[0]
	for word, set := range kg.Roots(first) {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		for ; set != 0; set &= set - 1 {
			n := kg.WalkRoot(first, entity.ID(word*64+bits.TrailingZeros64(set)))
			for ci := range n {
				if err := s.tryCandidate(0, first, ci); err != nil || s.stop.Load() {
					return err
				}
			}
		}
	}
	return nil
}

// tryCandidate extends the current partial with candidate ci of partition b
// at the given step, recursing into the rest of the order on success and
// undoing the extension afterwards.
func (s *scratch) tryCandidate(step, b, ci int) error {
	s.ops++
	if s.ops&1023 == 0 {
		if err := s.ctx.Err(); err != nil {
			return err
		}
	}
	if !s.apply(step, b, ci) {
		return nil
	}
	err := s.descend(step + 1)
	s.undo(step)
	return err
}

// apply installs candidate ci of partition b into the scratch: consistency
// checks on already-assigned query nodes, injectivity and component bits for
// newly assigned ones, and the incremental label/edge and identity prefixes
// with the partial-probability α prune (Section 5.2.5). The factors are the
// ones the k-partite graph looked up for the row (an absent GU edge reads 0
// and fails the step), read once the consistency checks pass; each is also
// recorded under its query node or query edge for emit. The identity prefix
// is multiplied by Exist(v) per newly assigned node: Graph.Prn over entities
// in distinct components
// multiplies 1.0 by exactly those factors in that order, so while no two
// assigned entities share a component the prefix is Prn(s.nodes) bit for bit
// and Prn is called only otherwise — which is also the only case in which two
// of them can share a reference, and Prn is then 0: a zero marginal fails the
// step whatever α. On failure every partial effect is rolled back and false
// is returned.
func (s *scratch) apply(step, b, ci int) bool {
	p := s.p
	sp := &p.steps[step]
	row := p.kg.Row(b, ci)
	for _, c := range sp.check {
		if s.asn[c.qn] != row[c.pos] {
			return false
		}
	}
	lab, edge := p.kg.Factors(b, ci)
	nAsn := 0
	compMark := len(s.compUndo)
	pr, prn, shared := s.prleAt[step], s.prnAt[step], s.sharedAt[step]
	ok := true
assign:
	for _, a := range sp.assign {
		v := row[a.pos]
		if c := p.g.Comp(v); s.compWords[uint(c)>>6]&(1<<(uint(c)&63)) != 0 {
			if slices.Contains(s.nodes, v) {
				ok = false // two query nodes on one entity
				break assign
			}
			shared++
		} else {
			s.compWords[uint(c)>>6] |= 1 << (uint(c) & 63)
			s.compUndo = append(s.compUndo, c)
		}
		s.asn[a.qn] = v
		s.nodes = append(s.nodes, v)
		nAsn++
		f := lab[a.pos]
		s.nodeF[a.qn] = f
		pr *= f
		exist := p.g.Exist(v)
		s.existF[a.qn] = exist
		prn *= exist
	}
	// Partial probability upper-bounds the final match probability: prune
	// extensions that prob.MayClear rejects, a zero factor among them.
	if ok {
		for _, e := range sp.edges {
			f := edge[e.pos]
			s.edgeF[e.idx] = f
			pr *= f
		}
		if shared > 0 {
			prn = p.g.Prn(s.nodes)
		}
		if pr*prn < p.floor {
			ok = false
		}
	}
	if !ok {
		s.unwind(sp, nAsn, compMark)
		return false
	}
	s.compMark[step] = int32(compMark)
	s.prleAt[step+1], s.prnAt[step+1], s.sharedAt[step+1] = pr, prn, shared
	s.verts[step] = int32(ci)
	return true
}

// unwind rolls back the first nAsn assignments of a step and the component
// bits set since compMark.
func (s *scratch) unwind(sp *stepPlan, nAsn, compMark int) {
	for _, a := range sp.assign[:nAsn] {
		s.asn[a.qn] = -1
	}
	s.nodes = s.nodes[:len(s.nodes)-nAsn]
	for _, c := range s.compUndo[compMark:] {
		s.compWords[uint(c)>>6] &^= 1 << (uint(c) & 63)
	}
	s.compUndo = s.compUndo[:compMark]
}

// undo reverses a successful apply of the given step.
func (s *scratch) undo(step int) {
	sp := &s.p.steps[step]
	s.unwind(sp, len(sp.assign), int(s.compMark[step]))
}

// descend enumerates the candidates of the given step against the current
// partial: the intersection of the link lists from every joined chosen
// vertex, or the whole partition when the step has no join predicates — or,
// on a walked graph, the partition's rows under the entities the partial
// has bound at the step's checked positions.
func (s *scratch) descend(step int) error {
	p := s.p
	if step == len(p.order) {
		s.emit()
		return nil
	}
	sp := &p.steps[step]
	b := sp.part
	if p.kg.IsWalked() || len(sp.joins) == 0 {
		lo, n := s.rows(sp)
		for ci := lo; ci < n; ci++ {
			if s.stop.Load() {
				return nil
			}
			if !p.kg.Alive(b, ci) {
				continue
			}
			if err := s.tryCandidate(step, b, ci); err != nil {
				return err
			}
		}
		return nil
	}
	cands := p.kg.Links(sp.joins[0].part, int(s.verts[sp.joins[0].pos]), b)
	for _, jd := range sp.joins[1:] {
		if len(cands) == 0 {
			break
		}
		// In-place ping within the step's reusable buffer: the output index
		// never passes the input index, so intersecting the buffer with a
		// fresh link list is safe.
		cands = intersectInto(s.isect[step][:0], cands, p.kg.Links(jd.part, int(s.verts[jd.pos]), b))
		s.isect[step] = cands[:0]
	}
	for _, ci := range cands {
		if s.stop.Load() {
			return nil
		}
		if !p.kg.Alive(b, int(ci)) {
			continue
		}
		if err := s.tryCandidate(step, b, int(ci)); err != nil {
			return err
		}
	}
	return nil
}

// rows returns the step's candidates when they are a range of its
// partition: on a walked graph the rows [lo, hi) under the join key the
// partial has bound, on Build's graph every row.
func (s *scratch) rows(sp *stepPlan) (lo, hi int) {
	kg := s.p.kg
	if !kg.IsWalked() {
		return 0, kg.NumCandidates(sp.part)
	}
	s.key = s.key[:0]
	for _, c := range sp.check {
		s.key = append(s.key, s.asn[c.qn])
	}
	return kg.Walk(sp.part, sp.keyPos, s.key)
}

// emit finalizes the complete assignment. The exact Prle multiplies the
// factors apply recorded — every query node's label factor in node order,
// then every query edge's in q.Edges() order, the order Graph.Prle uses — so
// it is the same product whatever the join order or worker, without looking
// any factor up again; only a query edge no path step covers is looked up
// here. Prn is Graph.Prn over the mapping in node order: when no two mapped
// entities share a component that is 1.0 times every node's Exist in node
// order, multiplied here from the factors apply recorded; otherwise Prn is
// called. A match whose product prob.Clears α is handed to the sink with
// the scratch's assignment array as its mapping.
func (s *scratch) emit() {
	p := s.p
	for _, e := range p.loose {
		ep, ok := p.g.EdgeBetween(s.asn[e.qa], s.asn[e.qb])
		if !ok {
			return
		}
		s.edgeF[e.idx] = p.g.PrEdge(ep, e.la, e.lb)
	}
	prle := 1.0
	for _, f := range s.nodeF {
		prle *= f
	}
	for _, f := range s.edgeF {
		prle *= f
	}
	prn := 1.0
	if s.sharedAt[len(p.order)] == 0 {
		for _, f := range s.existF {
			prn *= f
		}
	} else {
		prn = p.g.Prn(s.asn)
	}
	if !prob.Clears(prle*prn, p.alpha) {
		return
	}
	if !s.sink(s.worker, Match{Mapping: s.asn, Prle: prle, Prn: prn}) {
		s.stop.Store(true)
	}
}

// intersectInto appends the sorted intersection of a and b to dst and
// returns it. dst may share a's backing array as long as it starts at or
// before a (the write index never passes the read index).
func intersectInto(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}
