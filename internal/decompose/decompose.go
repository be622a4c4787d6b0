// Package decompose implements the query path decomposition of Section
// 5.2.1: the query is split into a set of (possibly overlapping) paths of
// length at most L that cover every query edge, chosen by a greedy SET COVER
// over a cardinality-based cost model, with join predicates recorded between
// overlapping paths.
package decompose

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/prob"
	"repro/internal/query"
)

// CardEstimator estimates |PIndex(X, α)|; implemented by pathindex.Index via
// the offline histograms and exponential curve fitting.
type CardEstimator interface {
	Cardinality(X []prob.LabelID, alpha float64) float64
}

// Path is one element of a decomposition.
type Path struct {
	// ID is the partition index of the path in the decomposition.
	ID int
	// Nodes are the query node positions along the path.
	Nodes []query.NodeID
	// Labels is the label sequence lQ(V_P).
	Labels []prob.LabelID
	// Info caches the path-level statistics.
	Info query.PathInfo
	// Card is the estimated candidate cardinality |PIndex(lQ(V_P), α)|.
	Card float64
	// Cost is C(P, α) = Card / (degree · density).
	Cost float64
}

// JoinPred equates position PosA on one path with position PosB on another:
// both map to the same query node.
type JoinPred struct {
	PosA, PosB int
}

// Decomposition is a set of covering paths plus the join predicates between
// every overlapping pair.
type Decomposition struct {
	// Mode records which strategy produced the decomposition.
	Mode Mode
	// Seed is the seed the random cover actually drew from (ModeRandom
	// only; 0 for ModeOptimized). Re-running Decompose with Options.Seed
	// set to this value reproduces the decomposition exactly, which is what
	// makes EXPLAIN output and ablation runs replayable.
	Seed  int64
	Paths []Path
	// Joins maps (i,j) with i < j to the join predicates between Paths[i]
	// and Paths[j], ascending in PosA. Pairs without shared nodes are
	// absent. Pairs lists Joins' keys in ascending order.
	Joins map[[2]int][]JoinPred
	Pairs [][2]int
	// CoverNode assigns every query node to the one partition that covers
	// its probability in w1 (Section 5.2.4); CoverEdge does the same for
	// query edges (indexed as in query.Edges order via edge key).
	CoverNode map[query.NodeID]int
	CoverEdge map[[2]query.NodeID]int
	// npred[i*len(Paths)+j] is len(Preds(i, j)).
	npred []int32
}

// Mode selects the decomposition strategy.
type Mode int

const (
	// ModeOptimized uses the greedy SET COVER over the cost model.
	ModeOptimized Mode = iota
	// ModeRandom is the paper's "Random decomposition" baseline: paths are
	// chosen at random until the query is covered.
	ModeRandom
)

// Options configures Decompose.
type Options struct {
	MaxLen int     // L
	Alpha  float64 // query threshold (for cardinality estimation)
	Mode   Mode
	// Seed seeds ModeRandom (0 = the deterministic default). The seed
	// actually used is recorded in Decomposition.Seed.
	Seed int64
}

// String names the mode for plan trees and logs.
func (m Mode) String() string {
	switch m {
	case ModeOptimized:
		return "optimized"
	case ModeRandom:
		return "random"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Decompose splits the query into covering paths. Single-node queries yield
// one single-node "path". It is Enumerate followed by Cover.
func Decompose(q *query.Query, est CardEstimator, opt Options) (*Decomposition, error) {
	cands, err := Enumerate(context.Background(), q, est, opt.MaxLen, opt.Alpha)
	if err != nil {
		return nil, err
	}
	return Cover(q, cands, opt)
}

// Candidate is one path a decomposition may choose, with what the cost model
// and the covers read and no more: the path's own PathInfo (neighbors,
// reverse neighbors, cycles) is computed by Cover for the chosen paths only.
type Candidate struct {
	Nodes  []query.NodeID
	Labels []prob.LabelID
	// Card and Cost are as in Path; Degree and Density as in
	// query.PathInfo.
	Card, Cost float64
	Degree     int
	Density    float64
	// Edges is the set of query edges the path traverses, as a bitset over
	// their indexes in Query.Edges order: one word per 64 edges.
	Edges []uint64
}

// Enumerate lists the candidate paths a decomposition may choose from: every
// simple path in Q with 1..MaxLen edges (one orientation each) with its
// estimated cardinality and cost. A query with no edges yields the
// single-node "path". The planner enumerates once and runs Cover per mode.
// The paths are counted by a first walk and filled in by a second, so the
// candidates, their nodes, labels and edge sets each take one exact-size
// arena. The walk grows polynomially in query size but with a high exponent
// on dense queries, so ctx is checked periodically — a request deadline
// really does bound planning.
func Enumerate(ctx context.Context, q *query.Query, est CardEstimator, maxLen int, alpha float64) ([]Candidate, error) {
	if maxLen < 1 {
		return nil, fmt.Errorf("decompose: MaxLen %d < 1", maxLen)
	}
	if q.NumNodes() == 0 {
		return nil, fmt.Errorf("decompose: empty query")
	}
	if q.NumEdges() == 0 && q.NumNodes() > 1 {
		return nil, fmt.Errorf("decompose: query has %d nodes but no edges", q.NumNodes())
	}
	w := newWalker(ctx, q, maxLen)
	count, nodes := 0, 0
	if err := w.walk(func(path []query.NodeID) {
		count++
		nodes += len(path)
	}); err != nil {
		return nil, err
	}
	words := (q.NumEdges() + 63) / 64
	cands := make([]Candidate, 0, count)
	nodeArena := make([]query.NodeID, nodes)
	labelArena := make([]prob.LabelID, nodes)
	edgeArena := make([]uint64, count*words)
	err := w.walk(func(path []query.NodeID) {
		m := len(path)
		c := Candidate{
			Nodes:  nodeArena[:m:m],
			Labels: labelArena[:m:m],
			Edges:  edgeArena[:words:words],
		}
		nodeArena, labelArena, edgeArena = nodeArena[m:], labelArena[m:], edgeArena[words:]
		copy(c.Nodes, path)
		for i, n := range path {
			c.Labels[i] = q.Label(n)
		}
		for x := 1; x < m; x++ {
			e := w.edgeID(path[x-1], path[x])
			c.Edges[e/64] |= 1 << (e % 64)
		}
		c.Degree, c.Density = q.PathDegreeDensity(path)
		if est != nil {
			c.Card = est.Cardinality(c.Labels, alpha)
		}
		c.Cost = cost(c.Card, c.Degree, c.Density)
		cands = append(cands, c)
	})
	if err != nil {
		return nil, err
	}
	return cands, nil
}

// cost is C(P, α) = Card / (degree · density), with the degree and density
// held at 1 or more and a zero estimate kept at a tiny positive cost so
// efficiency stays finite and comparable.
func cost(card float64, degree int, density float64) float64 {
	deg := float64(degree)
	if deg < 1 {
		deg = 1
	}
	den := density
	if den <= 0 {
		den = 1
	}
	c := card / (deg * den)
	if c <= 0 {
		c = 1e-9
	}
	return c
}

// walker lists the simple paths of Q with 1..maxLen edges depth first, each
// in its canonical orientation (first node < last node; equality is
// impossible on a simple path). An edgeless query has one path, its single
// node.
type walker struct {
	ctx    context.Context
	q      *query.Query
	maxLen int
	// eid[off[a]+i] is the index in Query.Edges of the edge from a to its
	// i-th neighbor.
	off, eid []int32
	path     []query.NodeID
	steps    int
	visit    func(path []query.NodeID)
}

func newWalker(ctx context.Context, q *query.Query, maxLen int) *walker {
	n := q.NumNodes()
	w := &walker{
		ctx: ctx, q: q, maxLen: maxLen,
		off:  make([]int32, n+1),
		eid:  make([]int32, 2*q.NumEdges()),
		path: make([]query.NodeID, 0, maxLen+1),
	}
	for a := 0; a < n; a++ {
		w.off[a+1] = w.off[a] + int32(q.Degree(query.NodeID(a)))
	}
	// Query.Edges lists (a, b), a < b, by a then b: number them in that
	// order, then give each (b, a) its twin's id.
	next := int32(0)
	for a := query.NodeID(0); int(a) < n; a++ {
		for i, b := range q.Neighbors(a) {
			if a < b {
				w.eid[w.off[a]+int32(i)] = next
				next++
			} else {
				w.eid[w.off[a]+int32(i)] = w.edgeID(b, a)
			}
		}
	}
	return w
}

// edgeID returns the index in Query.Edges of the edge between a and b.
func (w *walker) edgeID(a, b query.NodeID) int32 {
	return w.eid[w.off[a]+int32(slices.Index(w.q.Neighbors(a), b))]
}

// walk calls visit for every path, in the same order on every call.
func (w *walker) walk(visit func(path []query.NodeID)) error {
	w.visit, w.steps = visit, 0
	if w.q.NumEdges() == 0 {
		visit(append(w.path[:0], 0))
		return nil
	}
	for v := 0; v < w.q.NumNodes(); v++ {
		w.path = append(w.path[:0], query.NodeID(v))
		if err := w.dfs(); err != nil {
			return err
		}
	}
	return nil
}

func (w *walker) dfs() error {
	w.steps++
	if w.steps&255 == 0 {
		if err := w.ctx.Err(); err != nil {
			return err
		}
	}
	path := w.path
	if len(path) >= 2 && path[0] < path[len(path)-1] {
		w.visit(path)
	}
	if len(path) == w.maxLen+1 {
		return nil
	}
	tail := path[len(path)-1]
	for _, nb := range w.q.Neighbors(tail) {
		if slices.Index(path, nb) >= 0 {
			continue
		}
		w.path = append(path, nb)
		if err := w.dfs(); err != nil {
			return err
		}
	}
	return nil
}

// Cover selects a covering subset of pre-enumerated candidate paths
// according to opt.Mode, recording the mode (and, for ModeRandom, the seed
// actually used) in the decomposition. Only the chosen paths get their
// PathInfo.
func Cover(q *query.Query, cands []Candidate, opt Options) (*Decomposition, error) {
	var chosen []int
	var seed int64
	switch {
	case q.NumEdges() == 0:
		if len(cands) != 1 {
			return nil, fmt.Errorf("decompose: edgeless query wants exactly one candidate path, have %d", len(cands))
		}
		chosen = []int{0}
	case opt.Mode == ModeOptimized:
		chosen = greedyCover(q, cands)
	case opt.Mode == ModeRandom:
		// Cover from the permutation of exactly the recorded seed (the
		// option, or the deterministic default), so the recorded value
		// reproduces the decomposition.
		seed = opt.Seed
		if seed == 0 {
			seed = defaultSeed
		}
		chosen = randomCover(q, cands, seed)
	default:
		return nil, fmt.Errorf("decompose: unknown mode %d", opt.Mode)
	}
	if chosen == nil {
		return nil, fmt.Errorf("decompose: query not coverable with the enumerated paths (MaxLen %d)", opt.MaxLen)
	}
	d := &Decomposition{Mode: opt.Mode, Seed: seed, Paths: make([]Path, len(chosen))}
	for id, ci := range chosen {
		c := &cands[ci]
		info, err := q.PathStats(c.Nodes)
		if err != nil {
			return nil, err
		}
		d.Paths[id] = Path{ID: id, Nodes: c.Nodes, Labels: c.Labels, Info: info, Card: c.Card, Cost: c.Cost}
	}
	finish(q, d)
	return d, nil
}

// uncoveredEdges returns a bitset with every query edge in it.
func uncoveredEdges(q *query.Query) []uint64 {
	e := q.NumEdges()
	set := make([]uint64, (e+63)/64)
	for i := range set {
		set[i] = ^uint64(0)
	}
	if e%64 != 0 {
		set[len(set)-1] = 1<<(e%64) - 1
	}
	return set
}

// newlyCovered counts the edges of set still in uncovered.
func newlyCovered(set, uncovered []uint64) int {
	n := 0
	for x, word := range set {
		n += bits.OnesCount64(word & uncovered[x])
	}
	return n
}

// take removes set's edges from uncovered and returns how many were in it.
func take(uncovered, set []uint64) int {
	n := newlyCovered(set, uncovered)
	for x, word := range set {
		uncovered[x] &^= word
	}
	return n
}

// greedyCover runs the standard greedy SET COVER approximation: repeatedly
// add the path with the highest efficiency (newly covered edges per cost)
// until all query edges are covered. It returns the chosen candidates'
// indexes in the order chosen, nil if some edge is on no candidate.
func greedyCover(q *query.Query, cands []Candidate) []int {
	uncovered := uncoveredEdges(q)
	var chosen []int
	for left := q.NumEdges(); left > 0; {
		bestIdx := -1
		bestEff := -1.0
		for i := range cands {
			newCover := newlyCovered(cands[i].Edges, uncovered)
			if newCover == 0 {
				continue
			}
			eff := float64(newCover) / cands[i].Cost
			if eff > bestEff {
				bestEff = eff
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			return nil
		}
		chosen = append(chosen, bestIdx)
		left -= take(uncovered, cands[bestIdx].Edges)
	}
	return chosen
}

// randomCover picks random candidate paths until the query is covered — the
// "Random decomposition" baseline of Section 6.2.1 — in the order of
// math/rand's Perm(len(cands)) for the seed.
func randomCover(q *query.Query, cands []Candidate, seed int64) []int {
	uncovered := uncoveredEdges(q)
	left := q.NumEdges()
	var chosen []int
	for _, i := range permutation(seed, len(cands)) {
		if left == 0 {
			break
		}
		if newlyCovered(cands[i].Edges, uncovered) == 0 {
			continue
		}
		chosen = append(chosen, int(i))
		left -= take(uncovered, cands[i].Edges)
	}
	if left > 0 {
		return nil
	}
	return chosen
}

// defaultSeed is the seed ModeRandom draws from when none is given.
const defaultSeed = 1

// defaultSwaps replays math/rand's Perm for defaultSeed. Perm(n) on a fresh
// generator draws j_i = Intn(i+1) for i = 0..n-1 and swaps on each, so one
// stored sequence j_0, j_1, … serves every n: it is extended on demand, up
// to the largest candidate count seen, from the one generator kept for it.
// An extension appends past every prefix handed out, so a prefix stays
// valid after mu is released.
var defaultSwaps struct {
	mu  sync.Mutex
	rng *rand.Rand
	seq []int32
}

// swapsFor returns the first n draws of defaultSeed's swap sequence.
func swapsFor(n int) []int32 {
	defaultSwaps.mu.Lock()
	defer defaultSwaps.mu.Unlock()
	if defaultSwaps.rng == nil {
		defaultSwaps.rng = rand.New(rand.NewSource(defaultSeed))
	}
	for i := len(defaultSwaps.seq); i < n; i++ {
		defaultSwaps.seq = append(defaultSwaps.seq, int32(defaultSwaps.rng.Intn(i+1)))
	}
	return defaultSwaps.seq[:n]
}

// permutation returns rand.New(rand.NewSource(seed)).Perm(n) as int32s,
// replayed from the stored swap sequence for the default seed and drawn
// from a fresh generator for any other.
func permutation(seed int64, n int) []int32 {
	m := make([]int32, n)
	swap := func(i, j int) {
		m[i] = m[j]
		m[j] = int32(i)
	}
	if seed == defaultSeed {
		for i, j := range swapsFor(n) {
			swap(i, int(j))
		}
		return m
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		swap(i, rng.Intn(i+1))
	}
	return m
}

// finish computes the join predicates and the w1 cover assignment. A
// counting pass over the path pairs sizes Joins, Pairs and the predicates'
// one arena exactly, and a second pass fills them.
func finish(q *query.Query, d *Decomposition) {
	k := len(d.Paths)
	// at[v] is one plus node v's position on the path being joined.
	at := make([]int32, q.NumNodes())
	d.npred = make([]int32, k*k)
	pairs, total := 0, 0
	for i := 0; i < k; i++ {
		mark(at, d.Paths[i].Nodes, true)
		for j := i + 1; j < k; j++ {
			n := int32(0)
			for _, v := range d.Paths[j].Nodes {
				if at[v] > 0 {
					n++
				}
			}
			if n > 0 {
				d.npred[i*k+j], d.npred[j*k+i] = n, n
				pairs++
				total += int(n)
			}
		}
		mark(at, d.Paths[i].Nodes, false)
	}
	d.Joins = make(map[[2]int][]JoinPred, pairs)
	d.Pairs = make([][2]int, 0, pairs)
	preds := make([]JoinPred, total)
	for i := 0; i < k; i++ {
		mark(at, d.Paths[i].Nodes, true)
		for j := i + 1; j < k; j++ {
			n := int(d.npred[i*k+j])
			if n == 0 {
				continue
			}
			ps := preds[:0:n]
			preds = preds[n:]
			for pj, v := range d.Paths[j].Nodes {
				if pi := int(at[v]) - 1; pi >= 0 {
					// Insert in ascending PosA: a path holds a node once,
					// so the positions are distinct.
					x := len(ps)
					ps = append(ps, JoinPred{})
					for ; x > 0 && ps[x-1].PosA > pi; x-- {
						ps[x] = ps[x-1]
					}
					ps[x] = JoinPred{PosA: pi, PosB: pj}
				}
			}
			d.Joins[[2]int{i, j}] = ps
			d.Pairs = append(d.Pairs, [2]int{i, j})
		}
		mark(at, d.Paths[i].Nodes, false)
	}
	// w1 cover: first (lowest-ID) path containing the node / edge wins.
	d.CoverNode = make(map[query.NodeID]int, q.NumNodes())
	d.CoverEdge = make(map[[2]query.NodeID]int, q.NumEdges())
	for i := range d.Paths {
		nodes := d.Paths[i].Nodes
		for x, n := range nodes {
			if _, ok := d.CoverNode[n]; !ok {
				d.CoverNode[n] = i
			}
			if x == 0 {
				continue
			}
			a, b := nodes[x-1], n
			if a > b {
				a, b = b, a
			}
			if _, ok := d.CoverEdge[[2]query.NodeID{a, b}]; !ok {
				d.CoverEdge[[2]query.NodeID{a, b}] = i
			}
		}
	}
}

// mark sets at[v] to one plus v's position on the path, or clears it.
func mark(at []int32, nodes []query.NodeID, on bool) {
	for pos, v := range nodes {
		at[v] = 0
		if on {
			at[v] = int32(pos + 1)
		}
	}
}

// Joined returns J(i): the partition ids sharing at least one node with
// partition i, ascending.
func (d *Decomposition) Joined(i int) []int {
	var out []int
	for _, pair := range d.Pairs {
		if pair[0] == i {
			out = append(out, pair[1])
		} else if pair[1] == i {
			out = append(out, pair[0])
		}
	}
	return out
}

// NumPreds returns len(Preds(i, j)) on a decomposition Cover built, without
// building the predicates.
func (d *Decomposition) NumPreds(i, j int) int {
	return int(d.npred[i*len(d.Paths)+j])
}

// Preds returns the join predicates between partitions i and j oriented so
// PosA indexes partition i's path and PosB partition j's.
func (d *Decomposition) Preds(i, j int) []JoinPred {
	if i < j {
		return d.Joins[[2]int{i, j}]
	}
	raw := d.Joins[[2]int{j, i}]
	out := make([]JoinPred, len(raw))
	for k, p := range raw {
		out[k] = JoinPred{PosA: p.PosB, PosB: p.PosA}
	}
	return out
}
