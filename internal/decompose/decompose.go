// Package decompose implements the query path decomposition of Section
// 5.2.1: the query is split into a set of (possibly overlapping) paths of
// length at most L that cover every query edge, chosen by a greedy SET COVER
// over a cardinality-based cost model, with join predicates recorded between
// overlapping paths.
package decompose

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

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
	// and Paths[j]. Pairs without shared nodes are absent.
	Joins map[[2]int][]JoinPred
	// CoverNode assigns every query node to the one partition that covers
	// its probability in w1 (Section 5.2.4); CoverEdge does the same for
	// query edges (indexed as in query.Edges order via edge key).
	CoverNode map[query.NodeID]int
	CoverEdge map[[2]query.NodeID]int
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

// Enumerate lists the candidate paths a decomposition may choose from: every
// simple path in Q with 1..MaxLen edges (one orientation each) with its
// estimated cardinality and cost. A query with no edges yields the
// single-node "path". The planner enumerates once and runs Cover per mode.
// The walk grows polynomially in query size but with a high exponent on
// dense queries, so ctx is checked periodically — a request deadline really
// does bound planning.
func Enumerate(ctx context.Context, q *query.Query, est CardEstimator, maxLen int, alpha float64) ([]Path, error) {
	if maxLen < 1 {
		return nil, fmt.Errorf("decompose: MaxLen %d < 1", maxLen)
	}
	if q.NumNodes() == 0 {
		return nil, fmt.Errorf("decompose: empty query")
	}
	if q.NumEdges() == 0 {
		if q.NumNodes() > 1 {
			return nil, fmt.Errorf("decompose: query has %d nodes but no edges", q.NumNodes())
		}
		p, err := makePath(q, est, []query.NodeID{0}, alpha)
		if err != nil {
			return nil, err
		}
		return []Path{p}, nil
	}
	return enumeratePaths(ctx, q, est, maxLen, alpha)
}

// Cover selects a covering subset of pre-enumerated candidate paths
// according to opt.Mode, recording the mode (and, for ModeRandom, the seed
// actually used) in the decomposition.
func Cover(q *query.Query, cands []Path, opt Options) (*Decomposition, error) {
	if q.NumEdges() == 0 {
		if len(cands) != 1 {
			return nil, fmt.Errorf("decompose: edgeless query wants exactly one candidate path, have %d", len(cands))
		}
		d := &Decomposition{Mode: opt.Mode, Paths: []Path{cands[0]}}
		d.Paths[0].ID = 0
		finish(q, d)
		return d, nil
	}

	var chosen []Path
	var seed int64
	switch opt.Mode {
	case ModeOptimized:
		chosen = greedyCover(q, cands)
	case ModeRandom:
		// Cover from a generator built on exactly the recorded seed (the
		// option, or the deterministic default), so the recorded value
		// reproduces the decomposition.
		seed = opt.Seed
		if seed == 0 {
			seed = 1
		}
		chosen = randomCover(q, cands, rand.New(rand.NewSource(seed)))
	default:
		return nil, fmt.Errorf("decompose: unknown mode %d", opt.Mode)
	}
	if chosen == nil {
		return nil, fmt.Errorf("decompose: query not coverable with the enumerated paths (MaxLen %d)", opt.MaxLen)
	}
	d := &Decomposition{Mode: opt.Mode, Seed: seed, Paths: chosen}
	finish(q, d)
	return d, nil
}

// enumeratePaths lists every simple path in Q with 1..maxLen edges, one
// orientation per path, with its cost.
func enumeratePaths(ctx context.Context, q *query.Query, est CardEstimator, maxLen int, alpha float64) ([]Path, error) {
	var out []Path
	n := q.NumNodes()
	steps := 0
	var dfs func(path []query.NodeID) error
	dfs = func(path []query.NodeID) error {
		steps++
		if steps&255 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if len(path) >= 2 {
			// Canonical orientation: first node < last node. (Equality is
			// impossible on a simple path.)
			if path[0] < path[len(path)-1] {
				p, err := makePath(q, est, path, alpha)
				if err != nil {
					return err
				}
				out = append(out, p)
			}
		}
		if len(path) == maxLen+1 {
			return nil
		}
		tail := path[len(path)-1]
		for _, nb := range q.Neighbors(tail) {
			skip := false
			for _, v := range path {
				if v == nb {
					skip = true
					break
				}
			}
			if skip {
				continue
			}
			if err := dfs(append(path, nb)); err != nil {
				return err
			}
		}
		return nil
	}
	for v := 0; v < n; v++ {
		if err := dfs([]query.NodeID{query.NodeID(v)}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func makePath(q *query.Query, est CardEstimator, nodes []query.NodeID, alpha float64) (Path, error) {
	cp := make([]query.NodeID, len(nodes))
	copy(cp, nodes)
	info, err := q.PathStats(cp)
	if err != nil {
		return Path{}, err
	}
	p := Path{Nodes: cp, Labels: q.Labels(cp), Info: info}
	if est != nil {
		p.Card = est.Cardinality(p.Labels, alpha)
	}
	deg := float64(info.Degree)
	if deg < 1 {
		deg = 1
	}
	den := info.Density
	if den <= 0 {
		den = 1
	}
	p.Cost = p.Card / (deg * den)
	if p.Cost <= 0 {
		// Zero estimated candidates: essentially free, but keep a tiny
		// positive cost so efficiency stays finite and comparable.
		p.Cost = 1e-9
	}
	return p, nil
}

// pathEdges returns the edge keys (a<b) traversed by the path.
func pathEdges(p *Path) [][2]query.NodeID {
	out := make([][2]query.NodeID, 0, len(p.Nodes)-1)
	for i := 0; i+1 < len(p.Nodes); i++ {
		a, b := p.Nodes[i], p.Nodes[i+1]
		if a > b {
			a, b = b, a
		}
		out = append(out, [2]query.NodeID{a, b})
	}
	return out
}

// greedyCover runs the standard greedy SET COVER approximation: repeatedly
// add the path with the highest efficiency (newly covered edges per cost)
// until all query edges are covered.
func greedyCover(q *query.Query, cands []Path) []Path {
	uncovered := make(map[[2]query.NodeID]bool, q.NumEdges())
	for _, e := range q.Edges() {
		uncovered[e] = true
	}
	var chosen []Path
	for len(uncovered) > 0 {
		bestIdx := -1
		bestEff := -1.0
		for i := range cands {
			newCover := 0
			for _, e := range pathEdges(&cands[i]) {
				if uncovered[e] {
					newCover++
				}
			}
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
			return nil // uncoverable (disconnected edge from all candidates)
		}
		p := cands[bestIdx]
		p.ID = len(chosen)
		chosen = append(chosen, p)
		for _, e := range pathEdges(&p) {
			delete(uncovered, e)
		}
	}
	return chosen
}

// randomCover picks random candidate paths until the query is covered — the
// "Random decomposition" baseline of Section 6.2.1.
func randomCover(q *query.Query, cands []Path, rng *rand.Rand) []Path {
	uncovered := make(map[[2]query.NodeID]bool, q.NumEdges())
	for _, e := range q.Edges() {
		uncovered[e] = true
	}
	perm := rng.Perm(len(cands))
	var chosen []Path
	for _, i := range perm {
		if len(uncovered) == 0 {
			break
		}
		helps := false
		for _, e := range pathEdges(&cands[i]) {
			if uncovered[e] {
				helps = true
				break
			}
		}
		if !helps {
			continue
		}
		p := cands[i]
		p.ID = len(chosen)
		chosen = append(chosen, p)
		for _, e := range pathEdges(&p) {
			delete(uncovered, e)
		}
	}
	if len(uncovered) > 0 {
		return nil
	}
	return chosen
}

// finish computes join predicates and the w1 cover assignment.
func finish(q *query.Query, d *Decomposition) {
	d.Joins = make(map[[2]int][]JoinPred)
	for i := 0; i < len(d.Paths); i++ {
		posI := positions(&d.Paths[i])
		for j := i + 1; j < len(d.Paths); j++ {
			var preds []JoinPred
			for pj, n := range d.Paths[j].Nodes {
				if pi, ok := posI[n]; ok {
					preds = append(preds, JoinPred{PosA: pi, PosB: pj})
				}
			}
			if preds != nil {
				sort.Slice(preds, func(a, b int) bool { return preds[a].PosA < preds[b].PosA })
				d.Joins[[2]int{i, j}] = preds
			}
		}
	}
	// w1 cover: first (lowest-ID) path containing the node / edge wins.
	d.CoverNode = make(map[query.NodeID]int)
	d.CoverEdge = make(map[[2]query.NodeID]int)
	for i := range d.Paths {
		for _, n := range d.Paths[i].Nodes {
			if _, ok := d.CoverNode[n]; !ok {
				d.CoverNode[n] = i
			}
		}
		for _, e := range pathEdges(&d.Paths[i]) {
			if _, ok := d.CoverEdge[e]; !ok {
				d.CoverEdge[e] = i
			}
		}
	}
}

func positions(p *Path) map[query.NodeID]int {
	m := make(map[query.NodeID]int, len(p.Nodes))
	for i, n := range p.Nodes {
		m[n] = i
	}
	return m
}

// Joined returns J(i): the partition ids sharing at least one node with
// partition i, ascending.
func (d *Decomposition) Joined(i int) []int {
	var out []int
	for k := range d.Joins {
		if k[0] == i {
			out = append(out, k[1])
		} else if k[1] == i {
			out = append(out, k[0])
		}
	}
	sort.Ints(out)
	return out
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
