// Package naive provides ground-truth baselines for testing and evaluation:
//
//   - Matches: a brute-force backtracking matcher over GU that evaluates
//     Definition 5 directly from Eq. 11, with no indexing or pruning beyond
//     labels/edges/reference legality. It is the correctness oracle for the
//     optimized pipeline.
//   - EnumerateWorlds: a full possible-worlds enumerator for tiny graphs,
//     used to validate that Pr(M) = Prn(M)·Prle(M) (Eq. 11) agrees with the
//     sum over possible world graphs (Definition 4 / Eq. 8).
package naive

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/entity"
	"repro/internal/join"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/refgraph"
)

// Matches enumerates every probabilistic match of q in g with Pr(M) ≥ alpha
// by backtracking over GU.
func Matches(ctx context.Context, g *entity.Graph, q *query.Query, alpha float64) ([]join.Match, error) {
	n := q.NumNodes()
	if n == 0 {
		return nil, nil
	}
	order := connectedOrder(q)
	mapping := make([]entity.ID, n)
	used := make(map[entity.ID]bool, n)
	var out []join.Match

	var rec func(step int) error
	rec = func(step int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if step == n {
			asn := entityAssignment(g, q, mapping)
			prle := g.Prle(asn)
			prn := g.Prn(asn.Nodes)
			if !prob.Clears(prle*prn, alpha) {
				return nil
			}
			m := join.Match{Mapping: append([]entity.ID(nil), mapping...), Prle: prle, Prn: prn}
			out = append(out, m)
			return nil
		}
		qn := order[step]
		for _, v := range candidateEntities(g, q, mapping, used, order, step) {
			if used[v] {
				continue
			}
			if !refsOK(g, mapping, order[:step], v) {
				continue
			}
			mapping[qn] = v
			used[v] = true
			if err := rec(step + 1); err != nil {
				return err
			}
			delete(used, v)
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Mapping, out[j].Mapping
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out, nil
}

// connectedOrder orders query nodes so each node (after the first of each
// component) is adjacent to an earlier one, enabling adjacency-guided
// candidate generation.
func connectedOrder(q *query.Query) []query.NodeID {
	n := q.NumNodes()
	placed := make([]bool, n)
	var order []query.NodeID
	for len(order) < n {
		seed := query.NodeID(-1)
		for v := 0; v < n; v++ {
			if !placed[v] {
				seed = query.NodeID(v)
				break
			}
		}
		placed[seed] = true
		queue := []query.NodeID{seed}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, u := range q.Neighbors(v) {
				if !placed[u] {
					placed[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return order
}

// candidateEntities lists candidates for the query node at order[step]: the
// GU neighbors of an already-mapped adjacent query node when one exists
// (pruning the search), else all nodes with a compatible label.
func candidateEntities(g *entity.Graph, q *query.Query, mapping []entity.ID, used map[entity.ID]bool, order []query.NodeID, step int) []entity.ID {
	qn := order[step]
	label := q.Label(qn)
	mappedPos := make(map[query.NodeID]bool, step)
	for _, o := range order[:step] {
		mappedPos[o] = true
	}
	var anchor query.NodeID = -1
	for _, nb := range q.Neighbors(qn) {
		if mappedPos[nb] {
			anchor = nb
			break
		}
	}
	var cands []entity.ID
	if anchor >= 0 {
		for _, nb := range g.Neighbors(mapping[anchor]) {
			if g.HasLabel(nb.To, label) && edgesSatisfied(g, q, mapping, mappedPos, qn, nb.To) {
				cands = append(cands, nb.To)
			}
		}
	} else {
		for v := 0; v < g.NumNodes(); v++ {
			id := entity.ID(v)
			if g.HasLabel(id, label) {
				cands = append(cands, id)
			}
		}
	}
	return cands
}

// edgesSatisfied checks GU edges towards every already-mapped query
// neighbor of qn.
func edgesSatisfied(g *entity.Graph, q *query.Query, mapping []entity.ID, mappedPos map[query.NodeID]bool, qn query.NodeID, v entity.ID) bool {
	for _, nb := range q.Neighbors(qn) {
		if !mappedPos[nb] {
			continue
		}
		if _, ok := g.EdgeBetween(v, mapping[nb]); !ok {
			return false
		}
	}
	return true
}

func refsOK(g *entity.Graph, mapping []entity.ID, placed []query.NodeID, v entity.ID) bool {
	for _, p := range placed {
		if g.RefsOverlap(mapping[p], v) {
			return false
		}
	}
	return true
}

func entityAssignment(g *entity.Graph, q *query.Query, mapping []entity.ID) entity.Assignment {
	n := q.NumNodes()
	asn := entity.Assignment{
		Nodes:  make([]entity.ID, n),
		Labels: make([]prob.LabelID, n),
	}
	for i := 0; i < n; i++ {
		asn.Nodes[i] = mapping[i]
		asn.Labels[i] = q.Label(query.NodeID(i))
	}
	for _, e := range q.Edges() {
		asn.Edges = append(asn.Edges, [2]int{int(e[0]), int(e[1])})
	}
	return asn
}

// World is one fully-instantiated possible world graph of a PEG.
type World struct {
	// Exists[v] reports node existence; Labels[v] is meaningful only when
	// Exists[v].
	Exists []bool
	Labels []prob.LabelID
	// Edges holds the existing edges, canonical (a<b) keys.
	Edges map[[2]entity.ID]bool
	// P is the world probability.
	P float64
}

// MaxWorldStates bounds the possible-worlds enumeration.
const MaxWorldStates = 1 << 22

// EnumerateWorlds calls fn for every possible world of the PEG with its
// probability (Eq. 8). It errors out when the state space exceeds
// MaxWorldStates. Worlds with zero probability are skipped. Enumeration
// stops early when fn returns false.
func EnumerateWorlds(g *entity.Graph, fn func(w World) bool) error {
	n := g.NumNodes()
	// Bound the state space: configs × labels × edges.
	states := 1.0
	for i := 0; i < g.NumComponents(); i++ {
		states *= float64(len(g.Component(i).Configs))
	}
	for v := 0; v < n; v++ {
		states *= float64(len(g.Labels(entity.ID(v))))
	}
	states *= float64(uint64(1) << uint(min(g.NumEdges(), 40)))
	if states > MaxWorldStates {
		return fmt.Errorf("naive: possible world space too large (~%.3g states)", states)
	}

	w := World{
		Exists: make([]bool, n),
		Labels: make([]prob.LabelID, n),
		Edges:  make(map[[2]entity.ID]bool),
	}
	stop := false
	enumConfigs(g, 0, 1, &w, &stop, fn)
	return nil
}

func enumConfigs(g *entity.Graph, ci int, p float64, w *World, stop *bool, fn func(World) bool) {
	if *stop {
		return
	}
	if ci == g.NumComponents() {
		enumLabels(g, 0, p, w, stop, fn)
		return
	}
	comp := g.Component(ci)
	for _, cfg := range comp.Configs {
		if cfg.P == 0 {
			continue
		}
		for pos, m := range comp.Members {
			w.Exists[m] = cfg.Mask&(uint64(1)<<uint(pos)) != 0
		}
		enumConfigs(g, ci+1, p*cfg.P, w, stop, fn)
	}
}

func enumLabels(g *entity.Graph, v int, p float64, w *World, stop *bool, fn func(World) bool) {
	if *stop {
		return
	}
	if v == g.NumNodes() {
		edges := collectEdges(g, w)
		enumEdges(g, edges, 0, p, w, stop, fn)
		return
	}
	if !w.Exists[v] {
		enumLabels(g, v+1, p, w, stop, fn)
		return
	}
	for l, lp := range g.LabelRow(entity.ID(v)) {
		if lp > 0 {
			w.Labels[v] = prob.LabelID(l)
			enumLabels(g, v+1, p*lp, w, stop, fn)
		}
	}
}

func collectEdges(g *entity.Graph, w *World) [][2]entity.ID {
	var out [][2]entity.ID
	for v := 0; v < g.NumNodes(); v++ {
		if !w.Exists[v] {
			continue
		}
		for _, nb := range g.Neighbors(entity.ID(v)) {
			if nb.To > entity.ID(v) && w.Exists[nb.To] {
				out = append(out, [2]entity.ID{entity.ID(v), nb.To})
			}
		}
	}
	return out
}

func enumEdges(g *entity.Graph, edges [][2]entity.ID, i int, p float64, w *World, stop *bool, fn func(World) bool) {
	if *stop {
		return
	}
	if i == len(edges) {
		w.P = p
		if !fn(*w) {
			*stop = true
		}
		return
	}
	e := edges[i]
	ep, _ := g.EdgeBetween(e[0], e[1])
	pe := g.PrEdge(ep, w.Labels[e[0]], w.Labels[e[1]])
	if pe > 0 {
		w.Edges[e] = true
		enumEdges(g, edges, i+1, p*pe, w, stop, fn)
		delete(w.Edges, e)
	}
	if pe < 1 {
		enumEdges(g, edges, i+1, p*(1-pe), w, stop, fn)
	}
}

// WorldMatchProb sums, over all possible worlds, the probability of worlds
// in which the given mapping is a match of q (Definition 4). Intended for
// tiny graphs in tests.
func WorldMatchProb(g *entity.Graph, q *query.Query, mapping []entity.ID) (float64, error) {
	total := 0.0
	err := EnumerateWorlds(g, func(w World) bool {
		if mappingMatches(q, mapping, &w) {
			total += w.P
		}
		return true
	})
	return total, err
}

func mappingMatches(q *query.Query, mapping []entity.ID, w *World) bool {
	seen := make(map[entity.ID]bool, len(mapping))
	for n := 0; n < q.NumNodes(); n++ {
		v := mapping[n]
		if !w.Exists[v] || w.Labels[v] != q.Label(query.NodeID(n)) || seen[v] {
			return false
		}
		seen[v] = true
	}
	for _, e := range q.Edges() {
		a, b := mapping[e[0]], mapping[e[1]]
		if a > b {
			a, b = b, a
		}
		if !w.Edges[[2]entity.ID{a, b}] {
			return false
		}
	}
	return true
}

// RefsLegal reports whether a mapping uses pairwise reference-disjoint
// entities (legality in Definition 4).
func RefsLegal(g *entity.Graph, mapping []entity.ID) bool {
	seen := make(map[refgraph.RefID]struct{})
	for _, v := range mapping {
		for _, r := range g.Refs(v) {
			if _, dup := seen[r]; dup {
				return false
			}
			seen[r] = struct{}{}
		}
	}
	return true
}
