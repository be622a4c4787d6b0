package pathindex

import (
	"repro/internal/entity"
	"repro/internal/prob"
)

// onDemand enumerates paths matching the label sequence X with probability
// ≥ alpha directly from the graph, used when alpha is below the index
// construction threshold β (footnote 1 of the paper). It performs a DFS over
// GU guided by the label sequence, pruning by partial probability. The walk
// pushes and pops nodes on one in-place path, so the records handed to fn
// alias that path and nothing is allocated per edge or per match.
func (ix *Index) onDemand(X []prob.LabelID, alpha float64, fn ScanFunc) {
	g := ix.g
	var cur opath
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		id := entity.ID(v)
		if !g.HasLabel(id, X[0]) {
			continue
		}
		lp := g.PrLabel(id, X[0])
		exist := g.Exist(id)
		if exist == 0 || lp*exist+1e-12 < alpha {
			continue
		}
		cur.n = 1
		cur.nodes[0] = id
		if !ix.onDemandExtend(&cur, X, alpha, lp, exist, fn) {
			return
		}
	}
}

// onDemandExtend grows p — whose probability components so far are prle0 and
// prn0 — by one node along X, depth first; p.n is restored before returning.
// It reports false once fn asked to stop.
func (ix *Index) onDemandExtend(p *opath, X []prob.LabelID, alpha, prle0, prn0 float64, fn ScanFunc) bool {
	if int(p.n) == len(X) {
		return fn(p.nodes[:p.n], prle0, prn0)
	}
	g := ix.g
	tail := p.nodes[p.n-1]
	tailLabel, next := X[p.n-1], X[p.n]
	for _, nb := range g.Neighbors(tail) {
		// One bit decides most neighbours before their label row is read.
		if !g.HasLabel(nb.To, next) || p.contains(nb.To) {
			continue
		}
		// A neighbour sharing a reference with a path node shares its
		// component, and the marginal over both is 0: rejected whatever α.
		prn := g.PrnExtend(p.nodes[:p.n], prn0, nb.To)
		if prn == 0 {
			continue
		}
		prle := prle0 * g.PrEdge(nb, tailLabel, next) * g.PrLabel(nb.To, next)
		if prle*prn+1e-12 < alpha {
			continue
		}
		p.nodes[p.n] = nb.To
		p.n++
		more := ix.onDemandExtend(p, X, alpha, prle, prn, fn)
		p.n--
		if !more {
			return false
		}
	}
	return true
}
