package pathindex

import (
	"runtime"
	"sync"

	"repro/internal/entity"
	"repro/internal/prob"
)

// Context holds the per-node context information of Section 5.1, computed
// for every (node, label) pair over the neighbor set
// N(v,σ) = {v' ∈ Γ(v) : σ ∈ L(v')} (reference-disjointness is already
// enforced by GU edge construction):
//
//	c(v,σ)   — cardinality |N(v,σ)|
//	ppu(v,σ) — partial probability upperbound: max edge probability into N(v,σ)
//	fpu(v,σ) — full probability upperbound: max of Pr(v'.l=σ)·Pr((v,v').e)
//
// For label-conditioned edges (Section 5.3), the unknown endpoint label is
// maximized over, exactly as the paper prescribes.
type Context struct {
	nLabels int
	card    []int32   // [node*nLabels + label]
	ppu     []float64 // [node*nLabels + label]
	fpu     []float64 // [node*nLabels + label]
}

// ComputeContext builds the context tables for all nodes, in parallel.
func ComputeContext(g *entity.Graph, workers int) *Context {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.NumNodes()
	nl := g.NumLabels()
	c := &Context{
		nLabels: nl,
		card:    make([]int32, n*nl),
		ppu:     make([]float64, n*nl),
		fpu:     make([]float64, n*nl),
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for v := lo; v < hi; v++ {
				c.computeNode(g, entity.ID(v))
			}
		}(lo, hi)
	}
	wg.Wait()
	return c
}

func (c *Context) computeNode(g *entity.Graph, v entity.ID) {
	base := int(v) * c.nLabels
	for _, nb := range g.Neighbors(v) {
		// Edge probability with v's own label unknown: max over v's labels.
		// For unconditional edges this is just the base probability.
		for sigma, lp := range g.LabelRow(nb.To) {
			if lp == 0 {
				continue
			}
			idx := base + sigma
			c.card[idx]++
			ep := maxEdgeProbGivenNeighbor(g, v, nb, prob.LabelID(sigma))
			if ep > c.ppu[idx] {
				c.ppu[idx] = ep
			}
			f := lp * ep
			if f > c.fpu[idx] {
				c.fpu[idx] = f
			}
		}
	}
}

// maxEdgeProbGivenNeighbor bounds Pr((v,v').e = T | v'.l = sigma) when v's
// label is unknown: the Section 5.3 max-over-labels modification.
func maxEdgeProbGivenNeighbor(g *entity.Graph, v entity.ID, nb entity.Neighbor, sigma prob.LabelID) float64 {
	if !nb.Conditional() {
		return nb.Base()
	}
	m := 0.0
	for lv, lp := range g.LabelRow(v) {
		if lp == 0 {
			continue
		}
		if p := g.PrEdge(nb, prob.LabelID(lv), sigma); p > m {
			m = p
		}
	}
	return m
}

// Patch returns a copy of c resized for g with the rows of the given nodes
// recomputed against g; all other rows are carried over unchanged. A context
// row depends only on the node's own adjacency (edge distributions and
// neighbor label distributions), so after an incremental graph update it is
// exact to patch just the nodes whose adjacency changed plus the appended
// ones. The receiver is not modified.
func (c *Context) Patch(g *entity.Graph, nodes []entity.ID) *Context {
	n := g.NumNodes()
	nc := &Context{
		nLabels: c.nLabels,
		card:    make([]int32, n*c.nLabels),
		ppu:     make([]float64, n*c.nLabels),
		fpu:     make([]float64, n*c.nLabels),
	}
	copy(nc.card, c.card)
	copy(nc.ppu, c.ppu)
	copy(nc.fpu, c.fpu)
	for _, v := range nodes {
		base := int(v) * c.nLabels
		for i := base; i < base+c.nLabels; i++ {
			nc.card[i], nc.ppu[i], nc.fpu[i] = 0, 0, 0
		}
		nc.computeNode(g, v)
	}
	return nc
}

// Card returns c(v,σ).
func (c *Context) Card(v entity.ID, sigma prob.LabelID) int {
	return int(c.card[int(v)*c.nLabels+int(sigma)])
}

// PPU returns ppu(v,σ).
func (c *Context) PPU(v entity.ID, sigma prob.LabelID) float64 {
	return c.ppu[int(v)*c.nLabels+int(sigma)]
}

// FPU returns fpu(v,σ).
func (c *Context) FPU(v entity.ID, sigma prob.LabelID) float64 {
	return c.fpu[int(v)*c.nLabels+int(sigma)]
}
