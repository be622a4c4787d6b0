package pathindex

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
//
// A patched context is log-structured along the live chain, the way
// entity.Graph keeps its adjacency: rowOf[v] names node v's row, and Patch
// writes each recomputed row behind the end of tables the contexts of one
// chain share. A built or opened context has no rowOf; node v's row is v.
type Context struct {
	nLabels int
	rowOf   []int32   // nil, or [node] → row
	card    []int32   // [row*nLabels + label]
	ppu     []float64 // [row*nLabels + label]
	fpu     []float64 // [row*nLabels + label]

	// derived is set by the first Patch of this patched context: that one
	// may append to the shared tables in place, a later one copies them.
	derived atomic.Bool
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
				c.computeRow(g, entity.ID(v), v*nl)
			}
		}(lo, hi)
	}
	wg.Wait()
	return c
}

// computeRow fills the zeroed cells from base on with node v's row.
func (c *Context) computeRow(g *entity.Graph, v entity.ID, base int) {
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

// Patch returns the context of g: the rows of the given (distinct) nodes
// recomputed against g, every other row shared with c. A context row
// depends only on the node's own adjacency (edge distributions and neighbor
// label distributions), so after an incremental graph update it is exact to
// patch just the nodes whose adjacency changed plus the appended ones; an
// appended node the list leaves out reads a zero row.
//
// The result copies c's row index and appends its rows behind the end of
// c's tables, where no reader of c looks; c itself is not modified. Only the
// first context patched from c appends in place. A second one (a batch
// retried after its first result was dropped) gets clipped tables, so its
// first append copies, and so does the first patch of a built or opened
// context, whose tables may be a read-only mapping: that copy is made once
// per generation, not once per batch.
func (c *Context) Patch(g *entity.Graph, nodes []entity.ID) *Context {
	nl, n := c.nLabels, g.NumNodes()
	nc := &Context{nLabels: nl, rowOf: make([]int32, n), card: c.card, ppu: c.ppu, fpu: c.fpu}
	if c.rowOf == nil || !c.derived.CompareAndSwap(false, true) {
		nc.card, nc.ppu, nc.fpu = slices.Clip(c.card), slices.Clip(c.ppu), slices.Clip(c.fpu)
	}
	old := len(c.rowOf)
	if c.rowOf == nil {
		old = len(c.card) / nl
		for v := range nc.rowOf[:old] {
			nc.rowOf[v] = int32(v)
		}
	} else {
		copy(nc.rowOf, c.rowOf)
	}
	for v := old; v < n; v++ {
		nc.rowOf[v] = nc.appendRow()
	}
	for _, v := range nodes {
		if int(v) < old {
			nc.rowOf[v] = nc.appendRow()
		}
		nc.computeRow(g, v, int(nc.rowOf[v])*nl)
	}
	return nc
}

// appendRow appends one zeroed row to the tables and returns its index.
func (c *Context) appendRow() int32 {
	r := int32(len(c.card) / c.nLabels)
	c.card = append(c.card, make([]int32, c.nLabels)...)
	c.ppu = append(c.ppu, make([]float64, c.nLabels)...)
	c.fpu = append(c.fpu, make([]float64, c.nLabels)...)
	return r
}

// row returns the index of node v's first cell.
func (c *Context) row(v entity.ID) int {
	if c.rowOf == nil {
		return int(v) * c.nLabels
	}
	return int(c.rowOf[v]) * c.nLabels
}

// ContextRow is one node's row of the context tables, resolved once for
// reading several of its labels.
type ContextRow struct {
	c  *Context
	at int // index of the row's first cell
}

// Row returns node v's row.
func (c *Context) Row(v entity.ID) ContextRow { return ContextRow{c, c.row(v)} }

// Card returns c(v,σ) of the row's node v.
func (r ContextRow) Card(sigma prob.LabelID) int { return int(r.c.card[r.at+int(sigma)]) }

// PPU returns ppu(v,σ) of the row's node v.
func (r ContextRow) PPU(sigma prob.LabelID) float64 { return r.c.ppu[r.at+int(sigma)] }

// FPU returns fpu(v,σ) of the row's node v.
func (r ContextRow) FPU(sigma prob.LabelID) float64 { return r.c.fpu[r.at+int(sigma)] }

// Card returns c(v,σ).
func (c *Context) Card(v entity.ID, sigma prob.LabelID) int { return c.Row(v).Card(sigma) }

// PPU returns ppu(v,σ).
func (c *Context) PPU(v entity.ID, sigma prob.LabelID) float64 { return c.Row(v).PPU(sigma) }

// FPU returns fpu(v,σ).
func (c *Context) FPU(v entity.ID, sigma prob.LabelID) float64 { return c.Row(v).FPU(sigma) }
