package pathindex

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
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

const ctxMagic = "PEGC"

// Save writes the context tables to a file.
func (c *Context) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("pathindex: save context: %w", err)
	}
	w := bufio.NewWriter(f)
	var hdr [12]byte
	copy(hdr[:4], ctxMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(c.nLabels))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(c.card)))
	if _, err := w.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	var buf [8]byte
	for _, v := range c.card {
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
		if _, err := w.Write(buf[:4]); err != nil {
			f.Close()
			return err
		}
	}
	for _, v := range c.ppu {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		if _, err := w.Write(buf[:]); err != nil {
			f.Close()
			return err
		}
	}
	for _, v := range c.fpu {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		if _, err := w.Write(buf[:]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadContext reads context tables written by Save.
func LoadContext(path string) (*Context, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pathindex: load context: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pathindex: load context: %w", err)
	}
	if string(hdr[:4]) != ctxMagic {
		return nil, fmt.Errorf("pathindex: bad context magic %q", hdr[:4])
	}
	nl := int(binary.LittleEndian.Uint32(hdr[4:]))
	n := int(binary.LittleEndian.Uint32(hdr[8:]))
	if nl <= 0 || n < 0 || n > 1<<30 {
		return nil, fmt.Errorf("pathindex: corrupt context header (%d labels, %d cells)", nl, n)
	}
	c := &Context{nLabels: nl, card: make([]int32, n), ppu: make([]float64, n), fpu: make([]float64, n)}
	var buf [8]byte
	for i := range c.card {
		if _, err := io.ReadFull(r, buf[:4]); err != nil {
			return nil, fmt.Errorf("pathindex: load context card: %w", err)
		}
		c.card[i] = int32(binary.LittleEndian.Uint32(buf[:4]))
	}
	for i := range c.ppu {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, fmt.Errorf("pathindex: load context ppu: %w", err)
		}
		c.ppu[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	}
	for i := range c.fpu {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, fmt.Errorf("pathindex: load context fpu: %w", err)
		}
		c.fpu[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	}
	return c, nil
}
