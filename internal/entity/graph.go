package entity

import (
	"sync"
	"sync/atomic"

	"repro/internal/prob"
	"repro/internal/refgraph"
)

// Component is one connected component of the identity Markov network: a
// maximal group of entities linked by shared references. Its Configs are the
// legal configurations with their normalized probabilities (Eq. 7).
type Component struct {
	Members []ID // sorted entity ids; bit i of a Config mask = Members[i]
	Configs []Config

	// memo caches subset marginals copy-on-write: readers load the map
	// lock-free (the join hot path hits it once per partial extension from
	// every worker), writers take mu, copy, insert, and republish. The set
	// of distinct masks per component is tiny — bounded by the query-node
	// subsets that land in the component — so the copies are cheap and the
	// steady state is all hits with zero contention.
	mu   sync.Mutex
	memo atomic.Pointer[map[uint64]float64]
}

// MarginalAll returns Pr(all entities in mask exist): the sum of the
// probabilities of configurations whose mask is a superset of mask. Results
// are memoized; the method is safe (and in steady state contention-free)
// for concurrent use.
func (c *Component) MarginalAll(mask uint64) float64 {
	if mask == 0 {
		return 1
	}
	if m := c.memo.Load(); m != nil {
		if p, ok := (*m)[mask]; ok {
			return p
		}
	}
	p := c.marginal(mask)
	c.mu.Lock()
	cur := c.memo.Load()
	var next map[uint64]float64
	if cur == nil {
		next = map[uint64]float64{mask: p}
	} else if _, ok := (*cur)[mask]; ok {
		c.mu.Unlock()
		return p
	} else {
		next = make(map[uint64]float64, len(*cur)+1)
		for k, v := range *cur {
			next[k] = v
		}
		next[mask] = p
	}
	c.memo.Store(&next)
	c.mu.Unlock()
	return p
}

// marginal is MarginalAll without the memo.
func (c *Component) marginal(mask uint64) float64 {
	p := 0.0
	for _, cfg := range c.Configs {
		if cfg.Mask&mask == mask {
			p += cfg.P
		}
	}
	return p
}

// Alphabet returns the label alphabet of the graph.
func (g *Graph) Alphabet() *prob.Alphabet { return g.alpha }

// NumLabels returns |Σ|.
func (g *Graph) NumLabels() int { return g.nl }

// NumNodes returns the number of entity nodes.
func (g *Graph) NumNodes() int { return len(g.set) }

// NumEdges returns the number of (undirected) GU edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, r := range g.adjRow {
		n += int(r.hi - r.lo)
	}
	return n / 2
}

// Bytes returns the resident size of the graph: every column's length times
// its element size, plus the members and configurations of the component
// table.
func (g *Graph) Bytes() int64 {
	n := 8*(len(g.adjRow)+len(g.entRow)+len(g.cpts)+len(g.labelP)+len(g.labelBits)+len(g.exist)) +
		16*len(g.adj) +
		4*(len(g.refOff)+len(g.refs)+len(g.set)+len(g.ents)+len(g.comp)+len(g.compHead)) +
		len(g.compPos) + 8*len(g.multi)
	for _, c := range g.multi {
		n += 4*len(c.Members) + 16*len(c.Configs)
	}
	return int64(n)
}

// Refs returns the member references of entity v, sorted. The returned
// slice must not be modified.
func (g *Graph) Refs(v ID) []refgraph.RefID { return g.refs[g.refOff[v]:g.refOff[v+1]] }

// LabelRow returns v's label distribution in place: element l is
// Pr(v.l = l), zero outside L(v). The returned slice must not be modified.
func (g *Graph) LabelRow(v ID) []float64 { return g.labelP[int(v)*g.nl : (int(v)+1)*g.nl] }

// Labels returns L(v): the labels of v with non-zero probability.
func (g *Graph) Labels(v ID) []prob.LabelID {
	var out []prob.LabelID
	for l, p := range g.LabelRow(v) {
		if p > 0 {
			out = append(out, prob.LabelID(l))
		}
	}
	return out
}

// PrLabel returns Pr(v.l = l), the node label factor of Eq. 2.
func (g *Graph) PrLabel(v ID, l prob.LabelID) float64 { return g.labelP[int(v)*g.nl+int(l)] }

// HasLabel reports whether l ∈ L(v), i.e. PrLabel(v, l) > 0: one bit of the
// label bitset, so a traversal can reject a neighbour without touching its
// label row.
func (g *Graph) HasLabel(v ID, l prob.LabelID) bool {
	return g.labelBits[(int(v)>>6)*g.nl+int(l)]>>(uint(v)&63)&1 != 0
}

// Exist returns the marginal existence probability Pr(v.n = T).
func (g *Graph) Exist(v ID) float64 { return g.exist[v] }

// Comp returns the index of v's identity component.
func (g *Graph) Comp(v ID) int32 { return g.comp[v] }

// Neighbors returns the adjacency list of v, sorted by neighbor id. The
// returned slice must not be modified.
func (g *Graph) Neighbors(v ID) []Neighbor { return g.adj[g.adjRow[v].lo:g.adjRow[v].hi] }

// Degree returns the number of GU neighbors of v.
func (g *Graph) Degree(v ID) int { return int(g.adjRow[v].hi - g.adjRow[v].lo) }

// EdgeBetween returns a's adjacency entry for b, if the edge exists.
func (g *Graph) EdgeBetween(a, b ID) (Neighbor, bool) {
	if e := g.Edge(a, b); len(e) != 0 {
		return e[0], true
	}
	return Neighbor{}, false
}

// Edge returns a's adjacency narrowed to its entry for b: that one entry
// if the edge exists, else none. It is a binary search of a's sorted
// adjacency, written out so the join's hottest look-up pays no closure
// call per probe. The returned slice must not be modified.
func (g *Graph) Edge(a, b ID) []Neighbor {
	nbs := g.Neighbors(a)
	lo, hi := 0, len(nbs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nbs[mid].To < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nbs) && nbs[lo].To == b {
		return nbs[lo : lo+1]
	}
	return nil
}

// PrEdge returns the existence probability of the edge behind adjacency
// entry nb given its endpoints' labels, in either orientation (a CPT is
// symmetric). For unconditional edges the labels are ignored.
func (g *Graph) PrEdge(nb Neighbor, l1, l2 prob.LabelID) float64 {
	if nb.cpt < 0 {
		return nb.base
	}
	return g.cpts[(int(nb.cpt)*g.nl+int(l1))*g.nl+int(l2)]
}

// RefsOverlap reports whether entities a and b share a reference, in which
// case they can never coexist in a legal possible world.
func (g *Graph) RefsOverlap(a, b ID) bool {
	ra, rb := g.Refs(a), g.Refs(b)
	i, j := 0, 0
	for i < len(ra) && j < len(rb) {
		switch {
		case ra[i] < rb[j]:
			i++
		case ra[i] > rb[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// NumComponents returns the number of identity components.
func (g *Graph) NumComponents() int { return len(g.compHead) }

// ComponentOf returns the identity component containing v.
func (g *Graph) ComponentOf(v ID) *Component { return g.Component(int(g.comp[v])) }

// Component returns the i-th identity component. One whose only member
// always exists is not stored: a fresh value is made up for the caller.
func (g *Graph) Component(i int) *Component {
	h := g.compHead[i]
	if h < 0 {
		return g.multi[^h]
	}
	return &Component{Members: []ID{ID(h)}, Configs: []Config{{Mask: 1, P: 1}}}
}

// Semantics returns the identity semantics the graph was built with.
func (g *Graph) Semantics() Semantics { return g.sem }

// Prn computes the identity-existence marginal Pr(V.n = T) for a set of
// entity nodes (Eq. 12): nodes are grouped by component and the per-component
// subset marginals are multiplied, in the order the components are first
// seen. Duplicate ids are harmless. Returns 0 when two nodes share a
// reference (they lie in one component, no configuration of which holds
// both): the query stages' only overlap test. A component contributing a
// single node multiplies that node's Exist — by construction MarginalAll of
// its one-bit mask, bit for bit — without probing the component's memo; so
// while every node is found alone in its component the product is taken as
// the nodes are read, and they are grouped only once two share one.
func (g *Graph) Prn(nodes []ID) float64 {
	p := 1.0
	for i, v := range nodes {
		c := g.comp[v]
		for _, u := range nodes[:i] {
			if g.comp[u] == c {
				return g.prnGrouped(nodes)
			}
		}
		p *= g.exist[v]
		if p == 0 {
			return 0
		}
	}
	return p
}

// prnGrouped is Prn for a node list in which some component holds several
// nodes. Lists spanning up to 16 components are grouped on the stack: an
// entry names its component's first node seen rather than carrying its
// Exist, 16 bytes each.
func (g *Graph) prnGrouped(nodes []ID) float64 {
	type cm struct {
		comp  int32
		first ID
		mask  uint64
	}
	var buf [16]cm
	masks := buf[:0]
	for _, v := range nodes {
		c, bit := g.comp[v], uint64(1)<<g.compPos[v]
		found := false
		for i := range masks {
			if masks[i].comp == c {
				masks[i].mask |= bit
				found = true
				break
			}
		}
		if !found {
			masks = append(masks, cm{comp: c, first: v, mask: bit})
		}
	}
	p := 1.0
	for _, m := range masks {
		if m.mask&(m.mask-1) == 0 {
			p *= g.exist[m.first]
		} else {
			p *= g.multi[^g.compHead[m.comp]].MarginalAll(m.mask)
		}
		if p == 0 {
			return 0
		}
	}
	return p
}

// PrnExtend returns Prn(nodes ∪ {v}) given prn0 = Prn(nodes), for a walk that
// grows a node list one entity at a time. When v's identity component holds
// none of nodes, Prn would append that component's one-bit mask last and
// multiply the running product — prn0 — by Exist(v), so that product is
// returned directly, the same floats in the same order; otherwise v changes
// an earlier component's mask and Prn is evaluated over the extended list.
func (g *Graph) PrnExtend(nodes []ID, prn0 float64, v ID) float64 {
	c := g.comp[v]
	for _, u := range nodes {
		if g.comp[u] == c {
			var buf [16]ID
			return g.Prn(append(append(buf[:0], nodes...), v))
		}
	}
	return prn0 * g.exist[v]
}

// Assignment is a labeled subgraph over GU: nodes with assigned labels plus
// edges, as used for Prle (Eq. 13).
type Assignment struct {
	Nodes  []ID
	Labels []prob.LabelID // parallel to Nodes
	Edges  [][2]int       // index pairs into Nodes
}

// Prle computes the label/edge probability component of Eq. 13 for an
// assignment: the product of node label probabilities and edge existence
// probabilities (conditional on the assigned labels for CPT edges).
// Returns 0 when a required edge is absent from GU.
func (g *Graph) Prle(a Assignment) float64 {
	p := 1.0
	for i, v := range a.Nodes {
		p *= g.PrLabel(v, a.Labels[i])
		if p == 0 {
			return 0
		}
	}
	for _, e := range a.Edges {
		u, v := a.Nodes[e[0]], a.Nodes[e[1]]
		ep, ok := g.EdgeBetween(u, v)
		if !ok {
			return 0
		}
		p *= g.PrEdge(ep, a.Labels[e[0]], a.Labels[e[1]])
		if p == 0 {
			return 0
		}
	}
	return p
}

// PrMatch is Pr(M) = Prn(M) · Prle(M) (Eq. 11) for an assignment.
func (g *Graph) PrMatch(a Assignment) float64 {
	le := g.Prle(a)
	if le == 0 {
		return 0
	}
	return le * g.Prn(a.Nodes)
}
