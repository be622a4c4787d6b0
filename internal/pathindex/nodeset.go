package pathindex

import (
	"context"
	"encoding/binary"
	"math"
	"slices"

	"repro/internal/entity"
	"repro/internal/lru"
	"repro/internal/prob"
)

// NodeSet is a set of entity ids, one bit an id, sized to a graph's
// entities.
type NodeSet []uint64

// Has reports whether v is in the set.
func (s NodeSet) Has(v entity.ID) bool { return s[v>>6]&(1<<(v&63)) != 0 }

// newNodeSet returns the empty set over n entities.
func newNodeSet(n int) NodeSet { return make(NodeSet, (n+63)>>6) }

// add puts v in the set.
func (s NodeSet) add(v entity.ID) { s[v>>6] |= 1 << (v & 63) }

// NodeSets answers the node-level candidacy test cn(n) of Section 5.2.2
// over one entity graph and its context tables, as a set by entity id. The
// test depends on the query node only through its label l and its
// neighbour-label counts c(n,·), and it is a conjunction over the labels σ
// with c(n,σ) > 0, so the set is the intersection of one factor set per
// such σ,
//
//	F(l, σ, k, α) = {v : l ∈ L(v), lp ≥ α, c(v,σ) ≥ k, lp·fpu(v,σ)^k ≥ α}
//
// with lp = Pr(v.l = l), k = c(n,σ) and each threshold prob.MayClear's for
// the factors its bound stands for: lp's one, and a star's of 1+k nodes and
// k edges. A node with no neighbours has the set F(l, ·, 0, α), the label
// test alone. The factor sets are memoised in an internal/lru cache of
// nodeSetMemoEntries sets, so every query of one owner — an index, which is
// one generation, or a live view with mutations — after the first reads a
// factor as a bit. Every set holds only entities carrying l. Safe for
// concurrent use.
type NodeSets struct {
	g    *entity.Graph
	ctx  *Context
	memo *lru.Cache[NodeSet]
}

// nodeSetMemoEntries bounds the factor sets a NodeSets remembers: at most
// 32 bytes per entity, a quarter of the context tables at six labels.
const nodeSetMemoEntries = 256

// NewNodeSets returns an empty memo of the node-level test over g and ctx,
// the context tables valid for g.
func NewNodeSets(g *entity.Graph, ctx *Context) *NodeSets {
	return &NodeSets{g: g, ctx: ctx, memo: lru.New[NodeSet](nodeSetMemoEntries, nil)}
}

// Of returns the entities that pass the node-level test for a query node
// labelled l whose neighbour-label counts are counts (by label id), at α.
// The set is shared: the caller must not modify it.
func (s *NodeSets) Of(l prob.LabelID, counts []int, alpha float64) NodeSet {
	var out NodeSet
	owned := false // out is the memo's until a second factor is ANDed in
	for sigma, k := range counts {
		if k == 0 {
			continue
		}
		f := s.factor(l, prob.LabelID(sigma), k, alpha)
		if out == nil {
			out = f
			continue
		}
		if !owned {
			out, owned = slices.Clone(out), true
		}
		for i := range out {
			out[i] &= f[i]
		}
	}
	if out == nil {
		out = s.factor(l, 0, 0, alpha)
	}
	return out
}

// Len returns the number of factor sets the memo holds.
func (s *NodeSets) Len() int { return s.memo.Stats().Entries }

// factor returns F(l, σ, k, α) from the memo, computing it on a miss.
func (s *NodeSets) factor(l, sigma prob.LabelID, k int, alpha float64) NodeSet {
	var buf [2 + 2 + binary.MaxVarintLen64 + 8]byte
	b := binary.LittleEndian.AppendUint16(buf[:0], uint16(l))
	b = binary.LittleEndian.AppendUint16(b, uint16(sigma))
	b = binary.AppendUvarint(b, uint64(k))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(alpha))
	// A factor set is one pass over the entities and cannot fail: a caller
	// waiting on another's computation waits for it to end.
	set, _, _ := s.memo.Do(context.Background(), string(b), func() (NodeSet, error) {
		return s.compute(l, sigma, k, alpha), nil
	})
	return set
}

// compute is F(l, σ, k, α) by one pass over the entities, with the float
// operations of the per-entity test in its order: the label test on lp,
// then lp multiplied by fpu(v,σ) k times.
func (s *NodeSets) compute(l, sigma prob.LabelID, k int, alpha float64) NodeSet {
	g := s.g
	set := newNodeSet(g.NumNodes())
	labelFloor, floor := prob.Floor(alpha, 1), prob.Floor(alpha, prob.Factors(1+k, k))
	for i := range g.NumNodes() {
		v := entity.ID(i)
		if !g.HasLabel(v, l) {
			continue
		}
		lp := g.PrLabel(v, l)
		if lp < labelFloor {
			continue
		}
		if k > 0 {
			row := s.ctx.Row(v)
			if row.Card(sigma) < k {
				continue
			}
			bound, f := lp, row.FPU(sigma)
			for range k {
				bound *= f
			}
			if bound < floor {
				continue
			}
		}
		set.add(v)
	}
	return set
}
