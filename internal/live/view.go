package live

import (
	"context"

	"repro/internal/entity"
	"repro/internal/pathindex"
	"repro/internal/prob"
)

// View is one immutable snapshot of the live database: the on-disk base
// index of the current generation merged with the in-memory delta overlay
// that carries everything mutated since that generation was built. It
// implements pathindex.Reader, so the whole online phase (core.MatchStream,
// candidate pruning, the server) runs against it unchanged. A query holds
// one View for its whole run and is never affected by concurrent mutations;
// each mutation batch publishes a fresh View.
type View struct {
	base *pathindex.Index
	g    *entity.Graph      // current entity graph (base graph + delta)
	ctx  *pathindex.Context // context tables valid for g
	ov   *overlay           // nil when no mutations since the base build
	gen  uint64             // base generation number
	muts uint64             // mutations folded in since the base build

	// sets memoises the node-level test over g for this view alone; nil
	// when ov is, and then the base index's memo answers for the view.
	sets *pathindex.NodeSets
}

// newView returns the view of base and the overlay ov over g and ctx. A
// view with an overlay gets a node-level memo of its own, dropped with it:
// its graph is not the base's, and the next batch's is not its.
func newView(base *pathindex.Index, g *entity.Graph, ctx *pathindex.Context, ov *overlay, gen, muts uint64) *View {
	v := &View{base: base, g: g, ctx: ctx, ov: ov, gen: gen, muts: muts}
	if ov != nil {
		v.sets = pathindex.NewNodeSets(g, ctx)
	}
	return v
}

var _ pathindex.Reader = (*View)(nil)

// Scan merges PIndex(X, α) from both layers: base entries that avoid every
// dirty entity are still exact, and the overlay contributes exactly the
// dirty-touching paths of the current graph — together they equal a
// from-scratch index over the mutated graph. Base paths stream first, then
// the overlay's.
func (v *View) Scan(X []prob.LabelID, alpha float64, fn pathindex.ScanFunc) error {
	if v.ov == nil {
		return v.base.Scan(X, alpha, fn)
	}
	stopped, dirty := false, v.ov.dirty
	err := v.base.Scan(X, alpha, func(nodes []entity.ID, prle, prn float64) bool {
		for _, n := range nodes {
			if dirty[n] {
				return true
			}
		}
		stopped = !fn(nodes, prle, prn)
		return !stopped
	})
	if err != nil || stopped {
		return err
	}
	v.ov.scan(X, alpha, fn)
	return nil
}

// ScanCount is the base index's ScanCount while the view carries no
// overlay. With one it is Scan, counting the rows it streams: the base
// index's count memo holds counts of paths of the base graph, not of the
// view's, so the view walks every row, unfiltered.
func (v *View) ScanCount(ctx context.Context, X []prob.LabelID, alpha float64, keep pathindex.NodeFilter, fn pathindex.ScanFunc) (int, error) {
	if v.ov == nil {
		return v.base.ScanCount(ctx, X, alpha, keep, fn)
	}
	return pathindex.CountScan(v, X, alpha, fn)
}

// NodeSet is the node-level test's set over the view's graph: from the base
// index's memo while the view carries no overlay, from the view's own
// otherwise.
func (v *View) NodeSet(l prob.LabelID, counts []int, alpha float64) pathindex.NodeSet {
	if v.sets == nil {
		return v.base.NodeSet(l, counts, alpha)
	}
	return v.sets.Of(l, counts, alpha)
}

// Lookup returns PIndex(X, α) as caller-owned memory.
func (v *View) Lookup(X []prob.LabelID, alpha float64) ([]pathindex.PathMatch, error) {
	return pathindex.Collect(v, X, alpha)
}

// Cardinality estimates |PIndex(X, α)| as the base histogram estimate plus
// the overlay's exact count. Base entries invalidated by mutations are still
// counted — cardinalities only steer decomposition cost, never correctness.
func (v *View) Cardinality(X []prob.LabelID, alpha float64) float64 {
	c := v.base.Cardinality(X, alpha)
	if v.ov != nil {
		c += v.ov.cardinality(X, alpha)
	}
	return c
}

// Context returns context tables valid for Graph(): the base tables patched
// for every entity whose adjacency changed.
func (v *View) Context() *pathindex.Context { return v.ctx }

// Graph returns the current entity graph.
func (v *View) Graph() *entity.Graph { return v.g }

// MaxLen returns the base index's maximum path length L.
func (v *View) MaxLen() int { return v.base.MaxLen() }

// Beta returns the base index's construction threshold β.
func (v *View) Beta() float64 { return v.base.Beta() }

// Stats returns the base build statistics with the overlay's entry count
// folded into Entries.
func (v *View) Stats() pathindex.BuildStats {
	st := v.base.Stats()
	st.Entries += v.OverlayPaths()
	return st
}

// IndexMetrics forwards the base index's read-path counters, so the
// server's peg_index_* families work identically for live and static
// serving (pathindex.MetricsSource).
func (v *View) IndexMetrics() pathindex.IndexMetrics { return v.base.IndexMetrics() }

// SetPostingObserver forwards to the base index (pathindex.MetricsSource).
func (v *View) SetPostingObserver(fn func(micros float64)) { v.base.SetPostingObserver(fn) }

// Generation returns the base generation number of this view.
func (v *View) Generation() uint64 { return v.gen }

// Mutations returns how many mutations the overlay carries on top of the
// base generation.
func (v *View) Mutations() uint64 { return v.muts }

// DirtyEntities returns how many entities the overlay tracks as dirty.
func (v *View) DirtyEntities() int {
	if v.ov == nil {
		return 0
	}
	return len(v.ov.dirtyIDs)
}

// OverlayPaths returns how many paths the overlay stores.
func (v *View) OverlayPaths() uint64 {
	if v.ov == nil {
		return 0
	}
	return v.ov.count
}
