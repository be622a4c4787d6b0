package live

import (
	"context"

	"repro/internal/entity"
	"repro/internal/pathindex"
	"repro/internal/prob"
)

// View is one immutable snapshot of the live database: the on-disk base
// index of the current generation, the entity graph with every mutation
// since that generation folded in, and the dirty set — the entities whose
// probability-relevant surroundings those mutations changed. It implements
// pathindex.Reader, so the whole online phase (core.MatchStream, candidate
// pruning, the server) runs against it unchanged. A query holds one View
// for its whole run and is never affected by concurrent mutations; each
// mutation batch publishes a fresh View.
type View struct {
	base *pathindex.Index
	g    *entity.Graph      // current entity graph (base graph + delta)
	ctx  *pathindex.Context // context tables valid for g
	gen  uint64             // base generation number
	muts uint64             // mutations folded in since the base build

	// dirty marks the dirty set by entity id, nil while the view carries no
	// mutation; dirtyIDs lists the set ascending.
	dirty    []bool
	dirtyIDs []entity.ID

	// sets memoises the node-level test over g for this view alone; nil
	// when dirty is, and then the base index's memo answers for the view.
	sets *pathindex.NodeSets
}

// newView returns the view of base over g and ctx that carries muts
// mutations, whose dirty set is dirtyIDs (ascending). A view with mutations
// gets a node-level memo of its own, dropped with it: its graph is not the
// base's, and the next batch's is not its.
func newView(base *pathindex.Index, g *entity.Graph, ctx *pathindex.Context, dirtyIDs []entity.ID, gen, muts uint64) *View {
	v := &View{base: base, g: g, ctx: ctx, gen: gen, muts: muts, dirtyIDs: dirtyIDs}
	if muts > 0 {
		v.dirty = make([]bool, g.NumNodes())
		for _, id := range dirtyIDs {
			v.dirty[id] = true
		}
		v.sets = pathindex.NewNodeSets(g, ctx)
	}
	return v
}

// unionSorted merges two ascending id lists into a fresh ascending list
// without duplicates.
func unionSorted(a, b []entity.ID) []entity.ID {
	out := make([]entity.ID, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case a[0] > b[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

var _ pathindex.Reader = (*View)(nil)

// Scan streams PIndex(X, α) over the view's graph: first the base entries
// that avoid every dirty entity, which score the same in both graphs
// (entity.ApplyDelta's dirty-set contract), then the paths through a dirty
// entity, walked at α from the dirty set — together what a from-scratch
// index over the mutated graph holds. The nodes handed to fn alias the base
// index's or the walk's scratch.
func (v *View) Scan(X []prob.LabelID, alpha float64, fn pathindex.ScanFunc) error {
	if v.dirty == nil {
		return v.base.Scan(X, alpha, fn)
	}
	stopped, dirty := false, v.dirty
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
	// The anchor set is the dirty set, so every path is found once, from its
	// first dirty node, and the walk's running products are its score.
	walk := pathindex.NewWalker(v.g, alpha, len(X), X, dirty, nil, func(nodes []entity.ID, _ []prob.LabelID, prle, prn float64) bool {
		return fn(nodes, prle, prn)
	})
	for _, id := range v.dirtyIDs {
		if !walk.Anchor(id) {
			break
		}
	}
	return nil
}

// ScanCount is the base index's ScanCount while the view carries no
// mutation. With one it is Scan, counting the rows it streams: the base
// index's count memo holds counts of paths of the base graph, not of the
// view's, so the view walks every row, unfiltered.
func (v *View) ScanCount(ctx context.Context, X []prob.LabelID, alpha float64, keep pathindex.NodeFilter, fn pathindex.ScanFunc) (int, error) {
	if v.dirty == nil {
		return v.base.ScanCount(ctx, X, alpha, keep, fn)
	}
	return pathindex.CountScan(v, X, alpha, fn)
}

// NodeSet is the node-level test's set over the view's graph: from the base
// index's memo while the view carries no mutation, from the view's own
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

// Cardinality is the base index's estimate of |PIndex(X, α)|: a view
// prices paths exactly as the generation it rides on, so its plans are
// that generation's. Cardinalities only steer decomposition cost, never
// correctness.
func (v *View) Cardinality(X []prob.LabelID, alpha float64) float64 {
	return v.base.Cardinality(X, alpha)
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

// Stats returns the base index's build statistics: Entries counts the
// entries the base stores, not the paths of the view's graph.
func (v *View) Stats() pathindex.BuildStats { return v.base.Stats() }

// IndexMetrics forwards the base index's read-path counters, so the
// server's peg_index_* families work identically for live and static
// serving (pathindex.MetricsSource).
func (v *View) IndexMetrics() pathindex.IndexMetrics { return v.base.IndexMetrics() }

// SetPostingObserver forwards to the base index (pathindex.MetricsSource).
func (v *View) SetPostingObserver(fn func(micros float64)) { v.base.SetPostingObserver(fn) }

// Generation returns the base generation number of this view.
func (v *View) Generation() uint64 { return v.gen }

// DirtyEntities returns the size of the view's dirty set.
func (v *View) DirtyEntities() int { return len(v.dirtyIDs) }
