package live

import (
	"slices"

	"repro/internal/entity"
	"repro/internal/pathindex"
	"repro/internal/prob"
)

// maxNodes mirrors pathindex: the maximum number of nodes on an indexed
// path.
const maxNodes = pathindex.MaxSupportedLen + 1

// overlay is the in-memory delta path index over the current entity graph:
// exactly the paths (length ≤ maxLen edges, probability ≥ β) that touch at
// least one dirty entity — the entities whose probability-relevant
// surroundings changed since the immutable base index was built. The merged
// view answers Lookup as base-minus-dirty plus overlay, so together they are
// equivalent to an index rebuilt from scratch on the mutated graph.
//
// Unlike the base index, which stores one canonical orientation per path and
// reconstructs the other at lookup, the overlay stores both orientations
// under their own label sequences: each oriented path is stored exactly
// once, scored from its first dirty node (see firstDirtyScore), which also
// makes the palindrome and reversal cases of Lookup fall out naturally.
//
// An overlay is immutable once extend returns and safe for concurrent
// readers. Consecutive overlays share the arena of every label sequence a
// batch left alone, and the row storage of the others (see rows).
type overlay struct {
	g        *entity.Graph
	dirty    []bool      // by entity id, len == g.NumNodes()
	dirtyIDs []entity.ID // the same set, ascending
	beta     float64
	maxLen   int

	entries map[seqKey]*rows // oriented label seq → paths
	count   uint64           // live rows over all entries

	// What the extend that built this overlay did, for tests: the batch's
	// dirty entities and how many walks it anchored.
	fresh  []entity.ID
	walked int
}

// seqKey is an oriented label sequence as a fixed-size map key (16-bit
// labels, the width the base dictionary interns).
type seqKey struct {
	labels [maxNodes]uint16
	n      uint8
}

func makeKey(labels []prob.LabelID) seqKey {
	k := seqKey{n: uint8(len(labels))}
	for i, l := range labels {
		k.labels[i] = uint16(l)
	}
	return k
}

// rows is the arena of one label sequence in one overlay: row i is the path
// nodes[i·width:(i+1)·width] with probability components prle[i], prn[i],
// unless bit i of dead is set.
//
// A rows value never changes once its overlay is published, but the arrays
// behind its three columns are shared along the chain of overlays: the next
// overlay that adds paths to the sequence appends them in place, past this
// value's length, and marks the rows a batch superseded in its own copy of
// dead instead of moving the others. Readers stay inside their own lengths,
// so the single writer (extend runs under DB.mu) never touches what they
// read. end counts the rows written to the shared arrays; a rows value
// shorter than that is no longer the newest of its chain and is copied
// before being appended to.
type rows struct {
	width int
	nodes []entity.ID
	prle  []float64
	prn   []float64
	dead  []uint64 // bitset by row, possibly shorter than the rows; nil = none
	live  int      // rows not dead
	end   *int
}

func (r *rows) len() int { return len(r.prle) }

func (r *rows) row(i int) []entity.ID {
	return r.nodes[i*r.width : (i+1)*r.width : (i+1)*r.width]
}

func (r *rows) isDead(i int) bool {
	w := i >> 6
	return w < len(r.dead) && r.dead[w]>>(uint(i)&63)&1 != 0
}

func (r *rows) add(nodes []entity.ID, prle, prn float64) {
	r.nodes = append(r.nodes, nodes...)
	r.prle = append(r.prle, prle)
	r.prn = append(r.prn, prn)
	r.live++
	*r.end = r.len()
}

// without returns r's successor after a batch superseded the rows listed in
// drop (ascending, live): r itself when there are none, nil when no row is
// left, and otherwise a value that shares r's columns and marks the dropped
// rows dead — unless that would leave more dead rows than live ones, in
// which case the live rows move to arrays of their own.
func (r *rows) without(drop []int32) *rows {
	if len(drop) == 0 {
		return r
	}
	live := r.live - len(drop)
	if live == 0 {
		return nil
	}
	if r.len()-live > live {
		nr := &rows{width: r.width, end: new(int),
			nodes: make([]entity.ID, 0, live*r.width), prle: make([]float64, 0, live), prn: make([]float64, 0, live)}
		for i := 0; i < r.len(); i++ {
			if len(drop) > 0 && int(drop[0]) == i {
				drop = drop[1:]
			} else if !r.isDead(i) {
				nr.add(r.row(i), r.prle[i], r.prn[i])
			}
		}
		return nr
	}
	nr := *r
	nr.live = live
	nr.dead = make([]uint64, (r.len()+63)/64)
	copy(nr.dead, r.dead)
	for _, i := range drop {
		nr.dead[i>>6] |= 1 << (uint(i) & 63)
	}
	return &nr
}

// extend derives the overlay of graph g from its predecessor after a batch
// that dirtied the entities in fresh (ascending; g is prev's graph with that
// batch folded in by entity.ApplyDelta). The cumulative dirty set grows by
// fresh. Every stored path of prev that avoids fresh scores identically in g
// (ApplyDelta's dirty-set contract) and is kept where it lies; every path of
// g through a fresh entity is enumerated by walks anchored at the fresh
// entities alone and appended. A label sequence that loses no row and gains
// none keeps prev's arena.
//
// With a nil predecessor nothing is kept and fresh is the whole dirty set:
// the from-scratch build, used after a compaction and on WAL replay. Either
// way the result holds, per label sequence, the same paths with the same
// float bits as that from-scratch build on g and the cumulative dirty set.
// An overlay is extended at most once (DB.mu serializes the writers).
func extend(prev *overlay, g *entity.Graph, fresh []entity.ID, beta float64, maxLen int) *overlay {
	ov := &overlay{g: g, beta: beta, maxLen: maxLen, dirty: make([]bool, g.NumNodes()), fresh: fresh}
	var (
		kept     map[seqKey]*rows
		dirtyIDs []entity.ID
	)
	if prev != nil {
		copy(ov.dirty, prev.dirty)
		kept, dirtyIDs, ov.count = prev.entries, prev.dirtyIDs, prev.count
	}
	isFresh := make([]bool, g.NumNodes())
	for _, v := range fresh {
		ov.dirty[v], isFresh[v] = true, true
	}
	ov.dirtyIDs = unionSorted(dirtyIDs, fresh)

	ov.entries = make(map[seqKey]*rows, len(kept))
	var drop []int32
	for k, r := range kept {
		drop = drop[:0]
		for j, v := range r.nodes {
			if !isFresh[v] {
				continue
			}
			if i := int32(j / r.width); (len(drop) == 0 || drop[len(drop)-1] != i) && !r.isDead(int(i)) {
				drop = append(drop, i)
			}
		}
		ov.count -= uint64(len(drop))
		if nr := r.without(drop); nr != nil {
			ov.entries[k] = nr
		}
	}

	walk := pathindex.NewWalker(g, beta, maxLen+1, nil, isFresh, nil, func(nodes []entity.ID, labels []prob.LabelID, at int, prle, prn float64) bool {
		prle, prn = firstDirtyScore(g, ov.dirty, nodes, labels, at, prle, prn)
		k := makeKey(labels)
		r := ov.entries[k]
		switch {
		case r == nil:
			r = &rows{width: len(nodes), end: new(int)}
			ov.entries[k] = r
		case *r.end != r.len():
			// A later overlay already wrote past r's rows (r's overlay was
			// extended before): append to copies of the columns.
			r = &rows{width: r.width, dead: r.dead, live: r.live, end: new(int),
				nodes: slices.Clip(r.nodes), prle: slices.Clip(r.prle), prn: slices.Clip(r.prn)}
			ov.entries[k] = r
		case r == kept[k]:
			// The value is prev's: append in place through one of this
			// overlay's own.
			nr := *r
			r = &nr
			ov.entries[k] = r
		}
		r.add(nodes, prle, prn)
		ov.count++
		return true
	})
	for _, v := range fresh {
		walk.Anchor(v)
		ov.walked++
	}
	return ov
}

// firstDirtyScore returns the score a path is stored with: the one a walk
// anchored at the path's first dirty node d multiplies — d's label factor,
// then an edge and a label factor per node leftwards from d, then
// rightwards, with Prn over the nodes in that same order. The walk that found
// the path started at position at, and every node left of it lies outside
// its anchor set; when that set is the whole dirty set, the anchor is the
// first dirty node and the walk's running products are the score. During
// incremental maintenance the anchor set is only the batch's fresh
// entities, a dirty node may lie left of the anchor, and the path is scored
// again from that node factor by factor in the walk's order — so what is
// stored never depends on which batch found it.
func firstDirtyScore(g *entity.Graph, dirty []bool, nodes []entity.ID, labels []prob.LabelID, at int, prle, prn float64) (float64, float64) {
	d := slices.IndexFunc(nodes[:at], func(v entity.ID) bool { return dirty[v] })
	if d < 0 {
		return prle, prn
	}
	var order [maxNodes]entity.ID
	order[0] = nodes[d]
	k := 1
	prle = g.PrLabel(nodes[d], labels[d])
	for i := d - 1; i >= 0; i-- {
		e, _ := g.EdgeBetween(nodes[i+1], nodes[i])
		prle = prle * g.PrEdge(e, labels[i], labels[i+1]) * g.PrLabel(nodes[i], labels[i])
		order[k] = nodes[i]
		k++
	}
	for i := d + 1; i < len(nodes); i++ {
		e, _ := g.EdgeBetween(nodes[i-1], nodes[i])
		prle = prle * g.PrEdge(e, labels[i-1], labels[i]) * g.PrLabel(nodes[i], labels[i])
		order[k] = nodes[i]
		k++
	}
	return prle, g.Prn(order[:k])
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

// scan streams the overlay's share of PIndex(X, α) into fn: dirty-touching
// paths labeled X whose probability prob.MayClear admits at α, oriented
// along X. Below β the stored set is insufficient and the paths are
// enumerated on demand (mirroring the base index's footnote-1 fallback),
// anchored at the dirty nodes. The nodes handed to fn alias the overlay's
// storage or the walk's scratch.
func (ov *overlay) scan(X []prob.LabelID, alpha float64, fn pathindex.ScanFunc) {
	if len(X) == 0 || len(X) > ov.maxLen+1 {
		return
	}
	if alpha >= ov.beta {
		r := ov.entries[makeKey(X)]
		if r == nil {
			return
		}
		floor := prob.Floor(alpha, pathindex.PathFactors(len(X)))
		for i, prle := range r.prle {
			if prle*r.prn[i] >= floor && !r.isDead(i) && !fn(r.row(i), prle, r.prn[i]) {
				return
			}
		}
		return
	}
	// The anchor set is the dirty set, so every path is found from its first
	// dirty node and the walk's running products are its score.
	walk := pathindex.NewWalker(ov.g, alpha, len(X), X, ov.dirty, nil, func(nodes []entity.ID, _ []prob.LabelID, _ int, prle, prn float64) bool {
		return fn(nodes, prle, prn)
	})
	for _, v := range ov.dirtyIDs {
		if !walk.Anchor(v) {
			return
		}
	}
}

// cardinality counts stored entries for X whose probability prob.MayClear
// admits at alpha (exact, the overlay is in memory). Below β it reports all
// stored entries, the same floor the base histograms use.
func (ov *overlay) cardinality(X []prob.LabelID, alpha float64) float64 {
	if len(X) > maxNodes {
		return 0
	}
	r := ov.entries[makeKey(X)]
	if r == nil {
		return 0
	}
	if alpha <= ov.beta {
		return float64(r.live)
	}
	n, floor := 0, prob.Floor(alpha, pathindex.PathFactors(len(X)))
	for i, prle := range r.prle {
		if prle*r.prn[i] >= floor && !r.isDead(i) {
			n++
		}
	}
	return float64(n)
}
