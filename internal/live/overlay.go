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

// eps mirrors the float tolerance used by pathindex build and lookup
// threshold comparisons, so overlay decisions agree bit-for-bit with what a
// from-scratch rebuild would store and return.
const eps = 1e-12

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
// once, scored from its first dirty node (see walk), which also makes the
// palindrome and reversal cases of Lookup fall out naturally.
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

	w := &walk{g: g, anchorSet: isFresh, dirty: ov.dirty, thresh: beta, max: maxLen + 1}
	w.emit = func(nodes []entity.ID, labels []prob.LabelID, prle, prn float64) {
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
	}
	for _, v := range fresh {
		w.anchor(v)
	}
	ov.walked = w.anchored
	return ov
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
// paths labeled X with probability ≥ α, oriented along X. Below β the stored
// set is insufficient and the paths are enumerated on demand (mirroring the
// base index's footnote-1 fallback), anchored at the dirty nodes. The nodes
// handed to fn alias the overlay's storage or the walk's scratch.
func (ov *overlay) scan(X []prob.LabelID, alpha float64, fn pathindex.ScanFunc) {
	if len(X) == 0 || len(X) > ov.maxLen+1 {
		return
	}
	if alpha >= ov.beta {
		r := ov.entries[makeKey(X)]
		if r == nil {
			return
		}
		for i, prle := range r.prle {
			if prle*r.prn[i]+eps >= alpha && !r.isDead(i) && !fn(r.row(i), prle, r.prn[i]) {
				return
			}
		}
		return
	}
	more := true // the walk has no early exit; a stopped fn is just not called again
	w := &walk{
		g:         ov.g,
		anchorSet: ov.dirty,
		dirty:     ov.dirty,
		thresh:    alpha,
		max:       len(X),
		guide:     X,
		emit: func(nodes []entity.ID, _ []prob.LabelID, prle, prn float64) {
			more = more && fn(nodes, prle, prn)
		},
	}
	for _, v := range ov.dirtyIDs {
		if !more {
			return
		}
		w.anchor(v)
	}
}

// cardinality counts stored entries for X with probability ≥ alpha (exact,
// the overlay is in memory). Below β it reports all stored entries, the same
// floor the base histograms use.
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
	n := 0
	for i, prle := range r.prle {
		if prle*r.prn[i]+eps >= alpha && !r.isDead(i) {
			n++
		}
	}
	return float64(n)
}

// walk enumerates oriented paths through anchor nodes, each exactly once:
// the anchor is the path's first (leftmost) node of the anchor set, so the
// left extension admits only nodes outside that set while the right
// extension is free. With a guide the labels and length are fixed (lookup);
// without, every label assignment above the threshold is enumerated (overlay
// maintenance). Partial paths are pruned by probability — contiguous
// subpaths always bound the full path's probability from above, exactly as
// in the base index build.
//
// A path's score is defined from its first *dirty* node d: Prle multiplies
// d's label factor, then an edge and a label factor per node leftwards from
// d, then rightwards; Prn is entity.Graph.Prn over the nodes in that same
// order. When the anchor set is the dirty set this is the order the walk
// itself discovers the path in, and the running products are the score.
// During incremental maintenance the anchor set is only the batch's fresh
// entities, a dirty node may lie left of the anchor, and the emitted path is
// scored again from that node — so what is stored never depends on which
// batch found it.
type walk struct {
	g         *entity.Graph
	anchorSet []bool // by entity id: the nodes anchor is called on
	dirty     []bool // by entity id: the cumulative dirty set, ⊇ anchorSet
	thresh    float64
	max       int            // maximum (guide: exact) number of nodes
	guide     []prob.LabelID // nil = free enumeration
	emit      func(nodes []entity.ID, labels []prob.LabelID, prle, prn float64)

	nodes  [maxNodes]entity.ID    // the path, oriented
	labels [maxNodes]prob.LabelID // parallel to nodes
	found  [maxNodes]entity.ID    // the path's nodes in discovery order
	n      int
	at     int // index of the anchor in nodes

	anchored int // calls of anchor
}

// anchor starts paths at node u of the anchor set. In guided mode u is tried
// at every position of the guide; the position index equals the number of
// left nodes still to be added.
func (w *walk) anchor(u entity.ID) {
	w.anchored++
	exist := w.g.Exist(u)
	w.nodes[0], w.found[0], w.n, w.at = u, u, 1, 0
	if w.guide != nil {
		for i, l := range w.guide {
			lp := w.g.PrLabel(u, l)
			if lp == 0 || lp*exist+eps < w.thresh {
				continue
			}
			w.labels[0] = l
			w.left(lp, exist, i)
		}
		return
	}
	for l, lp := range w.g.LabelRow(u) {
		if lp == 0 || lp*exist+eps < w.thresh {
			continue
		}
		w.labels[0] = prob.LabelID(l)
		w.left(lp, exist, w.max-1)
	}
}

// left grows the path at its head with nodes outside the anchor set;
// leftBudget is how many head extensions may still happen (guided: how many
// must). Every left state hands over to the right phase.
func (w *walk) left(prle, prn float64, leftBudget int) {
	if w.guide == nil || leftBudget == 0 {
		w.right(prle, prn)
	}
	if leftBudget == 0 || w.n == w.max {
		return
	}
	head, headLabel := w.nodes[0], w.labels[0]
	for _, nb := range w.g.Neighbors(head) {
		v := nb.To
		if w.anchorSet[v] || (w.guide != nil && !w.g.HasLabel(v, w.guide[leftBudget-1])) || w.contains(v) {
			continue
		}
		prn2 := w.g.PrnExtend(w.found[:w.n], prn, v)
		if prn2 == 0 {
			continue
		}
		if w.guide != nil {
			l := w.guide[leftBudget-1]
			w.pushLeft(v, l, prle*w.g.PrEdge(nb, l, headLabel)*w.g.PrLabel(v, l), prn2, leftBudget-1)
			continue
		}
		for l, lp := range w.g.LabelRow(v) {
			if lp > 0 {
				w.pushLeft(v, prob.LabelID(l), prle*w.g.PrEdge(nb, prob.LabelID(l), headLabel)*lp, prn2, leftBudget-1)
			}
		}
	}
}

// pushLeft prepends v with label l when the extended path clears the
// threshold, continues the left phase from it and restores the path.
func (w *walk) pushLeft(v entity.ID, l prob.LabelID, prle, prn float64, leftBudget int) {
	if prle*prn+eps < w.thresh {
		return
	}
	copy(w.nodes[1:w.n+1], w.nodes[:w.n])
	copy(w.labels[1:w.n+1], w.labels[:w.n])
	w.nodes[0], w.labels[0], w.found[w.n] = v, l, v
	w.n++
	w.at++
	w.left(prle, prn, leftBudget)
	w.n--
	w.at--
	copy(w.nodes[:w.n], w.nodes[1:w.n+1])
	copy(w.labels[:w.n], w.labels[1:w.n+1])
}

// right grows the path at its tail without a constraint on the node set and
// emits every state (guided: only the full-length state).
func (w *walk) right(prle, prn float64) {
	if w.guide == nil || w.n == w.max {
		w.emitPath(prle, prn)
	}
	if w.n == w.max {
		return
	}
	tail, tailLabel := w.nodes[w.n-1], w.labels[w.n-1]
	for _, nb := range w.g.Neighbors(tail) {
		v := nb.To
		if (w.guide != nil && !w.g.HasLabel(v, w.guide[w.n])) || w.contains(v) {
			continue
		}
		prn2 := w.g.PrnExtend(w.found[:w.n], prn, v)
		if prn2 == 0 {
			continue
		}
		if w.guide != nil {
			l := w.guide[w.n]
			w.pushRight(v, l, prle*w.g.PrEdge(nb, tailLabel, l)*w.g.PrLabel(v, l), prn2)
			continue
		}
		for l, lp := range w.g.LabelRow(v) {
			if lp > 0 {
				w.pushRight(v, prob.LabelID(l), prle*w.g.PrEdge(nb, tailLabel, prob.LabelID(l))*lp, prn2)
			}
		}
	}
}

// pushRight is pushLeft for the tail.
func (w *walk) pushRight(v entity.ID, l prob.LabelID, prle, prn float64) {
	if prle*prn+eps < w.thresh {
		return
	}
	w.nodes[w.n], w.labels[w.n], w.found[w.n] = v, l, v
	w.n++
	w.right(prle, prn)
	w.n--
}

// emitPath hands the current path to emit, scored from its first dirty node:
// the running products when that is the anchor, a second evaluation in the
// defined order when a dirty node outside the anchor set precedes it.
func (w *walk) emitPath(prle, prn float64) {
	for d := 0; d < w.at; d++ {
		if w.dirty[w.nodes[d]] {
			prle, prn = w.scoreFrom(d)
			break
		}
	}
	w.emit(w.nodes[:w.n], w.labels[:w.n], prle, prn)
}

// scoreFrom evaluates the current path's score as a walk anchored at
// position d computes it, factor by factor in the same order.
func (w *walk) scoreFrom(d int) (prle, prn float64) {
	g := w.g
	var order [maxNodes]entity.ID
	order[0] = w.nodes[d]
	k := 1
	prle = g.PrLabel(w.nodes[d], w.labels[d])
	for i := d - 1; i >= 0; i-- {
		e, _ := g.EdgeBetween(w.nodes[i+1], w.nodes[i])
		prle = prle * g.PrEdge(e, w.labels[i], w.labels[i+1]) * g.PrLabel(w.nodes[i], w.labels[i])
		order[k] = w.nodes[i]
		k++
	}
	for i := d + 1; i < w.n; i++ {
		e, _ := g.EdgeBetween(w.nodes[i-1], w.nodes[i])
		prle = prle * g.PrEdge(e, w.labels[i-1], w.labels[i]) * g.PrLabel(w.nodes[i], w.labels[i])
		order[k] = w.nodes[i]
		k++
	}
	return prle, g.Prn(order[:k])
}

func (w *walk) contains(v entity.ID) bool {
	for i := 0; i < w.n; i++ {
		if w.nodes[i] == v {
			return true
		}
	}
	return false
}
