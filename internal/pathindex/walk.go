package pathindex

import (
	"repro/internal/entity"
	"repro/internal/prob"
)

// WalkFunc receives one path of a walk: its nodes and labels in path order
// and the two probability components as the walk multiplied them. nodes
// and labels alias the walker's scratch — valid only until the call
// returns, never to be modified. Returning false ends the walk.
type WalkFunc func(nodes []entity.ID, labels []prob.LabelID, prle, prn float64) bool

// NodeFilter holds, for each position pos of a guide, the entities that may
// stand at pos on a path read along it; the set at pos holds only entities
// carrying the guide's label there. A guided walk reads it before it places
// a node, so a node outside the set cuts the whole subtree the walk would
// grow through it there.
type NodeFilter []NodeSet

// Walker enumerates the labelled paths of the PEG whose probability
// Prle·Prn clears a threshold, depth first, pushing and popping nodes on
// one in-place path: the offline build of PIndex(X, β) (Section 5.1), the
// on-demand enumeration below β (footnote 1) and a live view's walk from
// its dirty entities all run it, so what they store and stream is
// multiplied by one extension step in one order.
//
// A path is reference-disjoint — a node sharing a reference with a path
// node shares its identity component and the marginal over both is 0 — and
// is pruned as soon as a prefix of it falls below the threshold: contiguous
// subpaths bound the full path's probability from above. Prle multiplies
// the start node's label factor, then an edge and a label factor per node
// in the order the walk adds them; Prn is entity.Graph.PrnExtend over the
// nodes in that same discovery order.
//
// With a guide, only paths labelled by it are walked and only the full
// length is handed to the callback; without, every label assignment of
// every length up to the most nodes is. A guided walk may also carry a
// NodeFilter, read at the start node and at every extension: the paths it
// hands over are then those whose every node is in the filter's set at its
// position, in the order the unfiltered walk hands them over. A Walker is
// not safe for concurrent use.
type Walker struct {
	g       *entity.Graph
	floor   float64        // prob.Floor(thresh, PathFactors(max))
	max     int            // most (guided: exactly) nodes on a path
	guide   []prob.LabelID // nil = every label assignment
	anchors []bool         // by entity id: the nodes Anchor's head growth avoids
	keep    NodeFilter     // nil, or the guided walk's node sets
	emit    WalkFunc

	nodes  [maxNodes]entity.ID    // the path, in path order
	labels [maxNodes]prob.LabelID // parallel to nodes
	found  [maxNodes]entity.ID    // the path's nodes in discovery order
	n      int                    // path length

	pin    uint8               // bit pos set: At's key fixes the tail's node at pos
	pinned [maxNodes]entity.ID // by position: the entity a set pin bit fixes
}

// NewWalker returns a walker over g for paths of at most maxNodes nodes
// whose every prefix prob.MayClear admits at thresh for PathFactors(maxNodes)
// factors. guide, when not nil, fixes the labels and the length
// (maxNodes == len(guide)); an unguided walk only runs Root. anchors, by
// entity id, is the set Anchor walks from; Root does not read it, and At
// takes nil. keep, when not nil, filters the nodes of a guided walk by
// their position on the guide; an unguided walk takes nil.
func NewWalker(g *entity.Graph, thresh float64, maxNodes int, guide []prob.LabelID, anchors []bool, keep NodeFilter, emit WalkFunc) *Walker {
	return &Walker{g: g, floor: prob.Floor(thresh, PathFactors(maxNodes)), max: maxNodes, guide: guide, anchors: anchors, keep: keep, emit: emit}
}

// Root walks the paths that start at v, growing them at the tail only. It
// reports false once the callback ended the walk.
func (w *Walker) Root(v entity.ID) bool { return w.start(v, 0, 0) }

// Anchor walks the guided paths whose first node of the anchor set is v,
// each exactly once: v is tried at every position of the guide, and the
// path grows at both ends, the head only with nodes outside the anchor
// set. It reports false once the callback ended the walk.
func (w *Walker) Anchor(v entity.ID) bool { return w.start(v, 0, w.max-1) }

// At walks the guided paths that carry key[k] at guide position pos[k]
// for every k, each exactly once; pos is ascending and not empty. It grows
// the head to pos[0] nodes from key[0], then the tail, and at each later
// position of the key the tail offers only that position's entity, through
// its adjacency entry, to the tests it puts every neighbour through. Its
// walker takes no anchor set. The paths are those of Root's walk from every
// start node that carry the key, in another order, with Prle and Prn
// multiplied in the order At adds the nodes: exactly the paths of the
// one-position walk from key[0] at pos[0] that carry the rest of the key,
// in that walk's order and with its bits. It reports false once the
// callback ended the walk.
func (w *Walker) At(pos []int32, key []entity.ID) bool {
	for k := 1; k < len(pos); k++ {
		w.pin |= 1 << pos[k]
		w.pinned[pos[k]] = key[k]
	}
	more := w.start(key[0], int(pos[0]), int(pos[0]))
	w.pin = 0
	return more
}

// start walks from v, guided at guide positions lo to hi (v's position is
// the number of head extensions it needs), unguided at the tail only.
func (w *Walker) start(v entity.ID, lo, hi int) bool {
	exist := w.g.Exist(v)
	if exist == 0 {
		return true
	}
	w.nodes[0], w.found[0], w.n = v, v, 1
	if w.guide != nil {
		for i := lo; i <= hi; i++ {
			if lp := w.g.PrLabel(v, w.guide[i]); lp != 0 && w.clears(lp, exist) && w.admits(v, i) {
				w.labels[0] = w.guide[i]
				if i == 0 && !w.tail(lp, exist) || i > 0 && !w.head(lp, exist, i) {
					return false
				}
			}
		}
		return true
	}
	for l, lp := range w.g.LabelRow(v) {
		if lp != 0 && w.clears(lp, exist) {
			w.labels[0] = prob.LabelID(l)
			if !w.tail(lp, exist) {
				return false
			}
		}
	}
	return true
}

// admits is the node filter's answer for v at guide position pos.
func (w *Walker) admits(v entity.ID, pos int) bool { return w.keep == nil || w.keep[pos].Has(v) }

// clears is the threshold test on a path's probability components.
func (w *Walker) clears(prle, prn float64) bool { return prle*prn >= w.floor }

// PathFactors is the most probability factors a path of the given number of
// nodes multiplies: prob.Factors of a query that is that path.
func PathFactors(nodes int) int { return prob.Factors(nodes, nodes-1) }

// extension is the one extension step, for the edge nb between the path's
// head or tail and the node it adds, whose labels read in path order are
// from and to, and the added node's label factor lp; prn is already Prn of
// the extended node set. It returns the extended path's Prle — the edge
// factor, then the label factor — and whether the extended path clears the
// threshold.
func (w *Walker) extension(nb entity.Neighbor, from, to prob.LabelID, lp, prle, prn float64) (float64, bool) {
	prle = prle * w.g.PrEdge(nb, from, to) * lp
	return prle, w.clears(prle, prn)
}

// head grows the head of the current path of a guided walk, whose
// probability components are prle and prn, by heads more nodes outside the
// anchor set, each carrying its label on the guide, and then walks the
// tail.
func (w *Walker) head(prle, prn float64, heads int) bool {
	if heads == 0 {
		return w.tail(prle, prn)
	}
	g, n, first, l := w.g, w.n, w.labels[0], w.guide[heads-1]
	for _, nb := range g.Neighbors(w.nodes[0]) {
		v := nb.To
		if w.anchors != nil && w.anchors[v] || !g.HasLabel(v, l) || w.contains(v) || !w.admits(v, heads-1) {
			continue
		}
		prnV := g.PrnExtend(w.found[:n], prn, v)
		if prnV == 0 {
			continue
		}
		prleV, ok := w.extension(nb, l, first, g.PrLabel(v, l), prle, prnV)
		if !ok {
			continue
		}
		copy(w.nodes[1:n+1], w.nodes[:n])
		copy(w.labels[1:n+1], w.labels[:n])
		w.nodes[0], w.labels[0], w.found[n] = v, l, v
		w.n++
		more := w.head(prleV, prnV, heads-1)
		w.n--
		copy(w.nodes[:n], w.nodes[1:n+1])
		copy(w.labels[:n], w.labels[1:n+1])
		if !more {
			return false
		}
	}
	return true
}

// tail hands the current path, whose probability components are prle and
// prn, to the callback (guided: only at full length) and then grows it by
// one node at the tail while it is shorter than the most nodes. An
// extension that reaches the most nodes is handed over where it is made,
// without a call of tail for it.
func (w *Walker) tail(prle, prn float64) bool {
	n := w.n
	if (w.guide == nil || n == w.max) && !w.emit(w.nodes[:n], w.labels[:n], prle, prn) {
		return false
	}
	if n == w.max {
		return true
	}
	g, last := w.g, w.labels[n-1]
	if w.guide != nil {
		// The on-demand scan's inner loop, kept apart from the label loop
		// below: one label, whose bit — or, filtered, the node set's bit,
		// which implies it — decides most neighbours before anything else
		// about them is read. A position At's key pins offers one
		// neighbour at most, its entity's adjacency entry, to the same
		// tests.
		l := w.guide[n]
		var keep NodeSet
		if w.keep != nil {
			keep = w.keep[n]
		}
		var nbs []entity.Neighbor
		if w.pin>>n&1 == 0 {
			nbs = g.Neighbors(w.nodes[n-1])
		} else {
			nbs = g.Edge(w.nodes[n-1], w.pinned[n])
		}
		for _, nb := range nbs {
			v := nb.To
			if keep != nil && !keep.Has(v) || keep == nil && !g.HasLabel(v, l) || w.contains(v) {
				continue
			}
			prnV := g.PrnExtend(w.found[:n], prn, v)
			if prnV == 0 {
				continue
			}
			prleV, ok := w.extension(nb, last, l, g.PrLabel(v, l), prle, prnV)
			if !ok {
				continue
			}
			w.nodes[n], w.labels[n], w.found[n] = v, l, v
			w.n++
			var more bool
			if w.n == w.max {
				more = w.emit(w.nodes[:w.n], w.labels[:w.n], prleV, prnV)
			} else {
				more = w.tail(prleV, prnV)
			}
			w.n--
			if !more {
				return false
			}
		}
		return true
	}
	for _, nb := range g.Neighbors(w.nodes[n-1]) {
		v := nb.To
		if w.contains(v) {
			continue
		}
		prnV := g.PrnExtend(w.found[:n], prn, v)
		if prnV == 0 {
			continue
		}
		for l, lp := range g.LabelRow(v) {
			if lp == 0 {
				continue
			}
			prleV, ok := w.extension(nb, last, prob.LabelID(l), lp, prle, prnV)
			if !ok {
				continue
			}
			w.nodes[n], w.labels[n], w.found[n] = v, prob.LabelID(l), v
			w.n++
			var more bool
			if w.n == w.max {
				more = w.emit(w.nodes[:w.n], w.labels[:w.n], prleV, prnV)
			} else {
				more = w.tail(prleV, prnV)
			}
			w.n--
			if !more {
				return false
			}
		}
	}
	return true
}

func (w *Walker) contains(v entity.ID) bool {
	for _, u := range w.nodes[:w.n] {
		if u == v {
			return true
		}
	}
	return false
}
