package live

import (
	"encoding/binary"

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
// under their own label sequences: each oriented path is enumerated exactly
// once, anchored at its first dirty node (everything left of the anchor is
// clean, the right side is unconstrained), which also makes the palindrome
// and reversal cases of Lookup fall out naturally.
//
// An overlay is immutable after build and safe for concurrent readers.
type overlay struct {
	g      *entity.Graph
	dirty  []bool // by entity id, len == g.NumNodes()
	beta   float64
	maxLen int

	entries map[string][]pathindex.PathMatch // oriented label seq → paths
	count   uint64
}

// seqKey encodes a label sequence as a map key (big-endian 16-bit labels,
// the same byte form the base dictionary interns).
func seqKey(labels []prob.LabelID) string {
	b := make([]byte, 2*len(labels))
	for i, l := range labels {
		binary.BigEndian.PutUint16(b[2*i:], uint16(l))
	}
	return string(b)
}

// buildOverlay enumerates every dirty-touching path with probability ≥ beta.
func buildOverlay(g *entity.Graph, dirty []bool, beta float64, maxLen int) *overlay {
	ov := &overlay{
		g:       g,
		dirty:   dirty,
		beta:    beta,
		maxLen:  maxLen,
		entries: make(map[string][]pathindex.PathMatch),
	}
	w := &walk{
		g:      g,
		dirty:  dirty,
		thresh: beta,
		max:    maxLen + 1,
		emit:   ov.store,
	}
	for v, d := range dirty {
		if d {
			w.anchor(entity.ID(v))
		}
	}
	return ov
}

func (ov *overlay) store(nodes []entity.ID, labels []prob.LabelID, prle, prn float64) {
	m := pathindex.PathMatch{Nodes: append([]entity.ID(nil), nodes...), Prle: prle, Prn: prn}
	k := seqKey(labels)
	ov.entries[k] = append(ov.entries[k], m)
	ov.count++
}

// scan streams the overlay's share of PIndex(X, α) into fn: dirty-touching
// paths labeled X with probability ≥ α, oriented along X. Below β the stored
// set is insufficient and the paths are enumerated on demand (mirroring the
// base index's footnote-1 fallback), still anchored at dirty nodes. The
// nodes handed to fn alias the overlay's storage or the walk's scratch.
func (ov *overlay) scan(X []prob.LabelID, alpha float64, fn pathindex.ScanFunc) {
	if len(X) == 0 || len(X) > ov.maxLen+1 {
		return
	}
	if alpha >= ov.beta {
		for _, m := range ov.entries[seqKey(X)] {
			if m.Pr()+eps >= alpha && !fn(m.Nodes, m.Prle, m.Prn) {
				return
			}
		}
		return
	}
	more := true // the walk has no early exit; a stopped fn is just not called again
	w := &walk{
		g:      ov.g,
		dirty:  ov.dirty,
		thresh: alpha,
		max:    len(X),
		guide:  X,
		emit: func(nodes []entity.ID, _ []prob.LabelID, prle, prn float64) {
			more = more && fn(nodes, prle, prn)
		},
	}
	for v, d := range ov.dirty {
		if !more {
			return
		}
		if d {
			w.anchor(entity.ID(v))
		}
	}
}

// cardinality counts stored entries for X with probability ≥ alpha (exact,
// the overlay is in memory). Below β it reports all stored entries, the same
// floor the base histograms use.
func (ov *overlay) cardinality(X []prob.LabelID, alpha float64) float64 {
	es := ov.entries[seqKey(X)]
	if alpha <= ov.beta {
		return float64(len(es))
	}
	n := 0
	for _, m := range es {
		if m.Pr()+eps >= alpha {
			n++
		}
	}
	return float64(n)
}

// walk enumerates oriented paths through one dirty anchor node, each exactly
// once: the anchor is the path's first (leftmost) dirty node, so the left
// extension admits only clean nodes while the right extension is free. With
// a guide the labels and length are fixed (lookup); without, every label
// assignment above the threshold is enumerated (overlay build). Partial
// paths are pruned by probability — contiguous subpaths always bound the
// full path's probability from above, exactly as in the base index build.
type walk struct {
	g      *entity.Graph
	dirty  []bool
	thresh float64
	max    int            // maximum (guide: exact) number of nodes
	guide  []prob.LabelID // nil = free enumeration
	emit   func(nodes []entity.ID, labels []prob.LabelID, prle, prn float64)

	nodes  [maxNodes]entity.ID
	labels [maxNodes]prob.LabelID
	n      int
}

// anchor starts paths at dirty node u. In guided mode u is tried at every
// position of the guide; the position index equals the number of left
// (clean) nodes still to be added.
func (w *walk) anchor(u entity.ID) {
	exist := w.g.Exist(u)
	if w.guide != nil {
		for i := range w.guide {
			lp := w.g.PrLabel(u, w.guide[i])
			if lp == 0 || lp*exist+eps < w.thresh {
				continue
			}
			w.nodes[0], w.labels[0], w.n = u, w.guide[i], 1
			w.left(lp, exist, i)
		}
		return
	}
	for _, e := range w.g.Node(u).Label.Entries() {
		if e.P*exist+eps < w.thresh {
			continue
		}
		w.nodes[0], w.labels[0], w.n = u, e.Label, 1
		w.left(e.P, exist, w.max-1)
	}
}

// left grows the path at its head with clean nodes; leftBudget is how many
// head extensions may still happen (guided: how many must). Every left state
// hands over to the right phase.
func (w *walk) left(prle, prn float64, leftBudget int) {
	if w.guide == nil || leftBudget == 0 {
		w.right(prle, prn)
	}
	if leftBudget == 0 || w.n == w.max {
		return
	}
	head := w.nodes[0]
	headLabel := w.labels[0]
	for _, nb := range w.g.Neighbors(head) {
		if w.dirty[nb.To] || w.contains(nb.To) || w.conflicts(nb.To, head) {
			continue
		}
		prn2, ok := w.extendPrn(nb.To)
		if !ok {
			continue
		}
		var labels []prob.LabelID
		if w.guide != nil {
			labels = w.guide[leftBudget-1 : leftBudget]
		}
		for _, le := range w.labelChoices(nb.To, labels) {
			lp := w.g.PrLabel(nb.To, le)
			if lp == 0 {
				continue
			}
			prle2 := prle * nb.E.Prob(le, headLabel) * lp
			if prle2*prn2+eps < w.thresh {
				continue
			}
			// Prepend nb.To.
			copy(w.nodes[1:w.n+1], w.nodes[:w.n])
			copy(w.labels[1:w.n+1], w.labels[:w.n])
			w.nodes[0], w.labels[0] = nb.To, le
			w.n++
			w.left(prle2, prn2, leftBudget-1)
			w.n--
			copy(w.nodes[:w.n], w.nodes[1:w.n+1])
			copy(w.labels[:w.n], w.labels[1:w.n+1])
		}
	}
}

// right grows the path at its tail without a cleanliness constraint and
// emits every state (guided: only the full-length state).
func (w *walk) right(prle, prn float64) {
	if w.guide == nil || w.n == w.max {
		w.emit(w.nodes[:w.n], w.labels[:w.n], prle, prn)
	}
	if w.n == w.max {
		return
	}
	tail := w.nodes[w.n-1]
	tailLabel := w.labels[w.n-1]
	for _, nb := range w.g.Neighbors(tail) {
		if w.contains(nb.To) || w.conflicts(nb.To, tail) {
			continue
		}
		prn2, ok := w.extendPrn(nb.To)
		if !ok {
			continue
		}
		var labels []prob.LabelID
		if w.guide != nil {
			labels = w.guide[w.n : w.n+1]
		}
		for _, le := range w.labelChoices(nb.To, labels) {
			lp := w.g.PrLabel(nb.To, le)
			if lp == 0 {
				continue
			}
			prle2 := prle * nb.E.Prob(tailLabel, le) * lp
			if prle2*prn2+eps < w.thresh {
				continue
			}
			w.nodes[w.n], w.labels[w.n] = nb.To, le
			w.n++
			w.right(prle2, prn2)
			w.n--
		}
	}
}

func (w *walk) contains(v entity.ID) bool {
	for i := 0; i < w.n; i++ {
		if w.nodes[i] == v {
			return true
		}
	}
	return false
}

// conflicts reports a reference overlap between v and any path node other
// than the attachment point (whose disjointness the GU edge already
// guarantees).
func (w *walk) conflicts(v, attach entity.ID) bool {
	for i := 0; i < w.n; i++ {
		if u := w.nodes[i]; u != attach && w.g.RefsOverlap(u, v) {
			return true
		}
	}
	return false
}

// extendPrn computes Prn of the path's node set plus v.
func (w *walk) extendPrn(v entity.ID) (float64, bool) {
	var scratch [maxNodes]entity.ID
	ext := append(scratch[:0], w.nodes[:w.n]...)
	ext = append(ext, v)
	prn := w.g.Prn(ext)
	return prn, prn != 0
}

// labelChoices returns the candidate labels for a node: the guide slice when
// guided, otherwise the node's full label support.
func (w *walk) labelChoices(v entity.ID, guided []prob.LabelID) []prob.LabelID {
	if guided != nil {
		return guided
	}
	return w.g.Labels(v)
}
