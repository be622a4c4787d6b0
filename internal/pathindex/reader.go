package pathindex

import (
	"context"

	"repro/internal/entity"
	"repro/internal/prob"
)

// ScanFunc receives one path of a Scan: the node sequence oriented along the
// scanned label sequence, and its two probability components. nodes aliases
// scratch owned by the scan — it is valid only until fn returns and must be
// copied to be kept (never modified). Returning false stops the scan.
type ScanFunc func(nodes []entity.ID, prle, prn float64) bool

// Reader is the query-time surface of a path index: everything the online
// phase (decomposition, candidate generation, the server) needs from the
// offline artifact. *Index implements it directly; internal/live implements
// it as an immutable base index merged with the paths walked from its dirty
// entities, so core.MatchStream sees one logical index either way.
type Reader interface {
	// Scan streams PIndex(X, α) — all paths whose label assignment is X
	// with probability ≥ α, oriented along X — into fn without
	// materializing them; see ScanFunc for the aliasing contract. It
	// returns nil when fn stopped the scan.
	Scan(X []prob.LabelID, alpha float64, fn ScanFunc) error
	// ScanCount streams into fn the rows of Scan, in Scan's order, and
	// returns |PIndex(X, α)|, the number of rows Scan streams. keep,
	// nil or one set for each position of X, is advisory: a reader may
	// leave out of the stream any row with a node outside keep's set at its
	// position, and streams every other row. The count is exact when the scan runs to its end; when fn stops
	// it, the count is at least the rows streamed. ScanCount returns ctx's
	// error when it sees ctx end first. A nil fn asks for the count alone:
	// no row is streamed, and a reader that keeps the count answers without
	// reading a row.
	ScanCount(ctx context.Context, X []prob.LabelID, alpha float64, keep NodeFilter, fn ScanFunc) (int, error)
	// NodeSet returns the entities of Graph() that pass the node-level
	// test of Section 5.2.2 for a query node labelled l whose
	// neighbour-label counts, by label id, are counts, at α: a set that
	// holds only entities carrying l, shared and not to be modified. A
	// reader answers it from a memo it owns, valid for Graph() and
	// Context().
	NodeSet(l prob.LabelID, counts []int, alpha float64) NodeSet
	// Lookup returns the same paths, in the same order, as caller-owned
	// memory: Collect over Scan.
	Lookup(X []prob.LabelID, alpha float64) ([]PathMatch, error)
	// Cardinality estimates |PIndex(X, α)| for query decomposition.
	Cardinality(X []prob.LabelID, alpha float64) float64
	// Context returns the per-node context information tables, valid for
	// Graph().
	Context() *Context
	// Graph returns the entity graph the reader answers over.
	Graph() *entity.Graph
	// MaxLen returns the maximum indexed path length L.
	MaxLen() int
	// Beta returns the construction threshold β.
	Beta() float64
	// Stats returns build/size statistics.
	Stats() BuildStats
}

var _ Reader = (*Index)(nil)

// CountScan is r.Scan(X, α, fn) that also returns the number of rows it
// streamed: ScanCount for a reader that keeps no count and applies no
// filter. A nil fn counts the rows and takes none.
func CountScan(r Reader, X []prob.LabelID, alpha float64, fn ScanFunc) (int, error) {
	n := 0
	err := r.Scan(X, alpha, func(nodes []entity.ID, prle, prn float64) bool {
		n++
		return fn == nil || fn(nodes, prle, prn)
	})
	return n, err
}

// Collect materializes r.Scan(X, α) into caller-owned matches: the one
// implementation of Lookup, shared by every Reader. All node slices view a
// single arena; it and the match slice are sized up front from the
// reader's cardinality estimate (exact for an indexed α on a bucket edge, a
// floor for an on-demand one) and grow from there.
func Collect(r Reader, X []prob.LabelID, alpha float64) ([]PathMatch, error) {
	hint := int(r.Cardinality(X, alpha))
	arena := make([]entity.ID, 0, hint*len(X))
	out := make([]PathMatch, 0, hint)
	err := r.Scan(X, alpha, func(nodes []entity.ID, prle, prn float64) bool {
		arena = append(arena, nodes...)
		out = append(out, PathMatch{Prle: prle, Prn: prn})
		return true
	})
	if err != nil || len(out) == 0 {
		return nil, err
	}
	// Every path of one scan has len(X) nodes; slice the arena only now that
	// it has stopped growing.
	w := len(X)
	for i := range out {
		out[i].Nodes = arena[i*w : (i+1)*w : (i+1)*w]
	}
	return out, nil
}
