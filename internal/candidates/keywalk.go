package candidates

import (
	"context"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/decompose"
	"repro/internal/entity"
	"repro/internal/pathindex"
	"repro/internal/prob"
	"repro/internal/query"
)

// Counts returns |PIndex(lQ(V_P), α)| for every path P of dec, as
// ix.ScanCount reports it with no callback: no row is streamed, and below β
// a warm count memo answers without a walk.
func Counts(ctx context.Context, ix pathindex.Reader, dec *decompose.Decomposition, alpha float64) ([]int, error) {
	initial := make([]int, len(dec.Paths))
	for i := range dec.Paths {
		n, err := ix.ScanCount(ctx, dec.Paths[i].Labels, alpha, nil, nil)
		if err != nil {
			return nil, err
		}
		initial[i] = n
	}
	return initial, nil
}

// KeyWalks produces a decomposition's candidate rows one join key at a
// time: the rows of a path that carry given entities at given positions
// and pass the tests Find applies. A key's rows come from one
// pathindex.Walker over the whole key (Walker.At), started at the key's
// first position with its entity and reading only the key's entity at each
// later position, so it builds no path that does not carry the key. It is
// filtered by the same node-level sets as Find's walk and kept by the same
// keepCandidate. The walk multiplies each row's Prle and Prn in the order
// it adds the nodes. From a key at position 0 that is the root walk's, so
// its rows and their order are, bit for bit, those of Find's on-demand walk
// from the key's entity; from a later position it grows the head first,
// and the path-level bound keepCandidate tests is the same product up to
// float rounding. A KeyWalks is not safe for concurrent use.
type KeyWalks struct {
	g       *entity.Graph
	nt      *nodeTest
	dec     *decompose.Decomposition
	alpha   float64
	walkers []*pathindex.Walker // by path, made on the path's first walk

	// The walk in progress: its path and output.
	p    *decompose.Path
	rows []entity.ID
	sort rowOrder
	root [1]entity.ID // an empty key's walk: the root in hand
}

// NewKeyWalks returns the key walks of dec's paths over ix at α, filtered
// by the node-level sets of q's nodes, which it reads once.
func NewKeyWalks(ix pathindex.Reader, q *query.Query, dec *decompose.Decomposition, alpha float64) *KeyWalks {
	return &KeyWalks{g: ix.Graph(), nt: newNodeTest(ix, q, alpha), dec: dec, alpha: alpha, walkers: make([]*pathindex.Walker, len(dec.Paths))}
}

// Roots returns the node-level set of path i's first query node: the
// entities a row of path i may start with, whose walks below β Find's
// on-demand enumeration runs in ascending id. It is the reader's, not to be
// modified.
func (kw *KeyWalks) Roots(i int) pathindex.NodeSet { return kw.nt.sets[kw.dec.Paths[i].Nodes[0]] }

// Rows appends to dst the kept rows of path i that carry key[k] at
// position pos[k] for every k, and returns it. The appended rows are in
// ascending order of their entity ids, position by position: since every
// adjacency list is sorted, that is the order of a walk that grows the tail
// alone, from position 0, and a walk from a later position is sorted into
// it. An empty key walks the whole path from every node-level candidate of
// its first position.
func (kw *KeyWalks) Rows(dst []entity.ID, i int, pos []int32, key []entity.ID) []entity.ID {
	p := &kw.dec.Paths[i]
	w := kw.walkers[i]
	if w == nil {
		keep := make(pathindex.NodeFilter, len(p.Nodes))
		for pos, n := range p.Nodes {
			keep[pos] = kw.nt.sets[n]
		}
		w = pathindex.NewWalker(kw.g, kw.alpha, len(p.Nodes), p.Labels, nil, keep, kw.keep)
		kw.walkers[i] = w
	}
	kw.p, kw.rows = p, dst
	from := len(dst)
	if len(pos) > 0 {
		w.At(pos, key)
	} else {
		for word, set := range kw.nt.sets[p.Nodes[0]] {
			for ; set != 0; set &= set - 1 {
				kw.root[0] = entity.ID(word*64 + bits.TrailingZeros64(set))
				w.At(rootPos, kw.root[:])
			}
		}
	}
	dst, kw.rows = kw.rows, nil
	if len(pos) > 0 && pos[0] > 0 {
		kw.sort = rowOrder{nodes: dst[from:], w: len(p.Nodes)}
		sort.Sort(&kw.sort)
		kw.sort.nodes = nil
	}
	return dst
}

// rootPos is the key position of a root walk.
var rootPos = []int32{0}

// keep is the key walk's callback: every row it is handed carries the key,
// and one that passes keepCandidate is appended to the output.
func (kw *KeyWalks) keep(nodes []entity.ID, _ []prob.LabelID, prle, prn float64) bool {
	if keepCandidate(kw.g, kw.nt, kw.p, nodes, prle, prn) {
		kw.rows = append(kw.rows, nodes...)
	}
	return true
}

// rowOrder sorts flat rows of w entity ids each by their ids, position by
// position.
type rowOrder struct {
	nodes []entity.ID
	w     int
}

func (r *rowOrder) Len() int { return len(r.nodes) / r.w }

func (r *rowOrder) Less(i, j int) bool {
	return slices.Compare(r.nodes[i*r.w:(i+1)*r.w], r.nodes[j*r.w:(j+1)*r.w]) < 0
}

func (r *rowOrder) Swap(i, j int) {
	a, b := r.nodes[i*r.w:(i+1)*r.w], r.nodes[j*r.w:(j+1)*r.w]
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}
