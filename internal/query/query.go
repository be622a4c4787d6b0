// Package query implements labeled query graphs (Section 4) and the query
// statistics of Section 5.2 used for pruning: per-node neighborhood label
// counts, and per-path neighbors, reverse neighbors, cycles, degree, and
// density.
package query

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/prob"
)

// NodeID identifies a query node.
type NodeID int32

// Query is an undirected, labeled query graph Q = (VQ, EQ, lQ).
type Query struct {
	labels []prob.LabelID
	adj    [][]NodeID
	nEdges int
}

// New creates an empty query.
func New() *Query { return &Query{} }

// AddNode adds a node with the given label and returns its id.
func (q *Query) AddNode(l prob.LabelID) NodeID {
	q.labels = append(q.labels, l)
	q.adj = append(q.adj, nil)
	return NodeID(len(q.labels) - 1)
}

// AddEdge adds an undirected edge. Duplicate edges and self loops are
// rejected.
func (q *Query) AddEdge(a, b NodeID) error {
	if a == b {
		return fmt.Errorf("query: self loop on node %d", a)
	}
	if err := q.check(a); err != nil {
		return err
	}
	if err := q.check(b); err != nil {
		return err
	}
	if q.HasEdge(a, b) {
		return fmt.Errorf("query: duplicate edge (%d,%d)", a, b)
	}
	q.adj[a] = insertSorted(q.adj[a], b)
	q.adj[b] = insertSorted(q.adj[b], a)
	q.nEdges++
	return nil
}

func insertSorted(s []NodeID, v NodeID) []NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func (q *Query) check(n NodeID) error {
	if n < 0 || int(n) >= len(q.labels) {
		return fmt.Errorf("query: unknown node %d", n)
	}
	return nil
}

// NumNodes returns |VQ|.
func (q *Query) NumNodes() int { return len(q.labels) }

// NumEdges returns |EQ|.
func (q *Query) NumEdges() int { return q.nEdges }

// Label returns lQ(n).
func (q *Query) Label(n NodeID) prob.LabelID { return q.labels[n] }

// Neighbors returns the sorted neighbor list of n (not to be modified).
func (q *Query) Neighbors(n NodeID) []NodeID { return q.adj[n] }

// Degree returns the degree of n.
func (q *Query) Degree(n NodeID) int { return len(q.adj[n]) }

// HasEdge reports whether (a,b) ∈ EQ.
func (q *Query) HasEdge(a, b NodeID) bool {
	nbs := q.adj[a]
	i := sort.Search(len(nbs), func(i int) bool { return nbs[i] >= b })
	return i < len(nbs) && nbs[i] == b
}

// Edges returns all edges with a < b, sorted.
func (q *Query) Edges() [][2]NodeID {
	out := make([][2]NodeID, 0, q.nEdges)
	for a := NodeID(0); int(a) < len(q.adj); a++ {
		for _, b := range q.adj[a] {
			if a < b {
				out = append(out, [2]NodeID{a, b})
			}
		}
	}
	return out
}

// Validate checks structural sanity against an alphabet.
func (q *Query) Validate(a *prob.Alphabet) error {
	if len(q.labels) == 0 {
		return fmt.Errorf("query: empty query")
	}
	for i, l := range q.labels {
		if l < 0 || int(l) >= a.Len() {
			return fmt.Errorf("query: node %d has label %d outside alphabet", i, l)
		}
	}
	return nil
}

// NeighborLabelCounts returns c(n,·) as a dense slice indexed by label.
func (q *Query) NeighborLabelCounts(n NodeID, nLabels int) []int {
	out := make([]int, nLabels)
	for _, m := range q.adj[n] {
		out[q.labels[m]]++
	}
	return out
}

// PathInfo bundles the path-level statistics of Sections 5.2.1 and 5.2.2 for
// one query path.
type PathInfo struct {
	// Degree is the path degree: Σ degree(n) − 2·length(P).
	Degree int
	// Density is 2K / (M(M−1)) where K counts query edges among path nodes.
	Density float64
	// Neighbors is Γ(P): query nodes off the path adjacent to it, sorted.
	Neighbors []NodeID
	// Reverse is parallel to Neighbors: Reverse[i] is rv(P,m) for
	// m = Neighbors[i], the positions on the path adjacent to m, ascending.
	Reverse [][]int
	// Cycles lists the path cycle chords as position pairs (i,j), i+2 ≤ j,
	// where (P[i], P[j]) ∈ EQ. Each chord appears exactly once.
	Cycles [][2]int
}

// PathStats computes PathInfo for the query path with the given node
// positions. The nodes must form a path in Q (consecutive nodes adjacent).
func (q *Query) PathStats(path []NodeID) (PathInfo, error) {
	for i := 0; i+1 < len(path); i++ {
		if !q.HasEdge(path[i], path[i+1]) {
			return PathInfo{}, fmt.Errorf("query: nodes %d,%d not adjacent", path[i], path[i+1])
		}
	}
	for i, n := range path {
		if slices.Index(path[:i], n) >= 0 {
			return PathInfo{}, fmt.Errorf("query: path repeats a node")
		}
	}
	var info PathInfo
	info.Degree, info.Density = q.PathDegreeDensity(path)
	for i, n := range path {
		for _, m := range q.adj[n] {
			if j := slices.Index(path, m); j > i+1 {
				info.Cycles = append(info.Cycles, [2]int{i, j})
			}
		}
	}
	slices.SortFunc(info.Cycles, compareLex)
	// The off-path neighbors as (node, position) pairs: sorted, each node's
	// run of positions is its reverse-neighbor list. The path degree counts
	// them and every chord twice.
	off := make([][2]int, 0, info.Degree-2*len(info.Cycles))
	for i, n := range path {
		for _, m := range q.adj[n] {
			if slices.Index(path, m) < 0 {
				off = append(off, [2]int{int(m), i})
			}
		}
	}
	slices.SortFunc(off, compareLex)
	nb := 0
	for x := range off {
		if x == 0 || off[x][0] != off[x-1][0] {
			nb++
		}
	}
	rev := make([]int, len(off))
	info.Reverse = make([][]int, 0, nb)
	for x := 0; x < len(off); {
		y := x
		for ; y < len(off) && off[y][0] == off[x][0]; y++ {
			rev[y] = off[y][1]
		}
		info.Neighbors = append(info.Neighbors, NodeID(off[x][0]))
		info.Reverse = append(info.Reverse, rev[x:y:y])
		x = y
	}
	return info, nil
}

func compareLex(a, b [2]int) int {
	return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
}

// PathDegreeDensity returns PathInfo's Degree and Density alone, without
// building the rest.
func (q *Query) PathDegreeDensity(path []NodeID) (degree int, density float64) {
	k := 0 // query edges among path nodes: path edges and chords
	for i, n := range path {
		degree += len(q.adj[n])
		for _, m := range q.adj[n] {
			if slices.Index(path, m) > i {
				k++
			}
		}
	}
	degree -= 2 * (len(path) - 1)
	if m := len(path); m > 1 {
		return degree, 2 * float64(k) / float64(m*(m-1))
	}
	return degree, 1
}

// Labels returns the label sequence of a node sequence.
func (q *Query) Labels(path []NodeID) []prob.LabelID {
	out := make([]prob.LabelID, len(path))
	for i, n := range path {
		out[i] = q.labels[n]
	}
	return out
}
