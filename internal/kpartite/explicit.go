package kpartite

import (
	"fmt"

	"repro/internal/decompose"
	"repro/internal/prob"
)

// VertexSpec describes one vertex for NewExplicit: its two weights
// (w1 = exclusive label/edge cover product, w2 = identity probability).
type VertexSpec struct {
	W1, W2 float64
}

// LinkSpec connects vertex IndexA of partition PartA with vertex IndexB of
// partition PartB.
type LinkSpec struct {
	PartA, IndexA int
	PartB, IndexB int
}

// NewExplicit constructs a candidate k-partite graph directly from vertex
// weights and links, bypassing candidate generation. joined lists the
// partition pairs that must be linked (J(P)); it must cover every pair that
// appears in links. Intended for unit tests and for experimenting with the
// reduction algorithms in isolation (e.g. the paper's Figure 5 walkthrough).
func NewExplicit(parts [][]VertexSpec, joined [][2]int, links []LinkSpec, alpha float64) (*Graph, error) {
	k := len(parts)
	dec := &decompose.Decomposition{
		Paths: make([]decompose.Path, k),
		Joins: make(map[[2]int][]decompose.JoinPred),
	}
	for _, j := range joined {
		a, b := j[0], j[1]
		if a > b {
			a, b = b, a
		}
		if a < 0 || b >= k || a == b {
			return nil, fmt.Errorf("kpartite: bad joined pair %v", j)
		}
		dec.Joins[[2]int{a, b}] = []decompose.JoinPred{{}}
	}
	// A vertex's bound multiplies w2 and one weight per partition.
	kg := &Graph{dec: dec, floor: prob.Floor(alpha, k+1)}
	kg.parts = make([]*partition, k)
	kg.links = make([][]linkSet, k)
	kg.joined = make([][]int, k)
	for p := 0; p < k; p++ {
		n := len(parts[p])
		part := &partition{
			path:   &dec.Paths[p],
			n:      n,
			plen:   0,
			alive:  make([]bool, n),
			nAlive: n,
			w1:     make([]float64, n),
			w2:     make([]float64, n),
		}
		for i, vs := range parts[p] {
			part.alive[i] = true
			part.w1[i] = vs.W1
			part.w2[i] = vs.W2
		}
		kg.parts[p] = part
		kg.links[p] = make([]linkSet, k)
		kg.joined[p] = dec.Joined(p)
	}
	perPair := make(map[[2]int][][2]int32) // (ia, ib) per joined pair a < b
	for _, l := range links {
		if l.PartA < 0 || l.PartA >= k || l.PartB < 0 || l.PartB >= k {
			return nil, fmt.Errorf("kpartite: bad link %+v", l)
		}
		a, b := l.PartA, l.PartB
		ia, ib := int32(l.IndexA), int32(l.IndexB)
		if a > b {
			a, b, ia, ib = b, a, ib, ia
		}
		if _, ok := dec.Joins[[2]int{a, b}]; !ok {
			return nil, fmt.Errorf("kpartite: link %+v between non-joined partitions", l)
		}
		perPair[[2]int{a, b}] = append(perPair[[2]int{a, b}], [2]int32{ia, ib})
	}
	for pair := range dec.Joins {
		a, b := pair[0], pair[1]
		ls := perPair[pair]
		// Group a's vertices by b in input order; transposing that sorts the
		// a→b rows, and transposing once more gives b→a sorted as well.
		ibs := make([]int32, len(ls))
		for x, l := range ls {
			ibs[x] = l[1]
		}
		byB := counting(kg.parts[b].n, ibs)
		for _, l := range ls {
			byB.put(l[1], l[0])
		}
		byB.rewind()
		kg.links[a][b] = transpose(byB, kg.parts[a].n)
		kg.links[b][a] = transpose(kg.links[a][b], kg.parts[b].n)
	}
	return kg, nil
}

// Vector returns a copy of the current perception vector of vertex i in
// partition p (nil before reduction, or when the vertex was already dead
// when the vectors were initialized).
func (kg *Graph) Vector(p, i int) []float64 {
	part := kg.parts[p]
	if !kg.vecReady || !part.vecSet[i] {
		return nil
	}
	k := len(kg.parts)
	out := make([]float64, k)
	copy(out, part.vec[i*k:(i+1)*k])
	return out
}
