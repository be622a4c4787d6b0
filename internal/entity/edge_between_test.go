package entity

import (
	"sort"
	"testing"

	"repro/internal/gen"
)

// edgeBetweenBySearch is EdgeBetween as it was before the binary search was
// written out: sort.Search with a closure over the adjacency list.
func edgeBetweenBySearch(g *Graph, a, b ID) (Neighbor, bool) {
	nbs := g.Neighbors(a)
	i := sort.Search(len(nbs), func(i int) bool { return nbs[i].To >= b })
	if i < len(nbs) && nbs[i].To == b {
		return nbs[i], true
	}
	return Neighbor{}, false
}

// TestEdgeBetweenMatchesSortSearch: on a built graph, the written-out
// search returns the same adjacency entry and found flag as the sort.Search
// form for every ordered pair of entities — neighbours, non-neighbours, ids
// below the first and above the last neighbour, one-entry lists, a == b.
func TestEdgeBetweenMatchesSortSearch(t *testing.T) {
	d, err := gen.Synthetic(gen.SynthOptions{
		Refs: 120, EdgeFactor: 1, Labels: 3, UncertainFrac: 0.5,
		Groups: 6, GroupSize: 3, PairsPerGroup: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(d, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found, degrees := 0, map[int]bool{}
	for a := ID(0); int(a) < g.NumNodes(); a++ {
		degrees[g.Degree(a)] = true
		for b := ID(0); int(b) < g.NumNodes(); b++ {
			want, wantOK := edgeBetweenBySearch(g, a, b)
			got, gotOK := g.EdgeBetween(a, b)
			if got != want || gotOK != wantOK {
				t.Fatalf("EdgeBetween(%d, %d) = (%v, %v), want (%v, %v)", a, b, got, gotOK, want, wantOK)
			}
			if gotOK {
				found++
			}
		}
	}
	if found != 2*g.NumEdges() || found == 0 {
		t.Fatalf("found %d directed edges, graph has %d undirected", found, g.NumEdges())
	}
	if !degrees[1] || len(degrees) < 4 {
		t.Fatalf("adjacency lengths %v: want a one-entry list and a spread of sizes", degrees)
	}
}
