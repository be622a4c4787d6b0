package live

import (
	"context"
	"slices"
	"testing"

	"repro/internal/entity"
	"repro/internal/prob"
	"repro/internal/refgraph"
)

// TestNodeSetMemoScope: the node-level memo belongs to one graph. A clean
// view answers from its base index's memo; a view with mutations has a
// memo of its own, empty when the view is published. So a set read from
// view k is not served by view k+1 after a batch that changes it, and view
// k keeps answering for its own graph. A compaction's generation starts
// from an empty memo: sets the old generation memoised are computed again
// over the new graph. The race step runs this at several processor counts.
func TestNodeSetMemoScope(t *testing.T) {
	d := refgraph.New(prob.MustAlphabet("a", "b"))
	hub := d.AddReference(prob.Point(0))
	var leaves [3]refgraph.RefID
	for i := range leaves {
		leaves[i] = d.AddReference(prob.Point(1))
	}
	if err := d.AddEdge(hub, leaves[0], refgraph.EdgeDist{P: 1}); err != nil {
		t.Fatal(err)
	}
	db := createDB(t, d, testOptions())
	// An a-labelled query node with two, or three, b-labelled neighbours:
	// the hub passes once it has as many b-labelled neighbours.
	two, three := []int{0, 2}, []int{0, 3}
	has := func(v *View, counts []int) bool {
		g := v.Graph()
		for i := range g.NumNodes() {
			if slices.Equal(g.Refs(entity.ID(i)), []refgraph.RefID{hub}) {
				return v.NodeSet(0, counts, 0.5).Has(entity.ID(i))
			}
		}
		t.Fatal("no entity holds the hub reference alone")
		return false
	}
	link := func(leaf refgraph.RefID) *View {
		t.Helper()
		if _, err := db.Apply([]Mutation{{Op: OpAddEdge, A: hub, B: leaf, P: 1}}); err != nil {
			t.Fatal(err)
		}
		return db.View()
	}

	v0 := db.View()
	if v0.sets != nil {
		t.Fatal("a clean view has a memo of its own")
	}
	if has(v0, two) || has(v0, three) {
		t.Fatal("generation 1: the hub passes with one b-labelled neighbour")
	}
	v1 := link(leaves[1])
	if v1.sets == nil || v1.sets.Len() != 0 {
		t.Fatal("a view with mutations is published without an empty memo of its own")
	}
	if !has(v1, two) || has(v1, three) {
		t.Fatal("view 1: the hub's two b-labelled neighbours are not what its sets say")
	}
	if n := v1.sets.Len(); n != 2 {
		t.Fatalf("view 1 memoised %d factor sets, want 2", n)
	}
	v2 := link(leaves[2])
	if v2.sets == v1.sets || v2.sets.Len() != 0 {
		t.Fatal("view 2 shares view 1's memo")
	}
	if !has(v2, three) {
		t.Fatal("view 2 served view 1's set: the hub's third neighbour is missing")
	}
	if has(v1, three) || has(v0, two) {
		t.Fatal("an older view answers for a newer graph")
	}
	if err := db.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	v3 := db.View()
	if v3.sets != nil || v3.base == v0.base {
		t.Fatal("after compaction the view is not a clean view of a new generation")
	}
	if !has(v3, two) || !has(v3, three) {
		t.Fatal("generation 2 served generation 1's sets")
	}
}
