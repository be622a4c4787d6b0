package core_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/join"
	"repro/internal/kpartite"
	"repro/internal/naive"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/refgraph"
)

// overlapPGD is six references on a near-complete reference graph, with the
// set {r1, r2} beside its members' singletons: the entities r1, r2 and
// {r1, r2} share one identity component, any two of them that overlap have a
// joint marginal of exactly 0, and all three are neighbours of every other
// entity — so every stage meets rows that hold two of them.
func overlapPGD(t *testing.T) *refgraph.PGD {
	t.Helper()
	alphabet := prob.MustAlphabet("a", "b")
	d := refgraph.New(alphabet)
	for r := 0; r < 6; r++ {
		if r%2 == 0 {
			d.AddReference(prob.Point(prob.LabelID(0)))
		} else {
			d.AddReference(prob.MustDist(prob.LabelProb{Label: 0, P: 0.6}, prob.LabelProb{Label: 1, P: 0.4}))
		}
	}
	for a := 0; a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			if a == 1 && b == 2 {
				continue // the merged pair: no edge inside the set
			}
			if err := d.AddEdge(refgraph.RefID(a), refgraph.RefID(b), refgraph.EdgeDist{P: 0.5 + 0.08*float64(a)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := d.AddReferenceSet([]refgraph.RefID{1, 2}, 0.5); err != nil {
		t.Fatal(err)
	}
	return d
}

func overlapping(g *entity.Graph, nodes []entity.ID) bool {
	for i, v := range nodes {
		for _, u := range nodes[:i] {
			if u == v || g.RefsOverlap(u, v) {
				return true
			}
		}
	}
	return false
}

// TestZeroMarginalRejectsAtAnyAlpha: α = 1e-13 is a valid threshold below
// prob.Clears' 1e-12 tolerance, where "prle·0 + 1e-12 ≥ α" would hold for a
// row whose identity marginal is 0. Reference overlap is decided by that
// marginal alone, so prob.Clears and prob.MayClear must reject a zero product
// whatever α: no path walked on demand, no k-partite link and no match may
// hold two entities that share a reference, and the answer is bitwise the
// oracle's, which checks references itself.
func TestZeroMarginalRejectsAtAnyAlpha(t *testing.T) {
	const alpha = 1e-13
	ctx := context.Background()
	g, err := entity.Build(overlapPGD(t), entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, g, 2, 0.05)
	shapes := map[string]struct {
		nodes int
		edges [][2]int
	}{
		"path3":    {3, [][2]int{{0, 1}, {1, 2}}},
		"path4":    {4, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		"triangle": {3, [][2]int{{0, 1}, {1, 2}, {0, 2}}},
		"cycle4":   {4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}},
		"star4":    {4, [][2]int{{0, 1}, {0, 2}, {0, 3}}},
	}
	walked, linked, emitted := 0, 0, 0
	for name, shape := range shapes {
		q := query.New()
		for n := 0; n < shape.nodes; n++ {
			q.AddNode(prob.LabelID(0))
		}
		for _, e := range shape.edges {
			if err := q.AddEdge(query.NodeID(e[0]), query.NodeID(e[1])); err != nil {
				t.Fatal(err)
			}
		}
		want, err := naive.Matches(ctx, g, q, alpha)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []core.Strategy{core.StrategyOptimized, core.StrategyRandomDecomp, core.StrategyNoSSReduction} {
			opt := core.Options{Alpha: alpha, Strategy: s, Seed: 7}
			label := fmt.Sprintf("%s %v", name, s)
			res, err := core.Match(ctx, ix, q, opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			matchesIdentical(t, label+" vs naive", want, res.Matches)
			for _, m := range res.Matches {
				if overlapping(g, m.Mapping) || m.Prn == 0 {
					t.Fatalf("%s: emitted %v with Prn %v", label, m.Mapping, m.Prn)
				}
				emitted++
			}
			var streamed []entity.ID
			if _, err := core.MatchStream(ctx, ix, q, core.Options{Alpha: alpha, Strategy: s, Seed: 7, Limit: 1}, func(m join.Match) bool {
				streamed = m.Mapping
				return true
			}); err != nil {
				t.Fatalf("%s: stream: %v", label, err)
			}
			if (streamed == nil) != (len(want) == 0) || overlapping(g, streamed) {
				t.Fatalf("%s: limit-1 stream answered %v, the full answer has %d matches", label, streamed, len(want))
			}

			pl, err := core.Prepare(ctx, ix, q, opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sets, _, err := candidates.Find(ctx, ix, q, pl.Dec, alpha, 1, nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for p := range sets {
				for i := 0; i < sets[p].Len(); i++ {
					if row := sets[p].Row(i); overlapping(g, row) {
						t.Fatalf("%s: path %d walked %v", label, p, row)
					}
					walked++
				}
			}
			kg, err := kpartite.Build(ctx, g, q, pl.Dec, sets, alpha, 1)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for pair := range pl.Dec.Joins {
				a, b := pair[0], pair[1]
				for i := 0; i < kg.NumCandidates(a); i++ {
					for _, j := range kg.Links(a, i, b) {
						// The union may name a shared join node twice; only
						// distinct entities can overlap.
						union := map[entity.ID]bool{}
						for _, v := range kg.Row(a, i) {
							union[v] = true
						}
						for _, v := range kg.Row(b, int(j)) {
							union[v] = true
						}
						var nodes []entity.ID
						for v := range union {
							nodes = append(nodes, v)
						}
						if overlapping(g, nodes) {
							t.Fatalf("%s: linked rows %v and %v", label, kg.Row(a, i), kg.Row(b, int(j)))
						}
						linked++
					}
				}
			}
		}
	}
	if walked == 0 || linked == 0 || emitted == 0 {
		t.Fatalf("vacuous: %d rows walked, %d links, %d matches", walked, linked, emitted)
	}
}
