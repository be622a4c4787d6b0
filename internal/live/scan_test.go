package live

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/pathindex"
	"repro/internal/prob"
	"repro/internal/refgraph"
)

// lookupBeforeScan is View.Lookup as it stood before Scan existed, the
// reference the streamed merge is held to: the base index's matches
// (materialized) minus those touching a dirty entity, then a brute-force
// enumeration of the paths through one (see dirtyBruteForce).
func lookupBeforeScan(v *View, X []prob.LabelID, alpha float64) ([]pathindex.PathMatch, error) {
	bm, err := v.base.Lookup(X, alpha)
	if err != nil || v.dirty == nil {
		return bm, err
	}
	var out []pathindex.PathMatch
	for _, m := range bm {
		if !slices.ContainsFunc(m.Nodes, func(n entity.ID) bool { return v.dirty[n] }) {
			out = append(out, m)
		}
	}
	return append(out, dirtyBruteForce(v, X, alpha)...), nil
}

// dirtyBruteForce is the dirty share of a view's PIndex(X, α) with no walk
// and no pruning: every simple path of GU whose nodes carry the labels X
// and one of which is dirty, scored from its first dirty node (see
// scoreFromDirty), kept when it clears α. The paths come in the order a
// walk anchored at that node discovers them: by the node, then its
// position on the path, then the nodes leftwards of it, then rightwards.
func dirtyBruteForce(v *View, X []prob.LabelID, alpha float64) []pathindex.PathMatch {
	g := v.g
	type found struct {
		m   pathindex.PathMatch
		key []entity.ID
	}
	var all []found
	var path []entity.ID
	var grow func()
	grow = func() {
		if len(path) == len(X) {
			at := slices.IndexFunc(path, func(n entity.ID) bool { return v.dirty[n] })
			if at < 0 {
				return
			}
			prle, prn, order := scoreFromDirty(g, path, X, at)
			if !prob.MayClear(prle*prn, alpha, pathindex.PathFactors(len(X))) {
				return
			}
			key := append([]entity.ID{order[0], entity.ID(at)}, order[1:]...)
			all = append(all, found{pathindex.PathMatch{Nodes: slices.Clone(path), Prle: prle, Prn: prn}, key})
			return
		}
		next := make([]entity.ID, 0, g.NumNodes())
		if len(path) == 0 {
			for n := 0; n < g.NumNodes(); n++ {
				next = append(next, entity.ID(n))
			}
		} else {
			for _, nb := range g.Neighbors(path[len(path)-1]) {
				next = append(next, nb.To)
			}
		}
		for _, n := range next {
			if g.PrLabel(n, X[len(path)]) > 0 && !slices.Contains(path, n) {
				path = append(path, n)
				grow()
				path = path[:len(path)-1]
			}
		}
	}
	grow()
	slices.SortFunc(all, func(a, b found) int { return slices.Compare(a.key, b.key) })
	out := make([]pathindex.PathMatch, len(all))
	for i, f := range all {
		out[i] = f.m
	}
	return out
}

// scoreFromDirty is the score of the path nodes labelled X as a view
// defines it from the dirty node at position at: Prle multiplies that
// node's label factor and then one edge and one label factor per node,
// leftwards from it and then rightwards; Prn is entity.Graph.Prn of the
// nodes in that same order, which it returns as well.
func scoreFromDirty(g *entity.Graph, nodes []entity.ID, X []prob.LabelID, at int) (prle, prn float64, order []entity.ID) {
	order = []entity.ID{nodes[at]}
	prle = g.PrLabel(nodes[at], X[at])
	for i := at - 1; i >= 0; i-- {
		e, _ := g.EdgeBetween(nodes[i], nodes[i+1])
		prle = prle * g.PrEdge(e, X[i], X[i+1]) * g.PrLabel(nodes[i], X[i])
		order = append(order, nodes[i])
	}
	for i := at + 1; i < len(nodes); i++ {
		e, _ := g.EdgeBetween(nodes[i-1], nodes[i])
		prle = prle * g.PrEdge(e, X[i-1], X[i]) * g.PrLabel(nodes[i], X[i])
		order = append(order, nodes[i])
	}
	return prle, g.Prn(order), order
}

// TestViewScanEqualsLookupBeforeScan is the live half of the pre-join
// equivalence property: on views carrying a dirty set, with α on both
// sides of β, View.Scan's record stream and View.Lookup equal the
// brute-force reference in order, nodes and float bits — and a scan
// stopped inside the base half never reaches the walk. On the small
// corpora the batches dirty nearly every entity; the larger one leaves most
// clean, so below β the walk streams paths whose first dirty node is at
// every position of a three-node path, grown at the head by one and by two
// nodes.
func TestViewScanEqualsLookupBeforeScan(t *testing.T) {
	large, err := gen.Synthetic(gen.SynthOptions{
		Refs: 120, EdgeFactor: 2, Labels: 4, UncertainFrac: 0.4,
		Groups: 4, GroupSize: 3, PairsPerGroup: 2, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	firstDirtyAt := make([]int, testMaxLen+1) // below-β walked records of three nodes
	for _, c := range []struct {
		seed int64
		pgd  *refgraph.PGD
	}{{6, basePGD(t, 6)}, {7, basePGD(t, 7)}, {8, large}} {
		seed := c.seed
		db := createDB(t, c.pgd, testOptions())
		rng := rand.New(rand.NewSource(seed * 29))
		for applied := 0; applied < 2; {
			var ms []Mutation
			for len(ms) < 5 {
				ms = append(ms, randomMutation(rng, db.PGDSnapshot()))
			}
			if _, err := db.Apply(ms); err == nil {
				applied++
			}
		}
		v := db.View()
		if v.DirtyEntities() == 0 {
			t.Fatalf("seed %d: view carries no dirty entity", seed)
		}
		fromBase, fromWalk := 0, 0
		var probe func(X []prob.LabelID)
		probe = func(X []prob.LabelID) {
			if len(X) > 0 {
				for _, alpha := range []float64{0.02, testBeta - 1e-9, testBeta, 0.3, 0.7} {
					label := fmt.Sprintf("seed %d X=%v α=%v", seed, X, alpha)
					want, err := lookupBeforeScan(v, X, alpha)
					if err != nil {
						t.Fatalf("%s: reference: %v", label, err)
					}
					var stream []pathindex.PathMatch
					if err := v.Scan(X, alpha, func(nodes []entity.ID, prle, prn float64) bool {
						stream = append(stream, pathindex.PathMatch{Nodes: append([]entity.ID(nil), nodes...), Prle: prle, Prn: prn})
						return true
					}); err != nil {
						t.Fatalf("%s: Scan: %v", label, err)
					}
					got, err := v.Lookup(X, alpha)
					if err != nil {
						t.Fatalf("%s: Lookup: %v", label, err)
					}
					for name, ms := range map[string][]pathindex.PathMatch{"Scan": stream, "Lookup": got} {
						if len(ms) != len(want) {
							t.Fatalf("%s: %s has %d records, want %d", label, name, len(ms), len(want))
						}
						for i := range ms {
							if !reflect.DeepEqual(ms[i].Nodes, want[i].Nodes) ||
								math.Float64bits(ms[i].Prle) != math.Float64bits(want[i].Prle) ||
								math.Float64bits(ms[i].Prn) != math.Float64bits(want[i].Prn) {
								t.Fatalf("%s: %s record %d: %+v, want %+v", label, name, i, ms[i], want[i])
							}
						}
					}
					for _, m := range want {
						at := slices.IndexFunc(m.Nodes, func(n entity.ID) bool { return v.dirty[n] })
						switch {
						case at < 0:
							fromBase++
						case alpha < testBeta && len(m.Nodes) == len(firstDirtyAt):
							firstDirtyAt[at]++
							fallthrough
						default:
							fromWalk++
						}
					}
					if len(want) > 1 {
						calls := 0
						if err := v.Scan(X, alpha, func([]entity.ID, float64, float64) bool {
							calls++
							return false
						}); err != nil || calls != 1 {
							t.Fatalf("%s: stopped scan made %d calls, err %v", label, calls, err)
						}
					}
				}
			}
			if len(X) == testMaxLen+1 {
				return
			}
			for l := 0; l < v.Graph().NumLabels(); l++ {
				probe(append(X[:len(X):len(X)], prob.LabelID(l)))
			}
		}
		probe(nil)
		if fromBase == 0 || fromWalk == 0 {
			t.Fatalf("seed %d: %d base and %d walked records probed; need both", seed, fromBase, fromWalk)
		}
	}
	if slices.Contains(firstDirtyAt, 0) {
		t.Fatalf("below-β three-node walked records by first dirty position: %v; need every position", firstDirtyAt)
	}
	t.Logf("below-β three-node walked records by first dirty position: %v", firstDirtyAt)
}
