package entity

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/prob"
)

// prnByMemo is Prn as it was before single-node components took the
// Node.Exist shortcut: every component's mask, one bit or many, is looked
// up through MarginalAll's memo map.
func prnByMemo(g *Graph, nodes []ID) float64 {
	if len(nodes) == 0 {
		return 1
	}
	var comps []int32
	masks := map[int32]uint64{}
	for _, v := range nodes {
		c := g.Comp(v)
		if _, ok := masks[c]; !ok {
			comps = append(comps, c)
		}
		masks[c] |= uint64(1) << g.compPos[v]
	}
	p := 1.0
	for _, c := range comps {
		p *= g.Component(int(c)).MarginalAll(masks[c])
		if p == 0 {
			return 0
		}
	}
	return p
}

// constructionPaths returns one seeded synthetic graph as each of the two
// places that create nodes leaves it: built, and incrementally maintained
// (components shared with the old graph, entities appended). appended
// reports how many entities the delta added.
func constructionPaths(t *testing.T, seed int64, rng *rand.Rand, opt BuildOptions) (graphs map[string]*Graph, appended int) {
	t.Helper()
	d, err := gen.Synthetic(gen.SynthOptions{
		Refs: 40, EdgeFactor: 2, Labels: 3, UncertainFrac: 0.5,
		Groups: 4, GroupSize: 4, PairsPerGroup: 3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	built, err := Build(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	delta, _, err := ApplyDelta(built, d, applyRandomDelta(t, rng, d))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Graph{"built": built, "delta": delta}, delta.NumNodes() - built.NumNodes()
}

// TestPrnExistShortcutBitwise: Prn equals the all-memo path bit for bit on
// random node sets — drawn so that components are often shared between
// several nodes of a set, and with duplicates — over graphs that were built,
// and incrementally maintained.
func TestPrnExistShortcutBitwise(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed * 17))
		graphs, _ := constructionPaths(t, seed, rng, BuildOptions{})
		for name, g := range graphs {
			label := fmt.Sprintf("seed %d %s", seed, name)
			for trial := 0; trial < 400; trial++ {
				nodes := make([]ID, 1+rng.Intn(6))
				for i := range nodes {
					if i > 0 && rng.Intn(3) == 0 {
						// Same component as the previous node (possibly the
						// same node): a multi-bit mask, or a duplicate.
						ms := g.ComponentOf(nodes[i-1]).Members
						nodes[i] = ms[rng.Intn(len(ms))]
					} else {
						nodes[i] = ID(rng.Intn(g.NumNodes()))
					}
				}
				if got, want := g.Prn(nodes), prnByMemo(g, nodes); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Prn(%v) = %v, memo path %v", label, nodes, got, want)
				}
			}
		}
	}
}

// TestHasLabelBitset: the per-label entity bitset answers HasLabel exactly as
// the label distribution does, for every (entity, label), on every
// construction path — the delta's appended entities (fresh references and
// merged sets, whose support is the union of their members') included.
func TestHasLabelBitset(t *testing.T) {
	appended := 0
	for seed := int64(1); seed <= 4; seed++ {
		graphs, n := constructionPaths(t, seed, rand.New(rand.NewSource(seed*17)), BuildOptions{})
		appended += n
		for name, g := range graphs {
			for v := 0; v < g.NumNodes(); v++ {
				for l := 0; l < g.NumLabels(); l++ {
					want := g.PrLabel(ID(v), prob.LabelID(l)) > 0
					if got := g.HasLabel(ID(v), prob.LabelID(l)); got != want {
						t.Fatalf("seed %d %s: HasLabel(%d, %d) = %v, distribution says %v", seed, name, v, l, got, want)
					}
				}
			}
		}
	}
	if appended == 0 {
		t.Error("no delta appended an entity; that path was not exercised")
	}
}

// TestPrnExtendEqualsPrn: growing a node list one entity at a time,
// PrnExtend(prefix, Prn(prefix), v) is Prn(prefix+v) bit for bit — for every
// simple GU path prefix of up to four nodes extended by every neighbour of
// its tail (the on-demand DFS's call) and by every member of every prefix
// node's identity component (so extensions that change an earlier mask are
// certain to occur), under both identity semantics and on every construction
// path.
func TestPrnExtendEqualsPrn(t *testing.T) {
	for _, sem := range []Semantics{SemanticsExample, SemanticsFactor} {
		fresh, sameComp := 0, 0
		for seed := int64(1); seed <= 2; seed++ {
			graphs, _ := constructionPaths(t, seed, rand.New(rand.NewSource(seed*17)), BuildOptions{Semantics: sem})
			for name, g := range graphs {
				check := func(prefix []ID, prn0 float64, v ID) float64 {
					want := g.Prn(append(prefix[:len(prefix):len(prefix)], v))
					if got := g.PrnExtend(prefix, prn0, v); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("semantics %d seed %d %s: PrnExtend(%v, %v, %d) = %v, Prn %v", sem, seed, name, prefix, prn0, v, got, want)
					}
					return want
				}
				var walk func(prefix []ID, prn0 float64)
				walk = func(prefix []ID, prn0 float64) {
					for _, u := range prefix {
						for _, m := range g.ComponentOf(u).Members {
							check(prefix, prn0, m)
							sameComp++
						}
					}
					if len(prefix) == 4 {
						return
					}
					for _, nb := range g.Neighbors(prefix[len(prefix)-1]) {
						if slices.Contains(prefix, nb.To) {
							continue
						}
						if prn := check(prefix, prn0, nb.To); prn != 0 {
							fresh++
							walk(append(prefix, nb.To), prn)
						}
					}
				}
				for v := 0; v < g.NumNodes(); v++ {
					walk([]ID{ID(v)}, g.Exist(ID(v)))
				}
			}
		}
		if fresh == 0 || sameComp == 0 {
			t.Errorf("semantics %d: %d neighbour and %d same-component extensions; one kind was never exercised", sem, fresh, sameComp)
		}
	}
}

// TestPrnWideNodeListsStayOnTheStack: a node list spanning up to 16 identity
// components — a 9-, 12- or 16-node query's mapping, which the join hands to
// Prn per accepted prefix and per match whenever two of its nodes share a
// component — costs no heap allocation, whether every node is alone in its
// component or one component holds two and the list is grouped; and a list
// spanning more components still gets the memo path's answer bit for bit.
func TestPrnWideNodeListsStayOnTheStack(t *testing.T) {
	d, err := gen.Synthetic(gen.SynthOptions{Refs: 200, Groups: 8, UncertainFrac: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(d, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var alone, linked []ID // one member of every single-entity component; two of a larger one
	for c := 0; c < g.NumComponents(); c++ {
		switch ms := g.Component(c).Members; {
		case len(ms) == 1:
			alone = append(alone, ms[0])
		case linked == nil:
			linked = ms[:2]
		}
	}
	if len(alone) < 20 || linked == nil {
		t.Fatalf("graph has %d single-entity components and linked entities %v; too few", len(alone), linked)
	}
	for _, n := range []int{9, 12, 16, 20} {
		distinct := alone[:n]
		shared := append(append([]ID{linked[0]}, alone[:n-1]...), linked[1]) // n components, the first holding two nodes
		for name, nodes := range map[string][]ID{"distinct": distinct, "shared": shared} {
			if got, want := g.Prn(nodes), prnByMemo(g, nodes); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d components, %s: Prn = %v, memo path %v", n, name, got, want)
			}
			if n > 16 {
				continue
			}
			if allocs := testing.AllocsPerRun(100, func() { sinkPrn = g.Prn(nodes) }); allocs != 0 {
				t.Errorf("%d components, %s: Prn makes %v allocations per call, want 0", n, name, allocs)
			}
		}
	}
}

var sinkPrn float64
