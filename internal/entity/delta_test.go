package entity

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/prob"
	"repro/internal/refgraph"
)

// applyRandomDelta mutates d in place and returns the delta describing it.
func applyRandomDelta(t *testing.T, rng *rand.Rand, d *refgraph.PGD) Delta {
	t.Helper()
	var dl Delta
	for i := 0; i < 4; i++ {
		switch rng.Intn(4) {
		case 0:
			id := d.AddReference(prob.Point(prob.LabelID(rng.Intn(d.Alphabet().Len()))))
			dl.NewRefs = append(dl.NewRefs, id)
		case 1:
			a := refgraph.RefID(rng.Intn(d.NumRefs()))
			b := refgraph.RefID(rng.Intn(d.NumRefs()))
			if a == b {
				continue
			}
			if err := d.AddEdge(a, b, refgraph.EdgeDist{P: 0.3 + 0.7*rng.Float64()}); err != nil {
				t.Fatalf("AddEdge: %v", err)
			}
			dl.Edges = append(dl.Edges, refgraph.MakeEdgeKey(a, b))
		case 2:
			if d.NumSets() == 0 {
				continue
			}
			sid := refgraph.SetID(rng.Intn(d.NumSets()))
			if err := d.SetSetProb(sid, rng.Float64()); err != nil {
				t.Fatalf("SetSetProb: %v", err)
			}
			dl.SetProbs = append(dl.SetProbs, sid)
		default:
			a := rng.Intn(d.NumRefs() - 1)
			b := a + 1 + rng.Intn(2)
			if b >= d.NumRefs() {
				continue
			}
			members := []refgraph.RefID{refgraph.RefID(a), refgraph.RefID(b)}
			if _, ok := d.FindSet(members); ok {
				continue
			}
			sid, err := d.AddReferenceSet(members, 0.3+0.5*rng.Float64())
			if err != nil {
				t.Fatalf("AddReferenceSet: %v", err)
			}
			dl.NewSets = append(dl.NewSets, sid)
		}
	}
	return dl
}

// nodeKey identifies an entity across differently-ordered graphs by its
// reference set.
func nodeKey(g *Graph, v ID) string { return fmt.Sprintf("%v", g.Refs(v)) }

// TestApplyDeltaMatchesFullRebuild applies random mutation chains through
// ApplyDelta and checks every probability-bearing quantity — labels,
// existence marginals, merged edge distributions, and pairwise identity
// marginals — against a from-scratch Build of the mutated PGD, entity ids
// canonicalized by reference set.
func TestApplyDeltaMatchesFullRebuild(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, err := gen.Synthetic(gen.SynthOptions{
			Refs: 20, EdgeFactor: 2, Labels: 3, UncertainFrac: 0.5,
			Groups: 2, GroupSize: 3, PairsPerGroup: 2, Seed: seed,
		})
		if err != nil {
			t.Fatalf("Synthetic: %v", err)
		}
		g, err := Build(d, BuildOptions{})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		for step := 0; step < 3; step++ {
			dl := applyRandomDelta(t, rng, d)
			ng, dirty, err := ApplyDelta(g, d, dl, BuildOptions{})
			if err != nil {
				t.Fatalf("seed %d step %d: ApplyDelta: %v", seed, step, err)
			}
			want, err := Build(d, BuildOptions{})
			if err != nil {
				t.Fatalf("seed %d step %d: rebuild: %v", seed, step, err)
			}
			compareGraphs(t, fmt.Sprintf("seed %d step %d", seed, step), ng, want)
			if !dl.Empty() && len(dirty) == 0 {
				t.Errorf("seed %d step %d: non-empty delta but no dirty entities", seed, step)
			}
			g = ng
		}
	}
}

func compareGraphs(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("%s: %d nodes, want %d", label, got.NumNodes(), want.NumNodes())
	}
	// Map want's entities by reference set.
	wantBy := make(map[string]ID, want.NumNodes())
	for v := 0; v < want.NumNodes(); v++ {
		wantBy[nodeKey(want, ID(v))] = ID(v)
	}
	const tol = 1e-12
	for v := 0; v < got.NumNodes(); v++ {
		gv := ID(v)
		wv, ok := wantBy[nodeKey(got, gv)]
		if !ok {
			t.Fatalf("%s: entity %v missing from rebuild", label, got.Refs(gv))
		}
		if diff := got.Exist(gv) - want.Exist(wv); diff > tol || diff < -tol {
			t.Errorf("%s: Exist(%v) = %v, want %v", label, got.Refs(gv), got.Exist(gv), want.Exist(wv))
		}
		for _, l := range got.Labels(gv) {
			if diff := got.PrLabel(gv, l) - want.PrLabel(wv, l); diff > tol || diff < -tol {
				t.Errorf("%s: PrLabel(%v,%d) mismatch", label, got.Refs(gv), l)
			}
		}
		// Adjacency: same neighbor sets with same merged distributions.
		gn := got.Neighbors(gv)
		wn := want.Neighbors(wv)
		if len(gn) != len(wn) {
			t.Errorf("%s: %v has %d neighbors, want %d", label, got.Refs(gv), len(gn), len(wn))
			continue
		}
		wnBy := make(map[string]*EdgeProb, len(wn))
		for _, nb := range wn {
			wnBy[nodeKey(want, nb.To)] = nb.E
		}
		for _, nb := range gn {
			we, ok := wnBy[nodeKey(got, nb.To)]
			if !ok {
				t.Errorf("%s: edge %v–%v missing from rebuild", label, got.Refs(gv), got.Refs(nb.To))
				continue
			}
			if diff := nb.E.Base() - we.Base(); diff > tol || diff < -tol {
				t.Errorf("%s: edge %v–%v base %v, want %v", label, got.Refs(gv), got.Refs(nb.To), nb.E.Base(), we.Base())
			}
			if nb.E.Conditional() != we.Conditional() {
				t.Errorf("%s: edge %v–%v conditional mismatch", label, got.Refs(gv), got.Refs(nb.To))
			}
		}
		// Pairwise identity marginals (exercises component configs + memo).
		for u := v + 1; u < got.NumNodes(); u++ {
			gu := ID(u)
			wu := wantBy[nodeKey(got, gu)]
			gp, wp := got.Prn([]ID{gv, gu}), want.Prn([]ID{wv, wu})
			if diff := gp - wp; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("%s: Prn(%v,%v) = %v, want %v", label, got.Refs(gv), got.Refs(gu), gp, wp)
			}
		}
	}
}
