package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/naive"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/refgraph"
)

// TestCorrelatedEdgesEndToEnd validates the Section 5.3 CPT path: on a
// DBLP-style graph with label-conditioned edge probabilities, the optimized
// pipeline must agree bit for bit with the brute-force matcher.
func TestCorrelatedEdgesEndToEnd(t *testing.T) {
	d, err := gen.DBLP(gen.DBLPOptions{Authors: 60, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, g, 2, 0.05)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 6; trial++ {
		q, err := gen.RandomQuery(rng, g.NumLabels(), 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, alpha := range []float64{0.1, 0.4} {
			want, err := naive.Matches(context.Background(), g, q, alpha)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Match(context.Background(), ix, q, core.Options{Alpha: alpha})
			if err != nil {
				t.Fatal(err)
			}
			matchesIdentical(t, fmt.Sprintf("trial %d α=%v", trial, alpha), want, res.Matches)
		}
	}
}

// TestCorrelatedEdgeProbabilityUsed verifies that the conditional
// probability — not the base — enters the match probability.
func TestCorrelatedEdgeProbabilityUsed(t *testing.T) {
	alpha := prob.MustAlphabet("x", "y")
	d := refgraph.New(alpha)
	a := d.AddReference(prob.Point(0))
	b := d.AddReference(prob.Point(1))
	// Base 0.9 but conditional for (x,y) is 0.3.
	cpt := []float64{
		0.9, 0.3,
		0.3, 0.9,
	}
	if err := d.AddEdge(a, b, refgraph.EdgeDist{P: 0.9, CPT: cpt}); err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, g, 1, 0.05)
	q := query.New()
	qa := q.AddNode(0)
	qb := q.AddNode(1)
	if err := q.AddEdge(qa, qb); err != nil {
		t.Fatal(err)
	}
	res, err := core.Match(context.Background(), ix, q, core.Options{Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Fatalf("matches = %+v", res.Matches)
	}
	if p := res.Matches[0].Pr(); math.Abs(p-0.3) > 1e-9 {
		t.Errorf("Pr = %v, want the conditional 0.3 (not base 0.9)", p)
	}
	// At α=0.5 the conditional prunes the match that the base would keep.
	res, err = core.Match(context.Background(), ix, q, core.Options{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Errorf("conditional probability ignored: %+v", res.Matches)
	}
}
