package naive

import (
	"context"
	"math"
	"testing"

	"repro/internal/entity"
	"repro/internal/fixtures"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/refgraph"
)

func motivatingQuery(t *testing.T, g *entity.Graph) *query.Query {
	t.Helper()
	alpha := g.Alphabet()
	q := query.New()
	q1 := q.AddNode(alpha.ID("r"))
	q2 := q.AddNode(alpha.ID("a"))
	q3 := q.AddNode(alpha.ID("i"))
	if err := q.AddEdge(q1, q2); err != nil {
		t.Fatal(err)
	}
	if err := q.AddEdge(q2, q3); err != nil {
		t.Fatal(err)
	}
	return q
}

func TestMatchesMotivatingExample(t *testing.T) {
	g, err := fixtures.MotivatingGraph()
	if err != nil {
		t.Fatal(err)
	}
	q := motivatingQuery(t, g)
	ms, err := Matches(context.Background(), g, q, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 5 {
		t.Fatalf("got %d matches, want 5", len(ms))
	}
	want := map[[3]entity.ID]float64{}
	for _, em := range fixtures.MotivatingMatches() {
		want[em.Nodes] = em.Pr
	}
	for _, m := range ms {
		key := [3]entity.ID{m.Mapping[0], m.Mapping[1], m.Mapping[2]}
		if p, ok := want[key]; !ok || math.Abs(p-m.Pr()) > 1e-9 {
			t.Errorf("match %v Pr=%v want %v (ok=%v)", key, m.Pr(), p, ok)
		}
	}

	// Threshold filter.
	ms, err = Matches(context.Background(), g, q, fixtures.MotivatingAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Mapping[0] != fixtures.S34 {
		t.Fatalf("α=0.2: %+v", ms)
	}
}

func TestMatchesRejectsSharedReferences(t *testing.T) {
	// Query (r, a, r) would need s3 and s34 simultaneously — illegal.
	g, err := fixtures.MotivatingGraph()
	if err != nil {
		t.Fatal(err)
	}
	alpha := g.Alphabet()
	q := query.New()
	q1 := q.AddNode(alpha.ID("r"))
	q2 := q.AddNode(alpha.ID("a"))
	q3 := q.AddNode(alpha.ID("r"))
	if err := q.AddEdge(q1, q2); err != nil {
		t.Fatal(err)
	}
	if err := q.AddEdge(q2, q3); err != nil {
		t.Fatal(err)
	}
	ms, err := Matches(context.Background(), g, q, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if !RefsLegal(g, m.Mapping) {
			t.Errorf("illegal match emitted: %v", m.Mapping)
		}
		if m.Mapping[0] == m.Mapping[2] {
			t.Errorf("non-injective match emitted: %v", m.Mapping)
		}
	}
}

func TestEnumerateWorldsSumsToOne(t *testing.T) {
	g, err := fixtures.MotivatingGraph()
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	worlds := 0
	err = EnumerateWorlds(g, func(w World) bool {
		total += w.P
		worlds++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("world probabilities sum to %v over %d worlds", total, worlds)
	}
}

func TestEnumerateWorldsEarlyStop(t *testing.T) {
	g, err := fixtures.MotivatingGraph()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := EnumerateWorlds(g, func(World) bool { n++; return n < 3 }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("early stop at %d", n)
	}
}

func TestEnumerateWorldsTooLarge(t *testing.T) {
	alpha := prob.MustAlphabet("x")
	d := refgraph.New(alpha)
	n := 60
	for i := 0; i < n; i++ {
		d.AddReference(prob.Point(0))
	}
	for i := 1; i < n; i++ {
		if err := d.AddEdge(refgraph.RefID(0), refgraph.RefID(i), refgraph.EdgeDist{P: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := EnumerateWorlds(g, func(World) bool { return true }); err == nil {
		t.Error("oversized world space accepted")
	}
}

func TestWorldMatchProbAgainstEq11(t *testing.T) {
	g, err := fixtures.MotivatingGraph()
	if err != nil {
		t.Fatal(err)
	}
	q := motivatingQuery(t, g)
	for _, em := range fixtures.MotivatingMatches() {
		got, err := WorldMatchProb(g, q, em.Nodes[:])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-em.Pr) > 1e-9 {
			t.Errorf("worlds Pr(%v) = %v, want %v", em.Nodes, got, em.Pr)
		}
	}
}

func TestMatchesDisconnectedQuery(t *testing.T) {
	// Two isolated labeled nodes: matches are all injective legal pairs.
	alpha := prob.MustAlphabet("x", "y")
	d := refgraph.New(alpha)
	d.AddReference(prob.Point(0))
	d.AddReference(prob.Point(0))
	d.AddReference(prob.Point(1))
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := query.New()
	q.AddNode(prob.LabelID(0))
	q.AddNode(prob.LabelID(0))
	ms, err := Matches(context.Background(), g, q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// (e0,e1) and (e1,e0).
	if len(ms) != 2 {
		t.Fatalf("disconnected query matches = %+v", ms)
	}
}
