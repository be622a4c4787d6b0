package core_test

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/fixtures"
	"repro/internal/join"
	"repro/internal/naive"
	"repro/internal/pathindex"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/refgraph"
)

func buildIx(t testing.TB, g *entity.Graph, L int, beta float64) *pathindex.Index {
	t.Helper()
	ix, err := pathindex.Build(context.Background(), g, pathindex.Options{
		MaxLen: L, Beta: beta, Gamma: 0.1, Dir: filepath.Join(t.TempDir(), "ix"),
	})
	if err != nil {
		t.Fatalf("pathindex.Build: %v", err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// motivatingQuery is the Figure 1(d) query: a path labeled (r, a, i).
func motivatingQuery(t testing.TB, g *entity.Graph) *query.Query {
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

func TestMotivatingExampleEndToEnd(t *testing.T) {
	g, err := fixtures.MotivatingGraph()
	if err != nil {
		t.Fatal(err)
	}
	q := motivatingQuery(t, g)
	for _, L := range []int{1, 2} {
		ix := buildIx(t, g, L, 0.02)
		res, err := core.Match(context.Background(), ix, q, core.Options{Alpha: fixtures.MotivatingAlpha})
		if err != nil {
			t.Fatalf("L=%d: Match: %v", L, err)
		}
		if len(res.Matches) != 1 {
			t.Fatalf("L=%d: got %d matches, want 1: %+v", L, len(res.Matches), res.Matches)
		}
		m := res.Matches[0]
		want := []entity.ID{fixtures.S34, fixtures.S2, fixtures.S1}
		for i, v := range want {
			if m.Mapping[i] != v {
				t.Errorf("L=%d: mapping[%d] = %d, want %d", L, i, m.Mapping[i], v)
			}
		}
		if math.Abs(m.Pr()-0.2025) > 1e-9 {
			t.Errorf("L=%d: Pr = %v, want 0.2025", L, m.Pr())
		}
	}
}

func TestMotivatingExampleAllMatchesLowThreshold(t *testing.T) {
	g, err := fixtures.MotivatingGraph()
	if err != nil {
		t.Fatal(err)
	}
	q := motivatingQuery(t, g)
	ix := buildIx(t, g, 2, 0.01)
	res, err := core.Match(context.Background(), ix, q, core.Options{Alpha: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 5 {
		t.Fatalf("got %d matches, want 5: %+v", len(res.Matches), res.Matches)
	}
	want := map[[3]entity.ID]float64{}
	for _, em := range fixtures.MotivatingMatches() {
		want[em.Nodes] = em.Pr
	}
	for _, m := range res.Matches {
		key := [3]entity.ID{m.Mapping[0], m.Mapping[1], m.Mapping[2]}
		wp, ok := want[key]
		if !ok {
			t.Errorf("unexpected match %v", key)
			continue
		}
		if math.Abs(m.Pr()-wp) > 1e-9 {
			t.Errorf("match %v Pr = %v, want %v", key, m.Pr(), wp)
		}
	}
}

func TestSingleNodeQuery(t *testing.T) {
	g, err := fixtures.MotivatingGraph()
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, g, 1, 0.01)
	q := query.New()
	q.AddNode(g.Alphabet().ID("a"))
	res, err := core.Match(context.Background(), ix, q, core.Options{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0].Mapping[0] != fixtures.S2 {
		t.Fatalf("single-node query: %+v", res.Matches)
	}
}

func TestMatchValidation(t *testing.T) {
	g, err := fixtures.MotivatingGraph()
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, g, 1, 0.1)
	q := motivatingQuery(t, g)
	if _, err := core.Match(context.Background(), ix, q, core.Options{Alpha: 0}); err == nil {
		t.Error("alpha 0 accepted")
	}
	if _, err := core.Match(context.Background(), ix, q, core.Options{Alpha: 1.5}); err == nil {
		t.Error("alpha > 1 accepted")
	}
}

func TestStatsProgressionMonotone(t *testing.T) {
	g, err := fixtures.MotivatingGraph()
	if err != nil {
		t.Fatal(err)
	}
	q := motivatingQuery(t, g)
	ix := buildIx(t, g, 2, 0.01)
	res, err := core.Match(context.Background(), ix, q, core.Options{Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.SSPath < st.SSContext || st.SSContext < st.SSAfterStructure || st.SSAfterStructure < st.SSFinal {
		t.Errorf("search space not monotone: %v ≥ %v ≥ %v ≥ %v",
			st.SSPath, st.SSContext, st.SSAfterStructure, st.SSFinal)
	}
	if st.NumPaths == 0 || st.Total == 0 {
		t.Errorf("stats incomplete: %+v", st)
	}
}

// matchesIdentical demands exact equality — mapping, Prle, Prn (bitwise),
// and order — between two result sets.
func matchesIdentical(t *testing.T, label string, want, got []join.Match) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if !slices.Equal(w.Mapping, g.Mapping) || math.Float64bits(w.Prle) != math.Float64bits(g.Prle) || math.Float64bits(w.Prn) != math.Float64bits(g.Prn) {
			t.Fatalf("%s: match %d is %v (%v, %v), want %v (%v, %v)", label, i, g.Mapping, g.Prle, g.Prn, w.Mapping, w.Prle, w.Prn)
		}
	}
}

// randomPGD generates a small random PGD for equivalence testing.
func randomPGD(rng *rand.Rand, nLabels, nRefs int) *refgraph.PGD {
	names := make([]string, nLabels)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	alpha := prob.MustAlphabet(names...)
	d := refgraph.New(alpha)
	for i := 0; i < nRefs; i++ {
		if rng.Float64() < 0.5 {
			d.AddReference(prob.Point(prob.LabelID(rng.Intn(nLabels))))
		} else {
			d.AddReference(prob.ZipfDist(rng, nLabels))
		}
	}
	for e := 0; e < nRefs*2; e++ {
		a, b := refgraph.RefID(rng.Intn(nRefs)), refgraph.RefID(rng.Intn(nRefs))
		if a == b {
			continue
		}
		ed := refgraph.EdgeDist{P: 0.4 + 0.6*rng.Float64()}
		if rng.Float64() < 0.3 {
			// Label-conditioned edge with a symmetric CPT.
			cpt := make([]float64, nLabels*nLabels)
			for i := 0; i < nLabels; i++ {
				for j := 0; j <= i; j++ {
					p := ed.P
					if i != j {
						p *= 0.8
					}
					cpt[i*nLabels+j] = p
					cpt[j*nLabels+i] = p
				}
			}
			ed.CPT = cpt
		}
		d.AddEdge(a, b, ed)
	}
	for s := 0; s < nRefs/5; s++ {
		a, b := refgraph.RefID(rng.Intn(nRefs)), refgraph.RefID(rng.Intn(nRefs))
		if a != b {
			d.AddReferenceSet([]refgraph.RefID{a, b}, 0.2+0.8*rng.Float64())
		}
	}
	return d
}

// randomConnectedQuery generates a random connected query with n nodes.
func randomConnectedQuery(rng *rand.Rand, nLabels, n, extraEdges int) *query.Query {
	q := query.New()
	for i := 0; i < n; i++ {
		q.AddNode(prob.LabelID(rng.Intn(nLabels)))
	}
	// Random spanning tree.
	for i := 1; i < n; i++ {
		q.AddEdge(query.NodeID(rng.Intn(i)), query.NodeID(i))
	}
	for e := 0; e < extraEdges; e++ {
		a, b := query.NodeID(rng.Intn(n)), query.NodeID(rng.Intn(n))
		if a != b && !q.HasEdge(a, b) {
			q.AddEdge(a, b)
		}
	}
	return q
}

// TestEq11AgainstPossibleWorlds validates Pr(M) = Prn·Prle against the full
// possible-worlds sum on tiny graphs (Definition 4 → Eq. 11).
func TestEq11AgainstPossibleWorlds(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		d := randomPGD(rng, 2, 5)
		g, err := entity.Build(d, entity.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if g.NumEdges() > 8 {
			continue // keep world enumeration tiny
		}
		q := randomConnectedQuery(rng, 2, 2, 0)
		ms, err := naive.Matches(context.Background(), g, q, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			worldP, err := naive.WorldMatchProb(g, q, m.Mapping)
			if err != nil {
				t.Skipf("world space too large: %v", err)
			}
			if math.Abs(worldP-m.Pr()) > 1e-9 {
				t.Errorf("trial %d: mapping %v: worlds %v vs Eq.11 %v",
					trial, m.Mapping, worldP, m.Pr())
			}
		}
	}
}
