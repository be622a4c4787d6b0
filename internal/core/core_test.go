package core_test

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
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

func TestStrategiesAgree(t *testing.T) {
	g, err := fixtures.MotivatingGraph()
	if err != nil {
		t.Fatal(err)
	}
	q := motivatingQuery(t, g)
	ix := buildIx(t, g, 2, 0.01)
	base, err := core.Match(context.Background(), ix, q, core.Options{Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []core.Strategy{core.StrategyRandomDecomp, core.StrategyNoSSReduction} {
		res, err := core.Match(context.Background(), ix, q, core.Options{
			Alpha: 0.05, Strategy: s, Seed: 7,
		})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !matchSetsEqual(base.Matches, res.Matches) {
			t.Errorf("%v disagrees with Optimized: %d vs %d matches", s, len(res.Matches), len(base.Matches))
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

func matchSetsEqual(a, b []join.Match) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(m join.Match) string {
		buf := make([]byte, 0, len(m.Mapping)*4)
		for _, v := range m.Mapping {
			buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		return string(buf)
	}
	am := make(map[string]float64, len(a))
	for _, m := range a {
		am[key(m)] = m.Pr()
	}
	for _, m := range b {
		p, ok := am[key(m)]
		if !ok || math.Abs(p-m.Pr()) > 1e-9 {
			return false
		}
	}
	return true
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

// TestPipelineMatchesNaive is the central soundness property: on random
// PGDs and random queries, the full optimized pipeline returns exactly the
// same match set and probabilities as the brute-force matcher, for every
// strategy and multiple thresholds.
func TestPipelineMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	trials := 15
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		nLabels := rng.Intn(2) + 2
		nRefs := rng.Intn(15) + 8
		d := randomPGD(rng, nLabels, nRefs)
		g, err := entity.Build(d, entity.BuildOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		L := rng.Intn(3) + 1
		beta := []float64{0.05, 0.2}[rng.Intn(2)]
		ix := buildIx(t, g, L, beta)
		for qi := 0; qi < 4; qi++ {
			n := rng.Intn(4) + 2
			q := randomConnectedQuery(rng, nLabels, n, rng.Intn(3))
			alpha := []float64{0.1, 0.3, 0.6}[rng.Intn(3)]
			want, err := naive.Matches(context.Background(), g, q, alpha)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []core.Strategy{core.StrategyOptimized, core.StrategyRandomDecomp, core.StrategyNoSSReduction} {
				res, err := core.Match(context.Background(), ix, q, core.Options{
					Alpha: alpha, Strategy: s, Seed: int64(trial),
				})
				if err != nil {
					t.Fatalf("trial %d q %d %v: %v", trial, qi, s, err)
				}
				if !matchSetsEqual(want, res.Matches) {
					t.Fatalf("trial %d query %d strategy %v α=%v L=%d β=%v: pipeline %d matches, naive %d\nquery:\n%s",
						trial, qi, s, alpha, L, beta, len(res.Matches), len(want), q.Format(g.Alphabet()))
				}
			}
		}
	}
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
			worldP, err := naive.WorldMatchProb(g, q, m.Mapping, 0)
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
