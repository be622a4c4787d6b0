package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/live"
	"repro/internal/naive"
	"repro/internal/pathindex"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/refgraph"
	"repro/internal/sqlbase"
)

// boundaryIndex is the index both readers of TestBoundaryAnswers build:
// paths of up to 2 edges, β 0.05, γ 0.05.
var boundaryIndex = pathindex.Options{MaxLen: 2, Beta: 0.05, Gamma: 0.05}

// boundaryReaders returns a packed index over d and a live view over d
// whose overlay carries twelve edges of probability 0 between references
// outside every reference set: they change no path's probability, so the
// view's answers are the packed index's, but the paths through their
// entities are served from the overlay.
func boundaryReaders(t *testing.T, d *refgraph.PGD, g *entity.Graph, seed int64) map[string]pathindex.Reader {
	t.Helper()
	db, err := live.Create(context.Background(), t.TempDir(), d, live.Options{
		Index: boundaryIndex, CompactEvery: -1, CompactDirtyFrac: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	inSet := map[refgraph.RefID]bool{}
	for i := 0; i < d.NumSets(); i++ {
		for _, r := range d.Set(refgraph.SetID(i)).Members {
			inSet[r] = true
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var ms []live.Mutation
	for len(ms) < 12 {
		a, b := refgraph.RefID(rng.Intn(d.NumRefs())), refgraph.RefID(rng.Intn(d.NumRefs()))
		if _, ok := d.Edge(a, b); a != b && !ok && !inSet[a] && !inSet[b] {
			ms = append(ms, live.Mutation{Op: live.OpAddEdge, A: a, B: b, P: 0})
		}
	}
	if _, err := db.Apply(ms); err != nil {
		t.Fatal(err)
	}
	if db.View().DirtyEntities() == 0 {
		t.Fatal("live view carries no overlay")
	}
	return map[string]pathindex.Reader{"packed": boundaryPacked(t, g), "dirty": db.View()}
}

// boundaryPacked builds the packed index over g.
func boundaryPacked(t *testing.T, g *entity.Graph) *pathindex.Index {
	t.Helper()
	opt := boundaryIndex
	opt.Dir = filepath.Join(t.TempDir(), "ix")
	ix, err := pathindex.Build(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// boundaryRuns holds core.Match over one query at one α to the oracle's
// answer want: StrategyOptimized and StrategyNoSSReduction × Limit 0 and 1
// × both orders. Unlimited runs return want itself, Limit 1 by probability
// its most probable match, and Limit 1 in emit order one of its matches,
// each bit for bit. It returns the number of runs.
func boundaryRuns(t *testing.T, label string, ix pathindex.Reader, q *query.Query, alpha float64, want []join.Match) int {
	t.Helper()
	ctx := context.Background()
	byProb := byProbOracle(want)
	runs := 0
	for _, s := range []core.Strategy{core.StrategyOptimized, core.StrategyNoSSReduction} {
		for _, limit := range []int{0, 1} {
			for _, order := range []core.ResultOrder{core.OrderEmit, core.OrderByProb} {
				at := fmt.Sprintf("%s %v limit %d order %v", label, s, limit, order)
				res, err := core.Match(ctx, ix, q, core.Options{Alpha: alpha, Strategy: s, Limit: limit, Order: order})
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				runs++
				switch {
				case limit == 0 && order == core.OrderEmit:
					matchesIdentical(t, at, want, res.Matches)
				case limit == 0:
					matchesIdentical(t, at, byProb, res.Matches)
				case order == core.OrderByProb:
					matchesIdentical(t, at, byProb[:min(1, len(byProb))], res.Matches)
				default:
					if len(res.Matches) != min(1, len(want)) {
						t.Fatalf("%s: %d matches, the oracle has %d", at, len(res.Matches), len(want))
					}
					for _, m := range res.Matches {
						i := slices.IndexFunc(want, func(w join.Match) bool { return slices.Equal(w.Mapping, m.Mapping) })
						if i < 0 {
							t.Fatalf("%s: %v is not in the oracle's answer", at, m.Mapping)
						}
						matchesIdentical(t, at, want[i:i+1], res.Matches)
					}
				}
			}
		}
	}
	return runs
}

// TestBoundaryAnswers holds every run at an α on the edge of a match's
// probability to the oracle. Each pruning site multiplies its bound in its
// own order, so a bound can land a few ulps below the product that decides
// membership; prob.MayClear must admit it. On 12 seeded corpora, for 4
// random queries each, α is b = Prle·Prn + 1e-12 of each of the first 16
// oracle matches at α = 1e-9, and b one ulp either side: the highest α at
// which the match clears, and its neighbours. Every run over a packed
// index and over a dirty live view returns the oracle's matches, and the
// SQL baseline agrees with the oracle. A path whose probability sits just
// below α on a bucket floor of the packed index, where a lookup starts
// decoding, is found too. The seeds run in parallel.
func TestBoundaryAnswers(t *testing.T) {
	var runs, alphas, matched atomic.Int64
	t.Run("seeds", func(t *testing.T) {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprint(seed), func(t *testing.T) {
				t.Parallel()
				r, a, m := boundarySeed(t, seed)
				runs.Add(int64(r))
				alphas.Add(int64(a))
				matched.Add(int64(m))
			})
		}
	})
	t.Logf("%d runs at %d boundary α, %d oracle matches", runs.Load(), alphas.Load(), matched.Load())
	if alphas.Load() < 500 {
		t.Fatalf("%d boundary α: too few for the comparison to mean anything", alphas.Load())
	}
	bucketFloorLookups(t)
}

// boundarySeed runs TestBoundaryAnswers on one seeded corpus, returning its
// runs, boundary α and oracle matches.
func boundarySeed(t *testing.T, seed int64) (runs, alphas, matched int) {
	t.Helper()
	ctx := context.Background()
	opt := gen.SynthOptions{Refs: 60, EdgeFactor: 2, Labels: 3, UncertainFrac: 0.5, Groups: 4, GroupSize: 3, PairsPerGroup: 3, Seed: seed}
	d, err := gen.Synthetic(opt)
	if err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	readers := boundaryReaders(t, d, g, seed)
	sql := sqlbase.NewDB(g)
	rng := rand.New(rand.NewSource(seed * 7919))
	for qi := 0; qi < 4; qi++ {
		q, err := gen.RandomQuery(rng, g.NumLabels(), 3+rng.Intn(2), 4)
		if err != nil {
			t.Fatal(err)
		}
		all, err := naive.Matches(ctx, g, q, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range all[:min(16, len(all))] {
			b := m.Prle*m.Prn + 1e-12
			for _, alpha := range []float64{math.Nextafter(b, 0), b, math.Nextafter(b, 2)} {
				if alpha > 1 {
					continue
				}
				alphas++
				label := fmt.Sprintf("seed %d q%d α=%v", seed, qi, alpha)
				want, err := naive.Matches(ctx, g, q, alpha)
				if err != nil {
					t.Fatal(err)
				}
				if kept := slices.ContainsFunc(want, func(w join.Match) bool { return slices.Equal(w.Mapping, m.Mapping) }); kept != (alpha <= b) {
					t.Fatalf("%s: the oracle keeps %v: %v, want %v", label, m.Mapping, kept, alpha <= b)
				}
				sqlWant, err := sql.Query(ctx, q, alpha)
				if err != nil {
					t.Fatal(err)
				}
				matchesIdentical(t, label+" sqlbase", want, sqlWant)
				matched += len(want)
				for _, kind := range []string{"packed", "dirty"} {
					runs += boundaryRuns(t, label+" "+kind, readers[kind], q, alpha, want)
				}
			}
		}
	}
	return runs, alphas, matched
}

// bucketFloorLookups: a packed lookup at an α on a bucket floor starts
// decoding at that bucket, so a path filed one bucket lower because its
// probability is a hair below α must still be found there. Two references
// joined by one edge of probability α − 5e-13; a two-node query at α 0.1,
// 0.2 and 0.5 matches that edge, either way round.
func bucketFloorLookups(t *testing.T) {
	ctx := context.Background()
	for _, alpha := range []float64{0.1, 0.2, 0.5} {
		label := fmt.Sprintf("bucket floor α=%v", alpha)
		d := refgraph.New(prob.MustAlphabet("a"))
		d.AddReference(prob.Point(0))
		d.AddReference(prob.Point(0))
		if err := d.AddEdge(0, 1, refgraph.EdgeDist{P: alpha - 5e-13}); err != nil {
			t.Fatal(err)
		}
		g, err := entity.Build(d, entity.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		q := query.New()
		q.AddNode(0)
		q.AddNode(0)
		if err := q.AddEdge(0, 1); err != nil {
			t.Fatal(err)
		}
		want, err := naive.Matches(ctx, g, q, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: the oracle has no match", label)
		}
		boundaryRuns(t, label, boundaryPacked(t, g), q, alpha, want)
	}
}
