package core_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/naive"
)

// TestStrategyEquivalenceOnSyntheticPGDs is the strategy-equivalence
// property over the paper's own workload generator: on seeded random
// synthetic PGDs (preferential attachment, Zipf probabilities, merged
// reference pairs), StrategyOptimized, StrategyRandomDecomp, and
// StrategyNoSSReduction must all return exactly the match set of the
// brute-force baseline, with probabilities agreeing within 1e-9
// (matchSetsEqual enforces the tolerance). The strategies differ only in
// how they prune and order the search — never in the answer.
func TestStrategyEquivalenceOnSyntheticPGDs(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	strategies := []core.Strategy{
		core.StrategyOptimized,
		core.StrategyRandomDecomp,
		core.StrategyNoSSReduction,
	}
	for _, seed := range seeds {
		d, err := gen.Synthetic(gen.SynthOptions{
			Refs:          30,
			EdgeFactor:    2,
			Labels:        4,
			UncertainFrac: 0.4,
			Groups:        2,
			GroupSize:     3,
			PairsPerGroup: 2,
			Seed:          seed,
		})
		if err != nil {
			t.Fatalf("seed %d: Synthetic: %v", seed, err)
		}
		g, err := entity.Build(d, entity.BuildOptions{})
		if err != nil {
			t.Fatalf("seed %d: Build: %v", seed, err)
		}
		ix := buildIx(t, g, 2, 0.05)

		rng := rand.New(rand.NewSource(seed * 101))
		for qi := 0; qi < 4; qi++ {
			q, err := gen.RandomQuery(rng, g.NumLabels(), 2+rng.Intn(2), 3)
			if err != nil {
				t.Fatalf("seed %d: RandomQuery: %v", seed, err)
			}
			for _, alpha := range []float64{0.1, 0.35} {
				want, err := naive.Matches(context.Background(), g, q, alpha)
				if err != nil {
					t.Fatalf("seed %d q%d: naive: %v", seed, qi, err)
				}
				for _, s := range strategies {
					res, err := core.Match(context.Background(), ix, q, core.Options{
						Alpha:    alpha,
						Strategy: s,
						Seed:     seed ^ int64(qi),
					})
					if err != nil {
						t.Fatalf("seed %d q%d %v α=%v: Match: %v", seed, qi, s, alpha, err)
					}
					if !matchSetsEqual(want, res.Matches) {
						t.Errorf("seed %d q%d %v α=%v: %d matches vs naive %d\nquery:\n%s",
							seed, qi, s, alpha, len(res.Matches), len(want), q.Format(g.Alphabet()))
					}
				}
			}
		}
	}
}
