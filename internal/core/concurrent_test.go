package core_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/pathindex"
	"repro/internal/query"
)

// TestConcurrentMatchSharedIndex issues mixed Match calls — different
// queries, thresholds, and strategies — from many goroutines against one
// shared opened index, asserting each result equals its sequential
// baseline. Under -race this is the end-to-end proof that the online phase
// needs no external serialization: candidates, decomposition, and join all
// probe the same index concurrently.
func TestConcurrentMatchSharedIndex(t *testing.T) {
	d, err := gen.Synthetic(gen.SynthOptions{Refs: 60, EdgeFactor: 2, Labels: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ix")
	built, err := pathindex.Build(context.Background(), g, pathindex.Options{
		MaxLen: 2, Beta: 0.05, Gamma: 0.1, Dir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := pathindex.Open(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	// A fixed workload of (query, alpha, strategy) cells with sequential
	// baselines. RandomDecomp gets a per-cell deterministic seed so the
	// concurrent rerun decomposes identically.
	rng := rand.New(rand.NewSource(5))
	type cell struct {
		q     *query.Query
		alpha float64
		strat core.Strategy
		seed  int64
		want  []string
	}
	var cells []cell
	for qi := 0; qi < 4; qi++ {
		q, err := gen.RandomQuery(rng, g.NumLabels(), 2+qi%2, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, alpha := range []float64{0.1, 0.3} {
			for _, s := range []core.Strategy{core.StrategyOptimized, core.StrategyRandomDecomp, core.StrategyNoSSReduction} {
				cells = append(cells, cell{q: q, alpha: alpha, strat: s, seed: int64(qi)*10 + int64(s)})
			}
		}
	}
	for i := range cells {
		c := &cells[i]
		res, err := core.Match(context.Background(), ix, c.q, core.Options{
			Alpha: c.alpha, Strategy: c.strat, Seed: c.seed,
		})
		if err != nil {
			t.Fatalf("baseline cell %d: %v", i, err)
		}
		c.want = matchFingerprints(res)
	}

	const goroutines = 12
	const iters = 25
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 31))
			for i := 0; i < iters; i++ {
				c := &cells[rng.Intn(len(cells))]
				res, err := core.Match(context.Background(), ix, c.q, core.Options{
					Alpha: c.alpha, Strategy: c.strat, Seed: c.seed,
				})
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", w, i, err)
					return
				}
				got := matchFingerprints(res)
				if len(got) != len(c.want) {
					t.Errorf("goroutine %d: %d matches, want %d", w, len(got), len(c.want))
					return
				}
				for j := range got {
					if got[j] != c.want[j] {
						t.Errorf("goroutine %d: match %d = %q, want %q", w, j, got[j], c.want[j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// matchFingerprints flattens a result into comparable strings (mappings are
// already deterministically sorted by core.Match).
func matchFingerprints(res *core.Result) []string {
	out := make([]string, len(res.Matches))
	for i, m := range res.Matches {
		b := make([]byte, 0, len(m.Mapping)*4+16)
		for _, v := range m.Mapping {
			b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		out[i] = string(b)
	}
	return out
}
