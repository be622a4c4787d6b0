// Benchmarks reproducing every table and figure of the paper's evaluation
// (Section 6), one benchmark family per figure. Run with:
//
//	go test -bench=. -benchmem
//
// Scale: graphs are scaled down from the paper's 50k–1m references to run on
// a small machine (internal/harness documents the scale-down); the
// cmd/pegbench harness runs the same experiments at configurable scale and
// prints paper-style tables.
package peg_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/join"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/sqlbase"
)

// Scaled-down stand-ins for the paper's 50k/100k/500k/1m reference graphs.
// (Three sizes rather than four: the largest L=3 β=0.1 build dominates the
// whole suite's wall clock on a small machine; cmd/pegbench accepts -sizes
// to sweep larger graphs.)
var benchSizes = []int{300, 600, 1200}

const benchMain = 600 // the "100k" analog used by most online experiments

var benchH *harness.Harness

func TestMain(m *testing.M) {
	cfg := harness.DefaultConfig()
	cfg.Sizes = benchSizes
	cfg.OfflineSizes = []int{300, 600}
	cfg.MainSize = benchMain
	cfg.QueriesPerPoint = 1
	var err error
	benchH, err = harness.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench setup:", err)
		os.Exit(1)
	}
	code := m.Run()
	benchH.Close()
	os.Exit(code)
}

func benchGraph(b *testing.B, refs int, uncertain float64) *entity.Graph {
	b.Helper()
	g, err := benchH.Graph(refs, uncertain)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchIndex(b *testing.B, refs int, uncertain float64, L int) *pathindex.Index {
	b.Helper()
	g := benchGraph(b, refs, uncertain)
	ix, err := benchH.Index(fmt.Sprintf("synth-%d-%.2f", refs, uncertain), g, L, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

func benchQuery(b *testing.B, g *entity.Graph, n, m int, seed int64) *query.Query {
	b.Helper()
	q, err := gen.RandomQuery(rand.New(rand.NewSource(seed)), g.NumLabels(), n, m)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

func runMatch(b *testing.B, ix *pathindex.Index, q *query.Query, opt core.Options) *core.Result {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := core.Match(ctx, ix, q, opt)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// streamBenchQuery picks the random q(5,4) with the largest match set at
// α=0.1 on the main synthetic index, so the stream-vs-collect benchmarks
// measure a match-rich workload where the difference matters.
func streamBenchQuery(b *testing.B, ix *pathindex.Index) *query.Query {
	b.Helper()
	q, n := harness.FindRichQuery(ix, 5, 4, 0.1, 51, 20)
	if n == 0 {
		b.Skip("no match-rich query found")
	}
	return q
}

// BenchmarkMatchCollect is the buffered baseline for the streaming API:
// one full core.Match run (all matches materialized and sorted).
func BenchmarkMatchCollect(b *testing.B) {
	ix := benchIndex(b, benchMain, 0.2, 3)
	q := streamBenchQuery(b, ix)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runMatch(b, ix, q, core.Options{Alpha: 0.1})
		if i == 0 {
			b.ReportMetric(float64(len(res.Matches)), "matches")
		}
	}
}

// BenchmarkMatchStream consumes the same result set through MatchStream —
// no buffering, no final sort.
func BenchmarkMatchStream(b *testing.B) {
	ix := benchIndex(b, benchMain, 0.2, 3)
	q := streamBenchQuery(b, ix)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := core.MatchStream(context.Background(), ix, q, core.Options{Alpha: 0.1},
			func(join.Match) bool { return true })
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(st.Matched), "matches")
		}
	}
}

// BenchmarkMatchLimit1 is first-match latency: MatchStream with Limit=1
// aborts the join at the first hit, which must beat the full Match run on
// the same workload.
func BenchmarkMatchLimit1(b *testing.B) {
	ix := benchIndex(b, benchMain, 0.2, 3)
	q := streamBenchQuery(b, ix)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := core.MatchStream(context.Background(), ix, q, core.Options{Alpha: 0.1, Limit: 1},
			func(join.Match) bool { return true })
		if err != nil {
			b.Fatal(err)
		}
		if st.Matched != 1 {
			b.Fatalf("matched %d", st.Matched)
		}
	}
}

// BenchmarkMatchTopK is probability-ordered top-10 retrieval: the join runs
// to completion but only a bounded 10-element heap is kept.
func BenchmarkMatchTopK(b *testing.B) {
	ix := benchIndex(b, benchMain, 0.2, 3)
	q := streamBenchQuery(b, ix)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.MatchStream(context.Background(), ix, q,
			core.Options{Alpha: 0.1, Limit: 10, Order: core.OrderByProb},
			func(join.Match) bool { return true })
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6aOfflineTime reproduces Figure 6(a): offline phase running
// time over the (β, graph size, L) grid. Each iteration is one full build.
func BenchmarkFig6aOfflineTime(b *testing.B) {
	for _, size := range []int{300, 600} {
		g := benchGraph(b, size, 0.2)
		for _, beta := range []float64{0.9, 0.7, 0.5, 0.3} {
			for _, L := range []int{1, 2, 3} {
				b.Run(fmt.Sprintf("beta=%.1f/refs=%d/L=%d", beta, size, L), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						st, err := benchH.BuildIndexUncached(g, L, beta, fmt.Sprintf("b6a-%d", i))
						if err != nil {
							b.Fatal(err)
						}
						b.ReportMetric(float64(st.Entries), "entries")
					}
				})
			}
		}
	}
}

// BenchmarkFig6bIndexSize reproduces Figure 6(b): path index size over the
// same grid, reported as bytes on disk.
func BenchmarkFig6bIndexSize(b *testing.B) {
	for _, size := range []int{300, 600} {
		g := benchGraph(b, size, 0.2)
		for _, beta := range []float64{0.9, 0.5} {
			for _, L := range []int{1, 2, 3} {
				b.Run(fmt.Sprintf("beta=%.1f/refs=%d/L=%d", beta, size, L), func(b *testing.B) {
					var bytes int64
					for i := 0; i < b.N; i++ {
						st, err := benchH.BuildIndexUncached(g, L, beta, fmt.Sprintf("b6b-%d", i))
						if err != nil {
							b.Fatal(err)
						}
						bytes = st.Bytes
					}
					b.ReportMetric(float64(bytes), "index-bytes")
				})
			}
		}
	}
}

// BenchmarkFig6cQuerySize reproduces Figure 6(c): online time vs query size
// for Optimized L=1..3 and the two baselines, α=0.7.
func BenchmarkFig6cQuerySize(b *testing.B) {
	specs := []struct{ n, m int }{{3, 3}, {5, 10}, {7, 21}, {9, 36}, {11, 44}, {13, 52}, {15, 60}}
	variants := []struct {
		name     string
		L        int
		strategy core.Strategy
	}{
		{"OptimizedL1", 1, core.StrategyOptimized},
		{"OptimizedL2", 2, core.StrategyOptimized},
		{"OptimizedL3", 3, core.StrategyOptimized},
		{"NoSSReductionL3", 3, core.StrategyNoSSReduction},
		{"RandomDecompL3", 3, core.StrategyRandomDecomp},
	}
	for _, v := range variants {
		ix := benchIndex(b, benchMain, 0.2, v.L)
		for _, spec := range specs {
			q := benchQuery(b, ix.Graph(), spec.n, spec.m, 42)
			b.Run(fmt.Sprintf("%s/q(%d,%d)", v.name, spec.n, spec.m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runMatch(b, ix, q, core.Options{
						Alpha: 0.7, Strategy: v.strategy,
						Seed: 1,
					})
				}
			})
		}
	}
}

// BenchmarkFig6dQueryDensity reproduces Figure 6(d): online time vs query
// density, q(15, 20..100), α=0.7.
func BenchmarkFig6dQueryDensity(b *testing.B) {
	for _, L := range []int{1, 2, 3} {
		ix := benchIndex(b, benchMain, 0.2, L)
		for _, m := range []int{20, 40, 60, 80, 100} {
			q := benchQuery(b, ix.Graph(), 15, m, 43)
			b.Run(fmt.Sprintf("L=%d/q(15,%d)", L, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runMatch(b, ix, q, core.Options{Alpha: 0.7})
				}
			})
		}
	}
}

// BenchmarkFig6eUncertainty5 reproduces Figure 6(e): 5-node queries across
// graph uncertainty levels.
func BenchmarkFig6eUncertainty5(b *testing.B) {
	benchUncertainty(b, []struct{ n, m int }{{5, 5}, {5, 9}})
}

// BenchmarkFig6fUncertainty10 reproduces Figure 6(f): 10-node queries across
// graph uncertainty levels.
func BenchmarkFig6fUncertainty10(b *testing.B) {
	benchUncertainty(b, []struct{ n, m int }{{10, 20}, {10, 40}})
}

func benchUncertainty(b *testing.B, specs []struct{ n, m int }) {
	for _, unc := range []float64{0.2, 0.4, 0.6, 0.8} {
		for _, L := range []int{1, 2, 3} {
			ix := benchIndex(b, benchMain, unc, L)
			for _, spec := range specs {
				q := benchQuery(b, ix.Graph(), spec.n, spec.m, 44)
				b.Run(fmt.Sprintf("unc=%.0f%%/L=%d/q(%d,%d)", unc*100, L, spec.n, spec.m), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						runMatch(b, ix, q, core.Options{Alpha: 0.7})
					}
				})
			}
		}
	}
}

// BenchmarkFig7aGraphSize5 reproduces Figure 7(a): 5-node queries across
// graph sizes.
func BenchmarkFig7aGraphSize5(b *testing.B) {
	benchGraphSize(b, []struct{ n, m int }{{5, 5}, {5, 9}})
}

// BenchmarkFig7bGraphSize10 reproduces Figure 7(b): 10-node queries across
// graph sizes.
func BenchmarkFig7bGraphSize10(b *testing.B) {
	benchGraphSize(b, []struct{ n, m int }{{10, 20}, {10, 40}})
}

func benchGraphSize(b *testing.B, specs []struct{ n, m int }) {
	for _, size := range benchSizes {
		for _, L := range []int{1, 2, 3} {
			ix := benchIndex(b, size, 0.2, L)
			for _, spec := range specs {
				q := benchQuery(b, ix.Graph(), spec.n, spec.m, 45)
				b.Run(fmt.Sprintf("refs=%d/L=%d/q(%d,%d)", size, L, spec.n, spec.m), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						runMatch(b, ix, q, core.Options{Alpha: 0.7})
					}
				})
			}
		}
	}
}

// BenchmarkFig7cThreshold5 reproduces Figure 7(c): 5-node queries across
// query thresholds.
func BenchmarkFig7cThreshold5(b *testing.B) {
	benchThreshold(b, []struct{ n, m int }{{5, 5}, {5, 9}})
}

// BenchmarkFig7dThreshold10 reproduces Figure 7(d): 10-node queries across
// query thresholds.
func BenchmarkFig7dThreshold10(b *testing.B) {
	benchThreshold(b, []struct{ n, m int }{{10, 20}, {10, 40}})
}

func benchThreshold(b *testing.B, specs []struct{ n, m int }) {
	for _, L := range []int{1, 2, 3} {
		ix := benchIndex(b, benchMain, 0.2, L)
		for _, alpha := range []float64{0.3, 0.5, 0.7, 0.9} {
			for _, spec := range specs {
				q := benchQuery(b, ix.Graph(), spec.n, spec.m, 46)
				b.Run(fmt.Sprintf("L=%d/alpha=%.1f/q(%d,%d)", L, alpha, spec.n, spec.m), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						runMatch(b, ix, q, core.Options{Alpha: alpha})
					}
				})
			}
		}
	}
}

// BenchmarkFig7eSearchSpace reproduces Figure 7(e): the search-space
// progression Path → Path+Context → Final, reported as log10 metrics.
func BenchmarkFig7eSearchSpace(b *testing.B) {
	for _, unc := range []float64{0.2, 0.8} {
		for _, L := range []int{1, 2, 3} {
			ix := benchIndex(b, benchMain, unc, L)
			seed := harness.FindQuerySeed(ix, ix.Graph().NumLabels(), 5, 7, 0.7, 47, 30)
			q := benchQuery(b, ix.Graph(), 5, 7, seed)
			b.Run(fmt.Sprintf("unc=%.0f%%/L=%d", unc*100, L), func(b *testing.B) {
				var st core.Stats
				for i := 0; i < b.N; i++ {
					res := runMatch(b, ix, q, core.Options{Alpha: 0.7})
					st = res.Stats
				}
				b.ReportMetric(log10m(st.SSPath), "log10-ss-path")
				b.ReportMetric(log10m(st.SSContext), "log10-ss-context")
				b.ReportMetric(log10m(st.SSFinal), "log10-ss-final")
			})
		}
	}
}

// BenchmarkFig7fReduction reproduces Figure 7(f): reduction by structure vs
// by upperbounds on a 5-cycle at α=0.1, reported as log10 reduction ratios.
func BenchmarkFig7fReduction(b *testing.B) {
	for _, unc := range []float64{0.2, 0.4, 0.6, 0.8} {
		for _, L := range []int{1, 2, 3} {
			ix := benchIndex(b, benchMain, unc, L)
			q, err := gen.CycleQuery(rand.New(rand.NewSource(48)), ix.Graph().NumLabels(), 5)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("unc=%.0f%%/L=%d", unc*100, L), func(b *testing.B) {
				ctx := context.Background()
				var st plan.Stats
				for i := 0; i < b.N; i++ {
					// The paper's default pipeline (the zero plan.Space) up to
					// the reduction; the join stops at its first match.
					pl, err := plan.NewPlanner(ix, nil).Plan(ctx, q, plan.Options{Alpha: 0.1})
					if err != nil {
						b.Fatal(err)
					}
					if st, err = plan.NewExecutor(ix).Run(ctx, pl, plan.Exec{}, func(join.Match) bool { return false }); err != nil {
						b.Fatal(err)
					}
				}
				if st.SSContext > 0 {
					b.ReportMetric(log10m(st.SSAfterStructure/st.SSContext), "log10-ST-ratio")
					b.ReportMetric(log10m(st.SSFinal/st.SSContext), "log10-UP-ratio")
				}
			})
		}
	}
}

// BenchmarkFig7gDBLP reproduces Figure 7(g): the five collaboration patterns
// over the DBLP stand-in with correlated edges, α=0.1.
func BenchmarkFig7gDBLP(b *testing.B) {
	benchPatterns(b, "dblp", func() (*entity.Graph, error) {
		d, err := gen.DBLP(gen.DBLPOptions{Authors: benchMain, Seed: 42})
		if err != nil {
			return nil, err
		}
		return entity.Build(d, entity.BuildOptions{})
	}, false)
}

// BenchmarkFig7hIMDB reproduces Figure 7(h): the five co-starring patterns
// over the IMDB stand-in with independent edges, α=0.1.
func BenchmarkFig7hIMDB(b *testing.B) {
	benchPatterns(b, "imdb", func() (*entity.Graph, error) {
		d, err := gen.IMDB(gen.IMDBOptions{Actors: benchMain, Seed: 42})
		if err != nil {
			return nil, err
		}
		return entity.Build(d, entity.BuildOptions{})
	}, true)
}

func benchPatterns(b *testing.B, key string, build func() (*entity.Graph, error), uniform bool) {
	g, err := benchH.NamedGraph(key, build)
	if err != nil {
		b.Fatal(err)
	}
	for _, L := range []int{1, 2, 3} {
		ix, err := benchH.Index(key, g, L, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		for _, pat := range gen.Patterns() {
			q, err := gen.PatternQueryRandomLabels(pat, rand.New(rand.NewSource(49)), g.NumLabels(), uniform)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("L=%d/%s", L, pat), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runMatch(b, ix, q, core.Options{Alpha: 0.1})
				}
			})
		}
	}
}

// BenchmarkSQLBaseline reproduces the Section 6.2.1 SQL comparison: our
// optimized approach vs the relational engine on q(5,7) at α=0.7. The
// relational side runs under a 5-second deadline (the paper's MySQL run
// never finished); a timeout is reported as the metric value -1.
func BenchmarkSQLBaseline(b *testing.B) {
	ix := benchIndex(b, benchMain, 0.2, 3)
	g := ix.Graph()
	q := benchQuery(b, g, 5, 7, 50)

	b.Run("peg-optimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runMatch(b, ix, q, core.Options{Alpha: 0.7})
		}
	})
	b.Run("sqlbase", func(b *testing.B) {
		db := sqlbase.NewDB(g)
		for i := 0; i < b.N; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_, err := db.Query(ctx, q, 0.7)
			cancel()
			if err == context.DeadlineExceeded {
				b.ReportMetric(-1, "timed-out")
			} else if err != nil {
				b.Fatal(err)
			}
		}
	})
}

func log10m(v float64) float64 {
	if v <= 0 {
		return math.Inf(-1)
	}
	return math.Log10(v)
}
