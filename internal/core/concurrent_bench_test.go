package core_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/pathindex"
	"repro/internal/query"
)

func benchIndex(b *testing.B) (*pathindex.Index, []*query.Query) {
	b.Helper()
	d, err := gen.Synthetic(gen.SynthOptions{Refs: 400, EdgeFactor: 3, Labels: 5, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := pathindex.Build(context.Background(), g, pathindex.Options{
		MaxLen: 2, Beta: 0.05, Gamma: 0.1, Dir: filepath.Join(b.TempDir(), "ix"),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ix.Close() })
	rng := rand.New(rand.NewSource(9))
	var qs []*query.Query
	for i := 0; i < 8; i++ {
		q, err := gen.RandomQuery(rng, g.NumLabels(), 3, 3)
		if err != nil {
			b.Fatal(err)
		}
		qs = append(qs, q)
	}
	return ix, qs
}

// BenchmarkMatchParallel measures aggregate match throughput with many
// goroutines sharing one opened index — the serving scenario behind
// cmd/pegserve. Run with -cpu=1,8 to see the scaling of the lock-free read
// path.
func BenchmarkMatchParallel(b *testing.B) {
	ix, qs := benchIndex(b)
	var qi atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := qs[qi.Add(1)%uint64(len(qs))]
			if _, err := core.Match(context.Background(), ix, q, core.Options{
				Alpha: 0.1, Workers: 1,
			}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
