package pathindex

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/prob"
)

func benchLookupIndex(b *testing.B) (*Index, [][]prob.LabelID) {
	b.Helper()
	d, err := gen.Synthetic(gen.SynthOptions{Refs: 400, EdgeFactor: 3, Labels: 5, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Build(context.Background(), g, Options{
		MaxLen: 2, Beta: 0.05, Gamma: 0.1, Dir: b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ix.Close() })
	seqs := ix.Sequences()
	if len(seqs) == 0 {
		b.Fatal("empty index")
	}
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(seqs), func(i, j int) { seqs[i], seqs[j] = seqs[j], seqs[i] })
	if len(seqs) > 64 {
		seqs = seqs[:64]
	}
	return ix, seqs
}

// BenchmarkLookupParallel measures the raw concurrent probe throughput of
// the sharded read path: many goroutines scanning one shared index with no
// coordination. Run with -cpu=1,8.
func BenchmarkLookupParallel(b *testing.B) {
	ix, seqs := benchLookupIndex(b)
	var si atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			X := seqs[si.Add(1)%uint64(len(seqs))]
			if _, err := ix.Lookup(X, 0.1); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
