package live

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/pathindex"
	"repro/internal/refgraph"
)

// shapedWriter draws the fixed-shape write traffic of the repository
// benchmark's serve-ingest workload: batches of eight mutations — two new
// references, each with an edge into the corpus, two or three edges between
// corpus references, linkage evidence for the two new references and revised
// evidence for the pair linked one batch earlier. Linkage only pairs
// references the writer added itself, so no batch is ever refused.
type shapedWriter struct {
	rng      *rand.Rand
	labels   int
	baseRefs int
	nextRef  refgraph.RefID
	prev     []refgraph.RefID
}

func newShapedWriter(seed int64, d *refgraph.PGD) *shapedWriter {
	return &shapedWriter{
		rng: rand.New(rand.NewSource(seed)), labels: d.Alphabet().Len(),
		baseRefs: d.NumRefs(), nextRef: refgraph.RefID(d.NumRefs()),
	}
}

func (s *shapedWriter) existing() refgraph.RefID { return refgraph.RefID(s.rng.Intn(s.baseRefs)) }

func (s *shapedWriter) addRef() (Mutation, refgraph.RefID) {
	m := Mutation{Op: OpAddRef, Labels: []LabelP{{Label: fmt.Sprintf("l%d", s.rng.Intn(s.labels)), P: 1}}}
	id := s.nextRef
	s.nextRef++
	return m, id
}

func (s *shapedWriter) addEdge(a, b refgraph.RefID) Mutation {
	return Mutation{Op: OpAddEdge, A: a, B: b, P: 0.5 + 0.5*s.rng.Float64()}
}

func (s *shapedWriter) corpusEdge() Mutation {
	a, b := s.existing(), s.existing()
	for b == a {
		b = s.existing()
	}
	return s.addEdge(a, b)
}

func (s *shapedWriter) batch() []Mutation {
	ref1, r1 := s.addRef()
	ref2, r2 := s.addRef()
	ms := []Mutation{
		ref1, s.addEdge(r1, s.existing()),
		ref2, s.addEdge(r2, s.existing()),
		s.corpusEdge(),
		s.corpusEdge(),
		{Op: OpSetLinkage, Members: []refgraph.RefID{r1, r2}, P: 0.45 + 0.45*s.rng.Float64()},
	}
	if s.prev != nil {
		ms = append(ms, Mutation{Op: OpSetLinkage, Members: s.prev, P: 0.45 + 0.45*s.rng.Float64()})
	} else {
		ms = append(ms, s.corpusEdge())
	}
	s.prev = []refgraph.RefID{r1, r2}
	return ms
}

// shapedDB creates a database over a Refs-reference synthetic corpus with
// the repository benchmark's index parameters and folds in the given number
// of shaped batches.
func shapedDB(tb testing.TB, refs, batches int) (*DB, *shapedWriter) {
	tb.Helper()
	d, err := gen.Synthetic(gen.SynthOptions{Refs: refs, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	db, err := Create(context.Background(), tb.TempDir(), d, Options{
		Index:        pathindex.Options{MaxLen: 2, Beta: 0.5, Gamma: 0.1},
		CompactEvery: -1, CompactDirtyFrac: -1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	w := newShapedWriter(11, d)
	for i := 0; i < batches; i++ {
		if _, err := db.Apply(w.batch()); err != nil {
			db.Close()
			tb.Fatal(err)
		}
	}
	return db, w
}

// BenchmarkApplyBatch times one 8-mutation batch against a 2 000-reference
// database that already carries 8, 128 or 512 uncompacted mutations: a
// batch stores no paths, so ns/batch and B/batch stay near level across
// the three (what still grows is the copy of the dirty set); with a
// per-batch rebuild they grow with the history. The
// database is recreated every four iterations so the carried history stays
// within 32 mutations of the nominal one.
func BenchmarkApplyBatch(b *testing.B) {
	for _, folded := range []int{8, 128, 512} {
		b.Run(fmt.Sprintf("folded=%d", folded), func(b *testing.B) {
			var (
				db *DB
				w  *shapedWriter
				ms runtime.MemStats
			)
			defer func() {
				if db != nil {
					db.Close()
				}
			}()
			var bytes uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if i%4 == 0 {
					if db != nil {
						db.Close()
					}
					db, w = shapedDB(b, 2000, folded/8)
				}
				batch := w.batch()
				runtime.ReadMemStats(&ms)
				before := ms.TotalAlloc
				b.StartTimer()
				if _, err := db.Apply(batch); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				bytes += ms.TotalAlloc - before
				b.StartTimer()
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "B/batch")
		})
	}
}
