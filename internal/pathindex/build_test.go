package pathindex

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/refgraph"
	"repro/internal/storage/packedix"
)

// synthGraph builds the entity graph of a gen.Synthetic corpus.
func synthGraph(t testing.TB, opt gen.SynthOptions) *entity.Graph {
	t.Helper()
	d, err := gen.Synthetic(opt)
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	return entityGraph(t, d)
}

func entityGraph(t testing.TB, d *refgraph.PGD) *entity.Graph {
	t.Helper()
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatalf("entity.Build: %v", err)
	}
	return g
}

// denseLinkageCPTGraph is the entity package's dense-linkage recipe: k, s and
// r raised until a sizeable share of the entities sits in multi-member
// components, and every seventh reference edge (in key order) turned into a
// label-conditioned one.
func denseLinkageCPTGraph(t testing.TB, refs int) *entity.Graph {
	t.Helper()
	d, err := gen.Synthetic(gen.SynthOptions{
		Refs: refs, Groups: refs / 10, GroupSize: 4, PairsPerGroup: 6, UncertainFrac: 0.4, Seed: 12,
	})
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	var keys []refgraph.EdgeKey
	d.Edges(func(k refgraph.EdgeKey, _ refgraph.EdgeDist) bool {
		keys = append(keys, k)
		return true
	})
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].A != keys[j].A {
			return keys[i].A < keys[j].A
		}
		return keys[i].B < keys[j].B
	})
	rng := rand.New(rand.NewSource(13))
	n := d.Alphabet().Len()
	for i := 0; i < len(keys); i += 7 {
		e, _ := d.Edge(keys[i].A, keys[i].B)
		e.CPT = make([]float64, n*n)
		for a := 0; a < n; a++ {
			for b := 0; b <= a; b++ {
				p := rng.Float64()
				e.CPT[a*n+b], e.CPT[b*n+a] = p, p
			}
		}
		if err := d.AddEdge(keys[i].A, keys[i].B, e); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	return entityGraph(t, d)
}

// TestBuildBytesUnchanged pins the SHA-256 of the packed.idx a build writes
// on corpora beyond the golden fixture: the benchmark's serve-ingest corpus,
// a default corpus at L 3 and L 4, and a dense-linkage corpus with
// label-conditioned edges at a low β. Each is built with 1 and 7 workers.
// The hashes were recorded from the level-by-level build the depth-first
// walk replaced, so they hold the walk to writing the same bytes.
func TestBuildBytesUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    func(t testing.TB) *entity.Graph
		opt  Options
		sha  string
	}{
		{"serve-ingest", func(t testing.TB) *entity.Graph { return synthGraph(t, gen.SynthOptions{Refs: 2000, Seed: 3}) },
			Options{MaxLen: 2, Beta: 0.5, Gamma: 0.1}, "1d629cd25fa5316685597310481d671e05dcbdad4afc47c25787156709588105"},
		{"default-L3", func(t testing.TB) *entity.Graph { return synthGraph(t, gen.SynthOptions{Refs: 300, Seed: 5}) },
			Options{MaxLen: 3, Beta: 0.2, Gamma: 0.1}, "da6b5f97111116fefee923fbf1c149844090a590ae132b287668a65b51237ba2"},
		{"default-L4", func(t testing.TB) *entity.Graph { return synthGraph(t, gen.SynthOptions{Refs: 100, Seed: 5}) },
			Options{MaxLen: 4, Beta: 0.5, Gamma: 0.1}, "45234bee6a29666b2133e42df49911d3ed097eee90f428a9b19062422fba2785"},
		{"dense-linkage-cpt-L3", func(t testing.TB) *entity.Graph { return denseLinkageCPTGraph(t, 200) },
			Options{MaxLen: 3, Beta: 0.05, Gamma: 0.1}, "90e4d13d3bdbf8d5099e9c2b16c0a57874350ab7a6280571062a01a4dfbe6ffc"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g(t)
			for _, workers := range []int{1, 7} {
				opt := tc.opt
				opt.Workers, opt.Dir = workers, t.TempDir()
				buildIndex(t, g, opt).Close()
				raw, err := os.ReadFile(filepath.Join(opt.Dir, packedix.FileName))
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(raw)
				if got := hex.EncodeToString(sum[:]); got != tc.sha {
					t.Errorf("Workers %d: sha256(packed.idx) = %s, want %s", workers, got, tc.sha)
				}
			}
		})
	}
}

// TestBuildAllocation pins what building the serve-ingest corpus's index
// allocates: the walk holds one path at a time and the writer keeps only
// the encoded postings, so the build costs a few MiB, not a multiple of the
// file.
func TestBuildAllocation(t *testing.T) {
	g := synthGraph(t, gen.SynthOptions{Refs: 2000, Seed: 3})
	opt := Options{MaxLen: 2, Beta: 0.5, Gamma: 0.1, Dir: t.TempDir()}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix, err := Build(context.Background(), g, opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("Build at 2 000 refs: %.2f MiB in %d objects for a %d-byte packed.idx", float64(bytes)/(1<<20), objects, ix.Stats().Bytes)
	if bytes > 8<<20 || objects > 20000 {
		t.Errorf("Build allocated %d bytes in %d objects, want ≤ 8 MiB and ≤ 20 000", bytes, objects)
	}
}

// BenchmarkBuild times the offline phase on the benchmark's serve-ingest
// (2 000 references) and lib-cyclic-first (8 000) corpora at their L 2,
// β 0.5, γ 0.1, reporting bytes allocated per build.
func BenchmarkBuild(b *testing.B) {
	for _, corpus := range []gen.SynthOptions{{Refs: 2000, Seed: 3}, {Refs: 8000, Seed: 1}} {
		g := synthGraph(b, corpus)
		b.Run(fmt.Sprintf("refs=%d", corpus.Refs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix, err := Build(context.Background(), g, Options{MaxLen: 2, Beta: 0.5, Gamma: 0.1, Dir: b.TempDir()})
				if err != nil {
					b.Fatal(err)
				}
				ix.Close()
			}
		})
	}
}
