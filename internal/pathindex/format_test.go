package pathindex

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/prob"
	"repro/internal/storage/packedix"
)

// assertReadersBitwiseEqual drives the full read surface of two indexes —
// every stored sequence in both orientations, a grid of α values spanning
// on-demand, in-range, and above-top-bucket cases, cardinality estimates,
// and the context tables — and requires bitwise agreement: same match
// order, same node sequences, same Prle/Prn bits, same estimate bits.
func assertReadersBitwiseEqual(t *testing.T, a, b *Index, g *entity.Graph) {
	t.Helper()
	seqsA, seqsB := a.Sequences(), b.Sequences()
	if !reflect.DeepEqual(seqsA, seqsB) {
		t.Fatalf("sequence sets differ: %d vs %d", len(seqsA), len(seqsB))
	}
	if a.Stats().Entries != b.Stats().Entries {
		t.Fatalf("entry counts differ: %d vs %d", a.Stats().Entries, b.Stats().Entries)
	}
	alphas := []float64{0.01, a.Beta(), a.Beta() + 1e-9, 0.1, 0.15, 0.31, 0.5, 0.77, 0.99, 1.0}
	probe := func(X []prob.LabelID) {
		for _, alpha := range alphas {
			ma, errA := a.Lookup(X, alpha)
			mb, errB := b.Lookup(X, alpha)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("X=%v α=%v: error mismatch: %v vs %v", X, alpha, errA, errB)
			}
			if len(ma) != len(mb) {
				t.Fatalf("X=%v α=%v: %d vs %d matches", X, alpha, len(ma), len(mb))
			}
			for i := range ma {
				if !reflect.DeepEqual(ma[i].Nodes, mb[i].Nodes) || !sameBits(ma[i], mb[i]) {
					t.Fatalf("X=%v α=%v match %d: %+v vs %+v", X, alpha, i, ma[i], mb[i])
				}
			}
			ca, cb := a.Cardinality(X, alpha), b.Cardinality(X, alpha)
			if math.Float64bits(ca) != math.Float64bits(cb) {
				t.Fatalf("X=%v α=%v: cardinality %v vs %v", X, alpha, ca, cb)
			}
		}
	}
	for _, X := range seqsA {
		probe(X)
		probe(reverseLabels(X)) // the reversed orientation exercises canonicalization
	}
	probe([]prob.LabelID{0, 0}) // palindromic, possibly absent
	assertContextsBitwiseEqual(t, a.Context(), b.Context(), g)
}

// reverseLabels returns the reversed copy of a label sequence.
func reverseLabels(labels []prob.LabelID) []prob.LabelID {
	out := make([]prob.LabelID, len(labels))
	for i, l := range labels {
		out[len(labels)-1-i] = l
	}
	return out
}

func assertContextsBitwiseEqual(t *testing.T, a, b *Context, g *entity.Graph) {
	t.Helper()
	for v := 0; v < g.NumNodes(); v++ {
		for s := 0; s < g.NumLabels(); s++ {
			id, sig := entity.ID(v), prob.LabelID(s)
			if a.Card(id, sig) != b.Card(id, sig) ||
				math.Float64bits(a.PPU(id, sig)) != math.Float64bits(b.PPU(id, sig)) ||
				math.Float64bits(a.FPU(id, sig)) != math.Float64bits(b.FPU(id, sig)) {
				t.Fatalf("context (%d,%d) differs", v, s)
			}
		}
	}
}

func syntheticGraph(t *testing.T, seed int64) *entity.Graph {
	t.Helper()
	d, err := gen.Synthetic(gen.SynthOptions{
		Refs: 40, EdgeFactor: 2, Labels: 4, UncertainFrac: 0.4,
		Groups: 3, GroupSize: 3, PairsPerGroup: 2, Seed: seed,
	})
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatalf("entity.Build: %v", err)
	}
	return g
}

// TestFormatEquivalence holds packed.idx to being the whole of the index:
// the index a single-worker build hands back (context tables in memory) and
// the file a seven-worker build writes, reopened from disk, are the same
// bytes and indistinguishable through the Reader interface, bit for bit.
func TestFormatEquivalence(t *testing.T) {
	check := func(t *testing.T, g *entity.Graph, opt Options) {
		opt.Workers, opt.Dir = 1, t.TempDir()
		built := buildIndex(t, g, opt)
		other := opt
		other.Workers, other.Dir = 7, t.TempDir()
		buildIndex(t, g, other).Close()
		a, err := os.ReadFile(filepath.Join(opt.Dir, packedix.FileName))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(other.Dir, packedix.FileName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("packed.idx differs between Workers 1 (%d bytes) and 7 (%d bytes)", len(a), len(b))
		}
		reopened, err := Open(other.Dir, g)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		t.Cleanup(func() { reopened.Close() })
		assertReadersBitwiseEqual(t, built, reopened, g)
	}
	t.Run("motivating", func(t *testing.T) {
		check(t, motivating(t), Options{MaxLen: 2, Beta: 0.02, Gamma: 0.1})
	})
	for _, seed := range []int64{1, 2, 3} {
		t.Run("synthetic", func(t *testing.T) {
			check(t, syntheticGraph(t, seed), Options{MaxLen: 3, Beta: 0.05, Gamma: 0.1})
		})
	}
}
