package live

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/pathindex"
	"repro/internal/prob"
	"repro/internal/refgraph"
)

// sameContext holds every (entity, label) cell of got to a from-scratch
// context of g: cardinalities equal, both upper bounds bit for bit.
func sameContext(t *testing.T, label string, got *pathindex.Context, g *entity.Graph) {
	t.Helper()
	want := pathindex.ComputeContext(g, 1)
	for v := entity.ID(0); int(v) < g.NumNodes(); v++ {
		for s := prob.LabelID(0); int(s) < g.NumLabels(); s++ {
			if got.Card(v, s) != want.Card(v, s) ||
				math.Float64bits(got.PPU(v, s)) != math.Float64bits(want.PPU(v, s)) ||
				math.Float64bits(got.FPU(v, s)) != math.Float64bits(want.FPU(v, s)) {
				t.Fatalf("%s: entity %d label %d: patched (%d, %v, %v), recomputed (%d, %v, %v)", label, v, s,
					got.Card(v, s), got.PPU(v, s), got.FPU(v, s), want.Card(v, s), want.PPU(v, s), want.FPU(v, s))
			}
		}
	}
}

// TestPatchedContextEqualsRecompute: after every batch the live view's
// context tables, patched row by row along the chain, equal a recompute
// over the view's graph. A second patch of the same predecessor (what a
// retried batch makes) gets clipped tables and copies: it must equal the
// recompute too, and leave the first result intact.
func TestPatchedContextEqualsRecompute(t *testing.T) {
	check := func(t *testing.T, db *DB, b int, prev *pathindex.Context) {
		t.Helper()
		v := db.View()
		label := fmt.Sprintf("batch %d", b)
		sameContext(t, label, v.Context(), v.Graph())
		if prev == nil {
			return
		}
		// The view's whole dirty set holds the batch's entities and more,
		// whose rows a patch recomputes to the same values. In reverse
		// order, so that rows written over the first result's would change
		// what it reads.
		dirty := slices.Clone(v.dirtyIDs)
		slices.Reverse(dirty)
		again := prev.Patch(v.Graph(), dirty)
		sameContext(t, label+" (patched again)", again, v.Graph())
		sameContext(t, label+" (after patching again)", v.Context(), v.Graph())
	}

	t.Run("shaped", func(t *testing.T) {
		db, w := shapedDB(t, 1000, 0)
		defer db.Close()
		for b := 0; b < 40; b++ {
			prev := db.View().Context()
			if _, err := db.Apply(w.batch()); err != nil {
				t.Fatal(err)
			}
			check(t, db, b, prev)
		}
	})

	t.Run("dense-linkage-cpt", func(t *testing.T) {
		// The corpus of entity.TestApplyDeltaMatchesFullRebuild: a sizeable
		// share of entities in multi-member components, every seventh
		// reference edge (in key order) label-conditioned.
		d, err := gen.Synthetic(gen.SynthOptions{
			Refs: 300, Groups: 30, GroupSize: 4, PairsPerGroup: 6, UncertainFrac: 0.4, Seed: 12,
		})
		if err != nil {
			t.Fatal(err)
		}
		var keys []refgraph.EdgeKey
		d.Edges(func(k refgraph.EdgeKey, _ refgraph.EdgeDist) bool {
			keys = append(keys, k)
			return true
		})
		slices.SortFunc(keys, func(x, y refgraph.EdgeKey) int {
			return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
		})
		nl := d.Alphabet().Len()
		cptRng := rand.New(rand.NewSource(13))
		for i := 0; i < len(keys); i += 7 {
			e, _ := d.Edge(keys[i].A, keys[i].B)
			e.CPT = make([]float64, nl*nl)
			for a := 0; a < nl; a++ {
				for b := 0; b <= a; b++ {
					p := cptRng.Float64()
					e.CPT[a*nl+b], e.CPT[b*nl+a] = p, p
				}
			}
			if err := d.AddEdge(keys[i].A, keys[i].B, e); err != nil {
				t.Fatal(err)
			}
		}
		db, err := Create(context.Background(), t.TempDir(), d, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		rng := rand.New(rand.NewSource(3))
		applied := 0
		for b := 0; b < 60; b++ {
			prev := db.View().Context()
			if _, err := db.Apply(randomBatch(rng, db.PGDSnapshot())); err != nil {
				continue // e.g. a linkage chain over the component budget; the database is untouched
			}
			applied++
			check(t, db, b, prev)
		}
		if applied < 45 {
			t.Errorf("only %d of 60 batches applied", applied)
		}
	})
}
