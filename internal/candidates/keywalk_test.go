package candidates

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/decompose"
	"repro/internal/entity"
	"repro/internal/gen"
)

// TestRootWalksAreFind: the root walks of a path — KeyWalks.Rows with the
// key (position 0, v) for every v of its Roots, in ascending id,
// concatenated — are Find's set of the path. On a packed index below β they
// are its rows in its order, id for id, since both are the on-demand walk
// from the same roots under the same filter and keepCandidate; at α ≥ β,
// where Find reads postings, and on a live view with a dirty overlay, they
// are the same rows, in ascending order of their ids position by position.
func TestRootWalksAreFind(t *testing.T) {
	ctx := context.Background()
	exact, rows := 0, 0
	for _, seed := range []int64{1, 2} {
		for kind, ix := range arenaReaders(t, seed) {
			rng := rand.New(rand.NewSource(seed * 17))
			for qi := 0; qi < 3; qi++ {
				q, err := gen.RandomQuery(rng, ix.Graph().NumLabels(), 4, 4)
				if err != nil {
					t.Fatal(err)
				}
				for _, alpha := range []float64{0.02, 0.1} { // β = 0.05 lies between
					dec, err := decompose.Decompose(q, ix, decompose.Options{MaxLen: 2, Alpha: alpha})
					if err != nil {
						t.Fatal(err)
					}
					sets, _, err := Find(ctx, ix, q, dec, alpha, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					kw := NewKeyWalks(ix, q, dec, alpha)
					for i := range sets {
						at := fmt.Sprintf("seed %d %s q%d α=%v path %d", seed, kind, qi, alpha, i)
						var walked []entity.ID
						for word, set := range kw.Roots(i) {
							for ; set != 0; set &= set - 1 {
								v := entity.ID(word*64 + bits.TrailingZeros64(set))
								walked = kw.Rows(walked, i, []int32{0}, []entity.ID{v})
							}
						}
						w := len(dec.Paths[i].Nodes)
						sorted := slices.Clone(sets[i].Nodes)
						sortIDs(sorted, w)
						if !slices.Equal(walked, sorted) {
							t.Fatalf("%s: the root walks keep %d rows, not Find's %d in id order", at, len(walked)/w, sets[i].Len())
						}
						if kind == "packed" && alpha < ix.Beta() {
							if !slices.Equal(walked, sets[i].Nodes) {
								t.Fatalf("%s: the root walks keep Find's rows in another order", at)
							}
							exact++
						}
						rows += len(walked) / w
					}
				}
			}
		}
	}
	t.Logf("%d paths compared row for row, %d rows", exact, rows)
	if exact == 0 || rows < 1000 {
		t.Fatalf("%d paths compared row for row, %d rows: too few", exact, rows)
	}
}

// sortIDs sorts the rows of w ids each in nodes, in place, by their ids.
func sortIDs(nodes []entity.ID, w int) { sort.Sort(&rowOrder{nodes: nodes, w: w}) }
