package live

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/entity"
	"repro/internal/pathindex"
	"repro/internal/prob"
)

// lookupBeforeScan is View.Lookup as it stood before Scan existed, the
// reference the streamed merge is held to: the base index's matches
// (materialized) minus those touching a dirty entity, then the overlay's —
// stored entries at or above β, a materializing on-demand walk below.
func lookupBeforeScan(v *View, X []prob.LabelID, alpha float64) ([]pathindex.PathMatch, error) {
	bm, err := v.base.Lookup(X, alpha)
	if err != nil || v.ov == nil {
		return bm, err
	}
	var out []pathindex.PathMatch
	for _, m := range bm {
		clean := true
		for _, n := range m.Nodes {
			if v.ov.dirty[n] {
				clean = false
				break
			}
		}
		if clean {
			out = append(out, m)
		}
	}
	ov := v.ov
	if len(X) == 0 || len(X) > ov.maxLen+1 {
		return out, nil
	}
	if alpha >= ov.beta {
		if r := ov.entries[makeKey(X)]; r != nil {
			for i := 0; i < r.len(); i++ {
				if m := (pathindex.PathMatch{Nodes: r.row(i), Prle: r.prle[i], Prn: r.prn[i]}); !r.isDead(i) && m.Pr()+eps >= alpha {
					out = append(out, m)
				}
			}
		}
		return out, nil
	}
	w := &walk{
		g: ov.g, anchorSet: ov.dirty, dirty: ov.dirty, thresh: alpha, max: len(X), guide: X,
		emit: func(nodes []entity.ID, _ []prob.LabelID, prle, prn float64) {
			out = append(out, pathindex.PathMatch{Nodes: append([]entity.ID(nil), nodes...), Prle: prle, Prn: prn})
		},
	}
	for u, d := range ov.dirty {
		if d {
			w.anchor(entity.ID(u))
		}
	}
	return out, nil
}

// TestViewScanEqualsLookupBeforeScan is the live half of the pre-join
// equivalence property: on views carrying a dirty overlay, with α on both
// sides of β, View.Scan's record stream and View.Lookup equal the
// pre-change Lookup in order, nodes and float bits — and a scan stopped
// inside the base half never reaches the overlay.
func TestViewScanEqualsLookupBeforeScan(t *testing.T) {
	for _, seed := range []int64{6, 7} {
		db := createDB(t, basePGD(t, seed), testOptions())
		rng := rand.New(rand.NewSource(seed * 29))
		for applied := 0; applied < 2; {
			var ms []Mutation
			for len(ms) < 5 {
				ms = append(ms, randomMutation(rng, db.PGDSnapshot()))
			}
			if _, err := db.Apply(ms); err == nil {
				applied++
			}
		}
		v := db.View()
		if v.ov == nil || v.DirtyEntities() == 0 {
			t.Fatalf("seed %d: view carries no overlay", seed)
		}
		fromBase, fromOverlay := 0, 0
		var probe func(X []prob.LabelID)
		probe = func(X []prob.LabelID) {
			if len(X) > 0 {
				for _, alpha := range []float64{0.02, testBeta - 1e-9, testBeta, 0.3, 0.7} {
					label := fmt.Sprintf("seed %d X=%v α=%v", seed, X, alpha)
					want, err := lookupBeforeScan(v, X, alpha)
					if err != nil {
						t.Fatalf("%s: reference: %v", label, err)
					}
					var stream []pathindex.PathMatch
					if err := v.Scan(X, alpha, func(nodes []entity.ID, prle, prn float64) bool {
						stream = append(stream, pathindex.PathMatch{Nodes: append([]entity.ID(nil), nodes...), Prle: prle, Prn: prn})
						return true
					}); err != nil {
						t.Fatalf("%s: Scan: %v", label, err)
					}
					got, err := v.Lookup(X, alpha)
					if err != nil {
						t.Fatalf("%s: Lookup: %v", label, err)
					}
					for name, ms := range map[string][]pathindex.PathMatch{"Scan": stream, "Lookup": got} {
						if len(ms) != len(want) {
							t.Fatalf("%s: %s has %d records, want %d", label, name, len(ms), len(want))
						}
						for i := range ms {
							if !reflect.DeepEqual(ms[i].Nodes, want[i].Nodes) ||
								math.Float64bits(ms[i].Prle) != math.Float64bits(want[i].Prle) ||
								math.Float64bits(ms[i].Prn) != math.Float64bits(want[i].Prn) {
								t.Fatalf("%s: %s record %d: %+v, want %+v", label, name, i, ms[i], want[i])
							}
						}
					}
					for _, m := range want {
						touchesDirty := false
						for _, n := range m.Nodes {
							touchesDirty = touchesDirty || v.ov.dirty[n]
						}
						if touchesDirty {
							fromOverlay++
						} else {
							fromBase++
						}
					}
					if len(want) > 1 {
						calls := 0
						if err := v.Scan(X, alpha, func([]entity.ID, float64, float64) bool {
							calls++
							return false
						}); err != nil || calls != 1 {
							t.Fatalf("%s: stopped scan made %d calls, err %v", label, calls, err)
						}
					}
				}
			}
			if len(X) == testMaxLen+1 {
				return
			}
			for l := 0; l < v.Graph().NumLabels(); l++ {
				probe(append(X[:len(X):len(X)], prob.LabelID(l)))
			}
		}
		probe(nil)
		if fromBase == 0 || fromOverlay == 0 {
			t.Fatalf("seed %d: %d base and %d overlay records probed; need both", seed, fromBase, fromOverlay)
		}
	}
}
