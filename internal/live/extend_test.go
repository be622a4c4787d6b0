package live

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/pathindex"
	"repro/internal/prob"
	"repro/internal/refgraph"
)

// randomBatch draws 1–8 mutations against d: a new reference with an edge to
// an existing one, an edge between existing references (either kind with or
// without a symmetric CPT), revised evidence for an existing set, or linkage
// of a fresh nearby pair.
func randomBatch(rng *rand.Rand, d *refgraph.PGD) []Mutation {
	nl := d.Alphabet().Len()
	existing := func() refgraph.RefID { return refgraph.RefID(rng.Intn(d.NumRefs())) }
	edge := func(a, b refgraph.RefID) Mutation {
		m := Mutation{Op: OpAddEdge, A: a, B: b, P: 0.3 + 0.7*rng.Float64()}
		if rng.Intn(3) == 0 {
			m.CPT = make([]float64, nl*nl)
			for i := 0; i < nl; i++ {
				for j := i; j < nl; j++ {
					p := 0.2 + 0.8*rng.Float64()
					m.CPT[i*nl+j], m.CPT[j*nl+i] = p, p
				}
			}
		}
		return m
	}
	n, added := 1+rng.Intn(8), 0
	var ms []Mutation
	for len(ms) < n {
		switch c := rng.Intn(8); {
		case c < 2:
			ms = append(ms, randomMutation(rng, d))
			if ms[len(ms)-1].Op != OpAddRef {
				continue
			}
			ms = append(ms, edge(refgraph.RefID(d.NumRefs()+added), existing()))
			added++
		case c < 4:
			a, b := existing(), existing()
			for b == a {
				b = existing()
			}
			ms = append(ms, edge(a, b))
		case c < 7 && d.NumSets() > 0:
			s := d.Set(refgraph.SetID(rng.Intn(d.NumSets())))
			ms = append(ms, Mutation{Op: OpSetLinkage, Members: s.Members, P: rng.Float64()})
		default:
			// Few of these: every one grows an identity component, and
			// enumerating a large one dominates the rebuilt reference.
			a := existing()
			b := (a + 1 + refgraph.RefID(rng.Intn(3))) % refgraph.RefID(d.NumRefs())
			ms = append(ms, Mutation{Op: OpSetLinkage, Members: []refgraph.RefID{a, b}, P: 0.2 + 0.6*rng.Float64()})
		}
	}
	return ms
}

// scanByRefs collects r.Scan(X, α) keyed by the reference sets of the path's
// nodes (entity ids differ between a live graph and a rebuild).
func scanByRefs(t *testing.T, r pathindex.Reader, X []prob.LabelID, alpha float64) map[string][2]float64 {
	t.Helper()
	out := make(map[string][2]float64)
	g := r.Graph()
	if err := r.Scan(X, alpha, func(nodes []entity.ID, prle, prn float64) bool {
		var b []byte
		for _, v := range nodes {
			for _, r := range g.Refs(v) {
				b = strconv.AppendInt(append(b, ' '), int64(r), 10)
			}
			b = append(b, ';')
		}
		key := string(b)
		if _, dup := out[key]; dup {
			t.Fatalf("Scan(%v, %v) streamed %s twice", X, alpha, key)
		}
		out[key] = [2]float64{prle, prn}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestExtendEqualsRebuild is the dirty-set property: over long random
// mutation sequences — default and dense linkage, both identity semantics,
// with a compaction that mutations arrive during and a close/Open in the
// middle — the view every Apply publishes streams from View.Scan what a
// from-scratch index over the mutated PGD holds, for every label sequence
// at α on both sides of β, and its dirty set is consistent: as many flags
// as ids, the ids ascending, DirtyEntities their count.
func TestExtendEqualsRebuild(t *testing.T) {
	batches := 60
	if testing.Short() {
		batches = 24
	}
	for _, tc := range []struct {
		name  string
		synth gen.SynthOptions
		sem   entity.Semantics
	}{
		{"default-linkage-factor", gen.SynthOptions{Refs: 90, EdgeFactor: 2, Labels: 3, UncertainFrac: 0.4, Seed: 21}, entity.SemanticsFactor},
		{"dense-linkage", gen.SynthOptions{Refs: 90, EdgeFactor: 2, Labels: 3, UncertainFrac: 0.4, Groups: 8, GroupSize: 4, PairsPerGroup: 3, Seed: 22}, entity.SemanticsExample},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := gen.Synthetic(tc.synth)
			if err != nil {
				t.Fatal(err)
			}
			opt := testOptions()
			opt.Build.Semantics = tc.sem
			dir := t.TempDir()
			db, err := Create(context.Background(), dir, d, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { db.Close() }()

			var applied, sharedComponent, dirtyPaths int
			// check holds the current view to the rebuilt index.
			check := func(label string) {
				t.Helper()
				v := db.View()
				oracle := rebuildIndex(t, db.PGDSnapshot(), opt.Build)
				var probe func(X []prob.LabelID)
				probe = func(X []prob.LabelID) {
					if len(X) > 0 {
						for _, alpha := range []float64{0.02, 0.3} {
							got, want := scanByRefs(t, v, X, alpha), scanByRefs(t, oracle, X, alpha)
							if len(got) != len(want) {
								t.Fatalf("%s: Scan(%v, %v) streams %d paths, rebuild %d", label, X, alpha, len(got), len(want))
							}
							for k, w := range want {
								if g, ok := got[k]; !ok || math.Abs(g[0]-w[0]) > 1e-9 || math.Abs(g[1]-w[1]) > 1e-9 {
									t.Fatalf("%s: Scan(%v, %v) path %s = %v (present %v), rebuild %v", label, X, alpha, k, g, ok, w)
								}
							}
							if v.dirty != nil {
								v.Scan(X, alpha, func(nodes []entity.ID, _, _ float64) bool {
									if slices.ContainsFunc(nodes, func(id entity.ID) bool { return v.dirty[id] }) {
										dirtyPaths++
									}
									return true
								})
							}
						}
					}
					if len(X) <= testMaxLen {
						for l := 0; l < v.Graph().NumLabels(); l++ {
							probe(append(X[:len(X):len(X)], prob.LabelID(l)))
						}
					}
				}
				probe(nil)
				if v.dirty == nil {
					return
				}
				nDirty := 0
				for _, dty := range v.dirty {
					if dty {
						nDirty++
					}
				}
				if nDirty != len(v.dirtyIDs) || nDirty != v.DirtyEntities() || !slices.IsSorted(v.dirtyIDs) {
					t.Fatalf("%s: %d dirty flags, %d dirty ids (sorted %v), DirtyEntities %d", label, nDirty, len(v.dirtyIDs), slices.IsSorted(v.dirtyIDs), v.DirtyEntities())
				}
				for _, id := range v.dirtyIDs {
					if len(v.g.ComponentOf(id).Members) > 1 {
						sharedComponent++
						break
					}
				}
			}

			rng := rand.New(rand.NewSource(tc.synth.Seed * 13))
			var (
				clone      *refgraph.PGD
				compactGen uint64
			)
			for b := 0; b < batches; b++ {
				switch b {
				case batches / 3:
					// A compaction snapshots here; the next batches arrive
					// while it "builds" and are replayed onto its result.
					db.mu.Lock()
					clone, compactGen = db.startCompactionLocked()
					db.wg.Add(1)
					db.mu.Unlock()
				case batches/3 + 3:
					err := db.compactFrom(context.Background(), clone, compactGen)
					db.wg.Done()
					if err != nil {
						t.Fatalf("compaction: %v", err)
					}
					check(fmt.Sprintf("after compaction before batch %d", b))
				case 2 * batches / 3:
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					if db, err = Open(dir, opt); err != nil {
						t.Fatalf("Open: %v", err)
					}
					check(fmt.Sprintf("after reopening before batch %d", b))
				}
				if _, err := db.Apply(randomBatch(rng, db.PGDSnapshot())); err != nil {
					continue // e.g. a linkage chain over the component budget; the database is untouched
				}
				applied++
				check(fmt.Sprintf("batch %d", b))
			}
			t.Logf("%d of %d batches applied; %d paths through a dirty entity streamed, %d views with a dirty multi-member component",
				applied, batches, dirtyPaths, sharedComponent)
			if applied < batches*3/4 {
				t.Errorf("only %d of %d batches applied", applied, batches)
			}
			if dirtyPaths == 0 {
				t.Error("no streamed path went through a dirty entity: the sequence exercised too little")
			}
			if tc.synth.Groups > 0 && sharedComponent == 0 {
				t.Error("dense linkage never dirtied a multi-member component")
			}
		})
	}
}

// TestWalkScoresInDiscoveryOrder pins what a view streams as the two
// probabilities of a path through a dirty entity, on both sides of β: Prn
// is entity.Graph.Prn of the nodes in the order first dirty node, nodes
// leftwards of it, nodes rightwards of it; Prle multiplies that node's
// label factor and then one edge and one label factor per node in the same
// order.
func TestWalkScoresInDiscoveryOrder(t *testing.T) {
	checked := 0
	for _, sem := range []entity.Semantics{entity.SemanticsExample, entity.SemanticsFactor} {
		d, err := gen.Synthetic(gen.SynthOptions{Refs: 40, EdgeFactor: 2, Labels: 3, UncertainFrac: 0.4, Groups: 5, GroupSize: 4, PairsPerGroup: 3, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		opt := testOptions()
		opt.Build.Semantics = sem
		db := createDB(t, d, opt)
		rng := rand.New(rand.NewSource(5))
		for b := 0; b < 12; b++ {
			if _, err := db.Apply(randomBatch(rng, db.PGDSnapshot())); err != nil {
				continue
			}
			v := db.View()
			g := v.Graph()
			var probe func(X []prob.LabelID)
			probe = func(X []prob.LabelID) {
				for _, alpha := range []float64{0.02, testBeta} {
					if len(X) == 0 {
						break
					}
					v.Scan(X, alpha, func(nodes []entity.ID, prle, prn float64) bool {
						at := slices.IndexFunc(nodes, func(id entity.ID) bool { return v.dirty[id] })
						if at < 0 {
							return true // a base entry, scored in its canonical orientation
						}
						wantPrle, wantPrn, _ := scoreFromDirty(g, nodes, X, at)
						if math.Float64bits(prn) != math.Float64bits(wantPrn) || math.Float64bits(prle) != math.Float64bits(wantPrle) {
							t.Fatalf("semantics %d batch %d: path %v labelled %v at α=%v scores (%v, %v), want (%v, %v)",
								sem, b, nodes, X, alpha, prle, prn, wantPrle, wantPrn)
						}
						checked++
						return true
					})
				}
				if len(X) <= testMaxLen {
					for l := 0; l < g.NumLabels(); l++ {
						probe(append(X[:len(X):len(X)], prob.LabelID(l)))
					}
				}
			}
			probe(nil)
		}
	}
	if checked < 1000 {
		t.Errorf("only %d paths checked", checked)
	}
}

// TestApplyCostIsPerBatch: what an Apply pays follows the batch, not the
// mutations folded in before it. On a fixed-shape write sequence, while the
// dirty set grows past what any one batch adds to it, the bytes the
// fiftieth batch allocates stay within 1.5 times the fifth's (a per-batch
// rebuild of what the dirty set reaches allocates five times as much by
// then; copying the dirty set and its flags, as every batch does, reads
// 1.19 on this sequence).
func TestApplyCostIsPerBatch(t *testing.T) {
	db, w := shapedDB(t, 1000, 0)
	defer db.Close()
	bytes := make([]uint64, 52)
	mostGrown, dirty := 0, 0
	for b := 1; b < len(bytes); b++ {
		batch := w.batch()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := db.Apply(batch)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytes[b] = after.TotalAlloc - before.TotalAlloc
		mostGrown, dirty = max(mostGrown, res.DirtyEntities-dirty), res.DirtyEntities
	}
	if dirty < 4*mostGrown {
		t.Fatalf("after %d batches only %d entities are dirty (a batch adds up to %d): the history is too short to tell per-batch from cumulative", len(bytes)-1, dirty, mostGrown)
	}
	median3 := func(b int) uint64 {
		s := []uint64{bytes[b-1], bytes[b], bytes[b+1]}
		slices.Sort(s)
		return s[1]
	}
	early, late := median3(5), median3(50)
	t.Logf("bytes allocated per Apply: batch 5 %d, batch 50 %d (ratio %.2f); a batch adds at most %d dirty entities, %d at the end",
		early, late, float64(late)/float64(early), mostGrown, dirty)
	if 2*late > 3*early {
		t.Errorf("batch 50 allocates %d bytes, batch 5 %d: more than 1.5 times", late, early)
	}
}
