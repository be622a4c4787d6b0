package live

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
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

// overlayRows lists an overlay's live rows per label sequence, each as its
// nodes and the bit patterns of its two probabilities, sorted.
func overlayRows(ov *overlay) map[seqKey][]string {
	out := make(map[seqKey][]string)
	if ov == nil {
		return out
	}
	for k, r := range ov.entries {
		var rows []string
		for i := 0; i < r.len(); i++ {
			if r.isDead(i) {
				continue
			}
			var b []byte
			for _, v := range r.row(i) {
				b = strconv.AppendInt(append(b, ' '), int64(v), 10)
			}
			b = strconv.AppendUint(append(b, ' '), math.Float64bits(r.prle[i]), 16)
			b = strconv.AppendUint(append(b, ' '), math.Float64bits(r.prn[i]), 16)
			rows = append(rows, string(b))
		}
		sort.Strings(rows)
		out[k] = rows
	}
	return out
}

func (k seqKey) seq() []prob.LabelID {
	X := make([]prob.LabelID, k.n)
	for i := range X {
		X[i] = prob.LabelID(k.labels[i])
	}
	return X
}

// sameRows holds one overlay's rows (overlayRows) to another's: the same
// label sequences, per sequence the same multiset of (nodes, Prle bits, Prn
// bits).
func sameRows(t *testing.T, label string, got, want map[seqKey][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d label sequences, want %d", label, len(got), len(want))
	}
	for k, w := range want {
		if !slices.Equal(got[k], w) {
			t.Fatalf("%s: sequence %v holds\n%v\nwant\n%v", label, k.seq(), got[k], w)
		}
	}
}

// sameCounts holds got's count, and its cardinality for every label sequence
// of want at thresholds on both sides of β, to want's.
func sameCounts(t *testing.T, label string, got, want *overlay) {
	t.Helper()
	if got.count != want.count {
		t.Fatalf("%s: count %d, want %d", label, got.count, want.count)
	}
	for k := range want.entries {
		for _, alpha := range []float64{testBeta / 2, testBeta, 0.2, 0.6} {
			if g, w := got.cardinality(k.seq(), alpha), want.cardinality(k.seq(), alpha); g != w {
				t.Fatalf("%s: cardinality(%v, %v) = %v, want %v", label, k.seq(), alpha, g, w)
			}
		}
	}
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

// TestExtendEqualsRebuild is the overlay-maintenance property: over long
// random mutation sequences — default and dense linkage, both identity
// semantics, with a compaction that mutations arrive during and a
// close/Open in the middle — the overlay every Apply installs equals
// extend(nil, …) on the same graph and cumulative dirty set row for row and
// bit for bit, View.Scan equals a from-scratch index over the mutated PGD for
// every label sequence on both sides of β, a label sequence the batch's
// entities carry no path of keeps the previous view's arena, and extending
// one overlay twice corrupts neither result.
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

			var applied, pins, compacted, sharedComponent, rescored int
			// check holds the current view to the references; prev is the
			// overlay it was extended from, nil after a compaction or Open.
			check := func(label string, prev *overlay) {
				t.Helper()
				v := db.View()
				ov := v.ov
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
						}
					}
					if len(X) <= testMaxLen {
						for l := 0; l < v.Graph().NumLabels(); l++ {
							probe(append(X[:len(X):len(X)], prob.LabelID(l)))
						}
					}
				}
				probe(nil)
				if ov == nil {
					return
				}
				nDirty := 0
				for _, dty := range ov.dirty {
					if dty {
						nDirty++
					}
				}
				if nDirty != len(ov.dirtyIDs) || nDirty != v.DirtyEntities() || !slices.IsSorted(ov.dirtyIDs) {
					t.Fatalf("%s: %d dirty flags, %d dirty ids (sorted %v), DirtyEntities %d", label, nDirty, len(ov.dirtyIDs), slices.IsSorted(ov.dirtyIDs), v.DirtyEntities())
				}
				if v.OverlayPaths() != ov.count {
					t.Fatalf("%s: OverlayPaths %d, count %d", label, v.OverlayPaths(), ov.count)
				}
				ref := extend(nil, v.g, ov.dirtyIDs, ov.beta, ov.maxLen)
				refRows := overlayRows(ref)
				sameRows(t, label, overlayRows(ov), refRows)
				sameCounts(t, label, ov, ref)
				for _, id := range ov.dirtyIDs {
					if len(v.g.ComponentOf(id).Members) > 1 {
						sharedComponent++
						break
					}
				}
				if prev == nil {
					return
				}
				if ov.walked != len(ov.fresh) {
					t.Fatalf("%s: %d walk anchors for %d fresh entities", label, ov.walked, len(ov.fresh))
				}
				isFresh := make([]bool, v.g.NumNodes())
				for _, id := range ov.fresh {
					isFresh[id] = true
				}
				touched := func(r *rows) bool {
					for i := 0; r != nil && i < r.len(); i++ {
						if !r.isDead(i) && slices.ContainsFunc(r.row(i), func(id entity.ID) bool { return isFresh[id] }) {
							return true
						}
					}
					return false
				}
				for k, r := range prev.entries {
					nr := ov.entries[k]
					if !touched(r) && !touched(nr) {
						if nr != r {
							t.Fatalf("%s: sequence %v: no path through a fresh entity, yet the arena was replaced", label, k.seq())
						}
						pins++
					}
					if nr != nil && nr.len() < r.len() {
						compacted++
					}
				}
				for _, r := range ov.entries {
					for i := 0; i < r.len(); i++ {
						// A stored path whose first dirty node is not its first
						// fresh node was found from a later anchor and scored again.
						if row := r.row(i); !r.isDead(i) && slices.ContainsFunc(row, func(id entity.ID) bool { return isFresh[id] }) {
							first := slices.IndexFunc(row, func(id entity.ID) bool { return ov.dirty[id] })
							if !isFresh[row[first]] {
								rescored++
							}
						}
					}
				}
				// A second extension of the same predecessor must copy what
				// the first one appended in place, and leave it intact.
				again := extend(prev, v.g, ov.fresh, ov.beta, ov.maxLen)
				sameRows(t, label+" (extended again)", overlayRows(again), refRows)
				sameCounts(t, label+" (extended again)", again, ref)
				sameRows(t, label+" (after extending again)", overlayRows(ov), refRows)
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
					check(fmt.Sprintf("after compaction before batch %d", b), nil)
				case 2 * batches / 3:
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					if db, err = Open(dir, opt); err != nil {
						t.Fatalf("Open: %v", err)
					}
					check(fmt.Sprintf("after reopening before batch %d", b), nil)
				}
				prev := db.View().ov
				if _, err := db.Apply(randomBatch(rng, db.PGDSnapshot())); err != nil {
					continue // e.g. a linkage chain over the component budget; the database is untouched
				}
				applied++
				check(fmt.Sprintf("batch %d", b), prev)
			}
			t.Logf("%d of %d batches applied; %d arenas pinned shared, %d compacted, %d views with a dirty multi-member component, %d rows scored from an earlier dirty node",
				applied, batches, pins, compacted, sharedComponent, rescored)
			if applied < batches*3/4 {
				t.Errorf("only %d of %d batches applied", applied, batches)
			}
			if pins == 0 || rescored == 0 {
				t.Errorf("%d shared-arena pins and %d rescored rows: the sequence exercised too little", pins, rescored)
			}
			if tc.synth.Groups > 0 && sharedComponent == 0 {
				t.Error("dense linkage never dirtied a multi-member component")
			}
		})
	}
}

// TestWalkScoresInDiscoveryOrder pins what the overlay stores and streams as
// a path's two probabilities, on both sides of β: Prn is entity.Graph.Prn of
// the nodes in the order first dirty node, nodes leftwards of it, nodes
// rightwards of it; Prle multiplies that node's label factor and then one
// edge and one label factor per node in the same order.
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
			ov := db.View().ov
			g := ov.g
			var probe func(X []prob.LabelID)
			probe = func(X []prob.LabelID) {
				for _, alpha := range []float64{0.02, testBeta} {
					if len(X) == 0 {
						break
					}
					ov.scan(X, alpha, func(nodes []entity.ID, prle, prn float64) bool {
						at := slices.IndexFunc(nodes, func(id entity.ID) bool { return ov.dirty[id] })
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
// mutations folded in before it. On a fixed-shape write sequence every Apply
// anchors exactly one walk per entity its own batch dirtied — while the
// cumulative dirty set grows past any batch's — and the bytes the fiftieth
// batch allocates stay within twice the fifth's (a per-batch overlay rebuild
// allocates five times as much by then; rewriting every touched label
// sequence, more than twice).
func TestApplyCostIsPerBatch(t *testing.T) {
	db, w := shapedDB(t, 1000, 0)
	defer db.Close()
	bytes := make([]uint64, 52)
	mostWalked := 0
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
		ov := db.View().ov
		if ov.walked != len(ov.fresh) {
			t.Fatalf("batch %d: %d walk anchors, the batch dirtied %d entities", b, ov.walked, len(ov.fresh))
		}
		// A mutation dirties the entities holding its one or two references.
		if ov.walked == 0 || ov.walked > 4*len(batch) {
			t.Fatalf("batch %d of %d mutations anchored %d walks", b, len(batch), ov.walked)
		}
		mostWalked = max(mostWalked, ov.walked)
		if b == len(bytes)-1 && res.DirtyEntities < 4*mostWalked {
			t.Fatalf("after %d batches only %d entities are dirty (a batch dirties up to %d): the history is too short to tell per-batch from cumulative", b, res.DirtyEntities, mostWalked)
		}
	}
	median3 := func(b int) uint64 {
		s := []uint64{bytes[b-1], bytes[b], bytes[b+1]}
		slices.Sort(s)
		return s[1]
	}
	early, late := median3(5), median3(50)
	t.Logf("bytes allocated per Apply: batch 5 %d, batch 50 %d (ratio %.2f); at most %d walk anchors per batch, %d dirty entities at the end",
		early, late, float64(late)/float64(early), mostWalked, db.View().DirtyEntities())
	if late > 2*early {
		t.Errorf("batch 50 allocates %d bytes, batch 5 %d: more than twice", late, early)
	}
}
