package entity

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/gen"
	"repro/internal/prob"
	"repro/internal/refgraph"
)

// defaultLinkagePGD is gen.Synthetic at its default linkage: a handful of
// linked entities among the references, no conditional edge.
func defaultLinkagePGD(t testing.TB, refs int) *refgraph.PGD {
	t.Helper()
	d, err := gen.Synthetic(gen.SynthOptions{Refs: refs, Seed: 11})
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	return d
}

// denseLinkagePGD raises k, s and r until a sizeable share of the entities
// sits in multi-member components, and turns every seventh reference edge
// (in key order) into a label-conditioned one.
func denseLinkagePGD(t testing.TB, refs int) *refgraph.PGD {
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
	for i := 0; i < len(keys); i += 7 {
		e, _ := d.Edge(keys[i].A, keys[i].B)
		e.CPT = randomCPT(rng, d.Alphabet().Len())
		if err := d.AddEdge(keys[i].A, keys[i].B, e); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	return d
}

func randomCPT(rng *rand.Rand, n int) []float64 {
	cpt := make([]float64, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b <= a; b++ {
			p := rng.Float64()
			cpt[a*n+b], cpt[b*n+a] = p, p
		}
	}
	return cpt
}

// applyRandomDelta mutates d in place with one to eight mutations — new
// references (certain and uncertain labels, with and without an edge), plain
// and conditional edges, new and re-weighted reference sets — and returns
// the delta describing them.
func applyRandomDelta(t testing.TB, rng *rand.Rand, d *refgraph.PGD) Delta {
	t.Helper()
	var dl Delta
	addEdge := func(a, b refgraph.RefID) {
		e := refgraph.EdgeDist{P: 0.3 + 0.7*rng.Float64()}
		if rng.Intn(3) == 0 {
			e.CPT = randomCPT(rng, d.Alphabet().Len())
		}
		if err := d.AddEdge(a, b, e); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
		dl.Edges = append(dl.Edges, refgraph.MakeEdgeKey(a, b))
	}
	for i, n := 0, 1+rng.Intn(8); i < n; i++ {
		switch rng.Intn(8) {
		case 0, 1:
			label := prob.Point(prob.LabelID(rng.Intn(d.Alphabet().Len())))
			if rng.Intn(2) == 0 {
				label = prob.ZipfDist(rng, d.Alphabet().Len())
			}
			id := d.AddReference(label)
			dl.NewRefs = append(dl.NewRefs, id)
			if rng.Intn(2) == 0 {
				addEdge(id, refgraph.RefID(rng.Intn(int(id))))
			}
		case 2, 3, 4:
			a := refgraph.RefID(rng.Intn(d.NumRefs()))
			b := refgraph.RefID(rng.Intn(d.NumRefs()))
			if a != b {
				addEdge(a, b)
			}
		case 5, 6:
			if d.NumSets() == 0 {
				continue
			}
			sid := refgraph.SetID(rng.Intn(d.NumSets()))
			if slices.Contains(dl.NewSets, sid) {
				continue
			}
			if err := d.SetSetProb(sid, rng.Float64()); err != nil {
				t.Fatalf("SetSetProb: %v", err)
			}
			dl.SetProbs = append(dl.SetProbs, sid)
		default:
			a := rng.Intn(d.NumRefs() - 1)
			b := a + 1 + rng.Intn(2)
			if b >= d.NumRefs() {
				continue
			}
			members := []refgraph.RefID{refgraph.RefID(a), refgraph.RefID(b)}
			if _, ok := d.FindSet(members); ok {
				continue
			}
			sid, err := d.AddReferenceSet(members, 0.3+0.5*rng.Float64())
			if err != nil {
				t.Fatalf("AddReferenceSet: %v", err)
			}
			dl.NewSets = append(dl.NewSets, sid)
		}
	}
	return dl
}

// TestApplyDeltaMatchesFullRebuild folds 60 random batches into a default-
// and a dense-linkage corpus through ApplyDelta and, after every batch,
// holds every column of the result to a from-scratch Build of the mutated
// PGD, bit for bit, entities matched by reference set and components by
// member set. It also pins what a batch leaves shared with its predecessor.
func TestApplyDeltaMatchesFullRebuild(t *testing.T) {
	for name, pgd := range map[string]func(testing.TB, int) *refgraph.PGD{
		"default-linkage": defaultLinkagePGD, "dense-linkage-cpt": denseLinkagePGD,
	} {
		t.Run(name, func(t *testing.T) {
			d := pgd(t, 300)
			g, err := Build(d, BuildOptions{})
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			rng := rand.New(rand.NewSource(3))
			sharedAdj, sharedLabels := 0, 0
			for step := 0; step < 60; step++ {
				dl := applyRandomDelta(t, rng, d)
				ng, dirty, err := ApplyDelta(g, d, dl)
				if err != nil {
					t.Fatalf("step %d: ApplyDelta: %v", step, err)
				}
				want, err := Build(d, BuildOptions{})
				if err != nil {
					t.Fatalf("step %d: rebuild: %v", step, err)
				}
				compareGraphs(t, fmt.Sprintf("step %d", step), ng, want)
				if !dl.Empty() && len(dirty) == 0 {
					t.Errorf("step %d: non-empty delta but no dirty entities", step)
				}
				if len(dl.Edges)+len(dl.NewSets) == 0 {
					sharedAdj++
					if unsafe.SliceData(ng.adj) != unsafe.SliceData(g.adj) || len(ng.adj) != len(g.adj) {
						t.Errorf("step %d: no edge mutation, yet the adjacency entries were copied or extended", step)
					}
					if len(dl.NewRefs) == 0 && unsafe.SliceData(ng.adjRow) != unsafe.SliceData(g.adjRow) {
						t.Errorf("step %d: no edge mutation and no new entity, yet the adjacency rows were copied", step)
					}
				}
				if len(dl.NewRefs)+len(dl.NewSets) == 0 {
					sharedLabels++
					if unsafe.SliceData(ng.labelP) != unsafe.SliceData(g.labelP) || unsafe.SliceData(ng.labelBits) != unsafe.SliceData(g.labelBits) {
						t.Errorf("step %d: no new entity, yet the label matrix was copied", step)
					}
				}
				g = ng
			}
			t.Logf("%d entities, %d edges, %d of %d components stored; %d batches shared the adjacency, %d the label matrix",
				g.NumNodes(), g.NumEdges(), len(g.multi), g.NumComponents(), sharedAdj, sharedLabels)
			if sharedAdj == 0 || sharedLabels == 0 {
				t.Fatalf("%d batches without an edge mutation, %d without a new entity: the sharing pins never ran", sharedAdj, sharedLabels)
			}
		})
	}
}

// TestApplyDeltaTwiceFromOneBase: only the first graph derived from a base
// appends to the shared columns in place; a second derivation from the same
// base must not overwrite what the first one wrote there.
func TestApplyDeltaTwiceFromOneBase(t *testing.T) {
	d := denseLinkagePGD(t, 120)
	base, err := Build(d, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	// One delta gives the base's successor spare capacity to fight over.
	mid, _, err := ApplyDelta(base, d, applyRandomDelta(t, rng, d))
	if err != nil {
		t.Fatal(err)
	}
	d2 := d.Clone()
	first, _, err := ApplyDelta(mid, d, applyRandomDelta(t, rng, d))
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := ApplyDelta(mid, d2, applyRandomDelta(t, rng, d2))
	if err != nil {
		t.Fatal(err)
	}
	third, _, err := ApplyDelta(second, d2, applyRandomDelta(t, rng, d2))
	if err != nil {
		t.Fatal(err)
	}
	for label, c := range map[string]struct {
		g *Graph
		d *refgraph.PGD
	}{"first": {first, d}, "third": {third, d2}} {
		want, err := Build(c.d, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		compareGraphs(t, label, c.g, want)
	}
}

// refsKey identifies an entity across differently-ordered graphs by its
// reference set.
func refsKey(g *Graph, v ID) string { return fmt.Sprint(g.Refs(v)) }

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// compareGraphs holds got to want column by column. Entity ids differ (a
// delta appends, Build numbers singletons before sets), so want's entities
// are found by reference set and its components by member set; a
// component's configurations are compared under the induced renumbering of
// its bits.
func compareGraphs(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() || got.NumComponents() != want.NumComponents() {
		t.Fatalf("%s: %d nodes, %d edges, %d components; want %d, %d, %d", label,
			got.NumNodes(), got.NumEdges(), got.NumComponents(), want.NumNodes(), want.NumEdges(), want.NumComponents())
	}
	wantBy := make(map[string]ID, want.NumNodes())
	for v := 0; v < want.NumNodes(); v++ {
		wantBy[refsKey(want, ID(v))] = ID(v)
	}
	to := make([]ID, got.NumNodes()) // got's id → want's
	for v := range to {
		w, ok := wantBy[refsKey(got, ID(v))]
		if !ok {
			t.Fatalf("%s: entity %v missing from rebuild", label, got.Refs(ID(v)))
		}
		to[v] = w
	}
	for v := range to {
		gv, wv := ID(v), to[v]
		name := refsKey(got, gv)
		if got.set[gv] != want.set[wv] {
			t.Errorf("%s: %s has set id %d, want %d", label, name, got.set[gv], want.set[wv])
		}
		if !sameBits(got.Exist(gv), want.Exist(wv)) {
			t.Errorf("%s: Exist(%s) = %v, want %v", label, name, got.Exist(gv), want.Exist(wv))
		}
		for l, p := range got.LabelRow(gv) {
			if !sameBits(p, want.LabelRow(wv)[l]) || got.HasLabel(gv, prob.LabelID(l)) != (p > 0) {
				t.Errorf("%s: PrLabel(%s, %d) = %v (bit %v), want %v", label, name, l, p, got.HasLabel(gv, prob.LabelID(l)), want.LabelRow(wv)[l])
			}
		}
		for _, r := range got.Refs(gv) {
			if !slices.Contains(got.entsOf(r), gv) || !slices.IsSorted(got.entsOf(r)) || len(got.entsOf(r)) != len(want.entsOf(r)) {
				t.Errorf("%s: reference %d lists entities %v, %s among them; rebuild lists %v", label, r, got.entsOf(r), name, want.entsOf(r))
			}
		}

		// Adjacency: sorted rows over the same neighbours with the same
		// merged distributions, conditional cells included.
		gn := got.Neighbors(gv)
		if len(gn) != want.Degree(wv) {
			t.Errorf("%s: %s has %d neighbors, want %d", label, name, len(gn), want.Degree(wv))
			continue
		}
		for i, nb := range gn {
			if i > 0 && gn[i-1].To >= nb.To {
				t.Errorf("%s: adjacency of %s not sorted: %v", label, name, gn)
			}
			we, ok := want.EdgeBetween(wv, to[nb.To])
			if !ok {
				t.Errorf("%s: edge %s–%s missing from rebuild", label, name, refsKey(got, nb.To))
				continue
			}
			if !sameBits(nb.Base(), we.Base()) || nb.Conditional() != we.Conditional() {
				t.Errorf("%s: edge %s–%s base %v conditional %v, want %v %v", label, name, refsKey(got, nb.To), nb.Base(), nb.Conditional(), we.Base(), we.Conditional())
			}
			for l1 := prob.LabelID(0); int(l1) < got.NumLabels(); l1++ {
				for l2 := prob.LabelID(0); int(l2) < got.NumLabels(); l2++ {
					if !sameBits(got.PrEdge(nb, l1, l2), want.PrEdge(we, l1, l2)) {
						t.Errorf("%s: edge %s–%s cell (%d,%d) = %v, want %v", label, name, refsKey(got, nb.To), l1, l2, got.PrEdge(nb, l1, l2), want.PrEdge(we, l1, l2))
					}
				}
			}
		}

		// Identity: the same members, and the same distribution over their
		// subsets.
		gc, wc := got.ComponentOf(gv), want.ComponentOf(wv)
		if gc.Members[got.compPos[gv]] != gv {
			t.Errorf("%s: %s is not at its compPos %d of %v", label, name, got.compPos[gv], gc.Members)
		}
		if gc.Members[0] != gv {
			continue // compare a component once, from its first member
		}
		if len(gc.Members) != len(wc.Members) || len(gc.Configs) != len(wc.Configs) {
			t.Errorf("%s: component of %s has %d members and %d configurations, want %d and %d", label, name, len(gc.Members), len(gc.Configs), len(wc.Members), len(wc.Configs))
			continue
		}
		wantP := make(map[uint64]float64, len(wc.Configs))
		for _, cfg := range wc.Configs {
			wantP[cfg.Mask] = cfg.P
		}
		for _, cfg := range gc.Configs {
			var mask uint64
			for pos, m := range gc.Members {
				if cfg.Mask>>pos&1 != 0 {
					mask |= 1 << want.compPos[to[m]]
				}
			}
			if p, ok := wantP[mask]; !ok || !sameBits(p, cfg.P) {
				t.Errorf("%s: component of %s: configuration %#x has probability %v, want %v (present %v)", label, name, cfg.Mask, cfg.P, p, ok)
			}
		}
		for _, m := range gc.Members {
			if want.comp[to[m]] != want.comp[wv] {
				t.Errorf("%s: %s and %s share a component, not so in the rebuild", label, name, refsKey(got, m))
			}
			if p, q := got.Prn([]ID{gv, m}), want.Prn([]ID{wv, to[m]}); !sameBits(p, q) {
				t.Errorf("%s: Prn(%s, %s) = %v, want %v", label, name, refsKey(got, m), p, q)
			}
		}
	}
}

// graphSum folds everything a query reads from g — adjacency, both kinds of
// edge probability, label rows and bits, references, existence and the
// pairwise identity marginals inside stored components — into one number.
func graphSum(g *Graph) float64 {
	sum := 0.0
	for v := ID(0); int(v) < g.NumNodes(); v++ {
		sum += g.Exist(v) + float64(len(g.Refs(v))) + float64(g.Comp(v))
		for l, p := range g.LabelRow(v) {
			if g.HasLabel(v, prob.LabelID(l)) {
				sum += p
			}
		}
		for _, nb := range g.Neighbors(v) {
			sum += g.PrEdge(nb, 0, prob.LabelID(g.NumLabels()-1)) * float64(nb.To)
		}
		if c := g.ComponentOf(v); len(c.Members) > 1 {
			sum += g.Prn(c.Members[:2])
		}
	}
	return sum
}

// TestApplyDeltaUnderReaders: readers keep traversing every graph of a delta
// chain while the writer derives the next ones, which append to the columns
// those graphs share; each graph must read the same before and after, and
// the race detector must stay silent.
func TestApplyDeltaUnderReaders(t *testing.T) {
	d := denseLinkagePGD(t, 100)
	g, err := Build(d, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	type published struct {
		g   *Graph
		sum float64
	}
	var cur atomic.Pointer[published]
	cur.Store(&published{g, graphSum(g)})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				p := cur.Load()
				if got := graphSum(p.g); !sameBits(got, p.sum) {
					t.Errorf("a published graph now sums to %v, was %v", got, p.sum)
					return
				}
				select {
				case <-done:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(21))
	inPlace := 0
	for step := 0; step < 30; step++ {
		ng, _, err := ApplyDelta(g, d, applyRandomDelta(t, rng, d))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if unsafe.SliceData(ng.adj) == unsafe.SliceData(g.adj) && len(ng.adj) > len(g.adj) {
			inPlace++
		}
		cur.Store(&published{ng, graphSum(ng)})
		g = ng
	}
	close(done)
	wg.Wait()
	if inPlace == 0 || len(g.multi) == 0 {
		t.Fatalf("%d deltas appended adjacency rows in place, %d components stored: nothing shared was exercised", inPlace, len(g.multi))
	}
}
