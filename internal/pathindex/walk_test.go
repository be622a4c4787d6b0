package pathindex

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/prob"
)

// TestWalkStopsWhenEmitDoes: Root (guided and not) and Anchor (guided) end
// the walk right after the callback returns false — no further call — and
// report false, on the first, second, middle and last path of a walk.
func TestWalkStopsWhenEmitDoes(t *testing.T) {
	g := synthGraph(t, gen.SynthOptions{Refs: 200, Labels: 3, UncertainFrac: 0.5, Seed: 4})
	anchors := make([]bool, g.NumNodes())
	for v := range anchors {
		anchors[v] = v%3 == 0
	}
	X := []prob.LabelID{0, 1, 0}
	for _, c := range []struct {
		name     string
		guide    []prob.LabelID
		maxNodes int
		anchored bool
	}{
		{"Root guided", X, len(X), false},
		{"Root unguided", nil, 3, false},
		{"Anchor guided", X, len(X), true},
	} {
		// walk runs the whole loop of walks and reports the callbacks made
		// and whether every walk ran to its end.
		walk := func(stopAt int) (calls int, finished bool) {
			w := NewWalker(g, 0.05, c.maxNodes, c.guide, anchors, nil, func([]entity.ID, []prob.LabelID, float64, float64) bool {
				calls++
				return calls != stopAt
			})
			for v := 0; v < g.NumNodes(); v++ {
				switch {
				case !c.anchored:
					if !w.Root(entity.ID(v)) {
						return calls, false
					}
				case anchors[v]:
					if !w.Anchor(entity.ID(v)) {
						return calls, false
					}
				}
			}
			return calls, true
		}
		total, finished := walk(0)
		if !finished || total < 10 {
			t.Fatalf("%s: the full walk made %d calls (finished %v), want ≥ 10", c.name, total, finished)
		}
		for _, k := range []int{1, 2, total / 2, total} {
			if calls, finished := walk(k); finished || calls != k {
				t.Errorf("%s: a callback that stops on call %d of %d: %d calls, walk reported finished %v",
					c.name, k, total, calls, finished)
			}
		}
	}
}

// TestOnDemandScanAllocation: a Scan below β allocates a constant number of
// objects — the walker and the closure that adapts fn to it — whatever the
// walk visits: the same count at two α whose walks stream at least ten times
// as many rows apart, so nothing is allocated per edge or per path.
func TestOnDemandScanAllocation(t *testing.T) {
	g := synthGraph(t, gen.SynthOptions{Refs: 1000, UncertainFrac: 0.5, Seed: 3})
	ix := buildIndex(t, g, Options{MaxLen: 2, Beta: 0.5, Gamma: 0.1})
	X := []prob.LabelID{0, 1, 0}
	rows := 0
	count := func([]entity.ID, float64, float64) bool { rows++; return true }
	scan := func(alpha float64) (perCall float64, rowsPerCall int) {
		rows = 0
		if err := ix.Scan(X, alpha, count); err != nil {
			t.Fatal(err)
		}
		rowsPerCall = rows
		return testing.AllocsPerRun(20, func() { ix.Scan(X, alpha, count) }), rowsPerCall
	}
	few, fewRows := scan(0.3)
	many, manyRows := scan(0.01)
	t.Logf("on-demand Scan of %v: %v allocations for %d rows at α 0.3, %v for %d rows at α 0.01", X, few, fewRows, many, manyRows)
	if fewRows == 0 || manyRows < 10*fewRows {
		t.Fatalf("rows %d at α 0.3 and %d at α 0.01: need ≥ 1 and ≥ 10× apart", fewRows, manyRows)
	}
	if few != many || many > 2 {
		t.Errorf("%v allocations per Scan at α 0.3, %v at α 0.01: want the same count, ≤ 2", few, many)
	}
}

// filterOf is the NodeFilter along X whose set at pos holds the entities
// carrying X[pos] that accept(v, pos) accepts.
func filterOf(g *entity.Graph, X []prob.LabelID, accept func(v entity.ID, pos int) bool) NodeFilter {
	keep := make(NodeFilter, len(X))
	for pos, l := range X {
		keep[pos] = newNodeSet(g.NumNodes())
		for v := range entity.ID(g.NumNodes()) {
			if g.HasLabel(v, l) && accept(v, pos) {
				keep[pos].add(v)
			}
		}
	}
	return keep
}

// TestWalkFilterKeepsTheRest: a guided walk with a NodeFilter hands over
// exactly the paths of the same walk without it whose every node is in the
// filter's set at its position on the guide — in the same order and with
// the same bits — from Root and from Anchor, which also places nodes at the
// head. The sets differ by position, so reading one at a wrong position
// changes the paths; the filter must cut some and keep some.
func TestWalkFilterKeepsTheRest(t *testing.T) {
	g := synthGraph(t, gen.SynthOptions{Refs: 300, Labels: 3, UncertainFrac: 0.5, Seed: 6})
	anchors := make([]bool, g.NumNodes())
	for v := range anchors {
		anchors[v] = v%3 == 0
	}
	accept := func(v entity.ID, pos int) bool { return (int(v)+pos)%4 != 0 }
	type path struct {
		nodes     [maxNodes]entity.ID
		prle, prn float64
	}
	for _, X := range [][]prob.LabelID{{0, 1, 2}, {0, 1, 0}} {
		keep := filterOf(g, X, accept)
		for _, anchored := range []bool{false, true} {
			walk := func(keep NodeFilter) []path {
				var out []path
				w := NewWalker(g, 0.02, len(X), X, anchors, keep, func(nodes []entity.ID, _ []prob.LabelID, prle, prn float64) bool {
					p := path{prle: prle, prn: prn}
					copy(p.nodes[:], nodes)
					out = append(out, p)
					return true
				})
				for v := 0; v < g.NumNodes(); v++ {
					if anchored && anchors[v] {
						w.Anchor(entity.ID(v))
					} else if !anchored {
						w.Root(entity.ID(v))
					}
				}
				return out
			}
			var want []path
			for _, p := range walk(nil) {
				ok := true
				for pos, v := range p.nodes[:len(X)] {
					ok = ok && accept(v, pos)
				}
				if ok {
					want = append(want, p)
				}
			}
			got := walk(keep)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("X %v anchored %v: the filtered walk hands over %d paths, the unfiltered walk %d that pass the filter", X, anchored, len(got), len(want))
			}
			if all := len(walk(nil)); len(want) == 0 || len(want) == all {
				t.Fatalf("X %v anchored %v: the filter keeps %d of %d paths; want some cut and some kept", X, anchored, len(want), all)
			}
		}
	}
}

// TestWalkAtFixesOnePosition: for every guide position pos and entity v,
// At with the one-position key (pos, v) hands over exactly the paths of
// the filtered Root walk from every start node that carry v at pos, each
// once, with a probability equal to the root walk's up to the order its
// factors were multiplied in. The guides include a repeated label, so v can stand at more than one
// position of one path's labels.
func TestWalkAtFixesOnePosition(t *testing.T) {
	g := synthGraph(t, gen.SynthOptions{Refs: 300, Labels: 3, UncertainFrac: 0.5, Seed: 6})
	accept := func(v entity.ID, pos int) bool { return (int(v)+pos)%5 != 0 }
	type row [maxNodes]entity.ID
	walked := 0
	for _, X := range [][]prob.LabelID{{0, 1, 2}, {0, 1, 0}, {1, 0, 1, 2}} {
		keep := filterOf(g, X, accept)
		byRow := map[row]float64{} // the root walk's rows, with Prle·Prn
		var cur map[row]float64
		w := NewWalker(g, 0.02, len(X), X, nil, keep, func(nodes []entity.ID, _ []prob.LabelID, prle, prn float64) bool {
			var r row
			copy(r[:], nodes)
			if _, dup := cur[r]; dup {
				t.Fatalf("X %v: row %v handed over twice", X, nodes)
			}
			cur[r] = prle * prn
			return true
		})
		cur = byRow
		for v := range entity.ID(g.NumNodes()) {
			w.Root(v)
		}
		if len(byRow) < 10 {
			t.Fatalf("X %v: the root walk hands over %d rows; too few to compare", X, len(byRow))
		}
		for pos := range X {
			for v := range entity.ID(g.NumNodes()) {
				got := map[row]float64{}
				cur = got
				w.At([]int32{int32(pos)}, []entity.ID{v})
				want := 0
				for r, pr := range byRow {
					if r[pos] != v {
						continue
					}
					want++
					if gpr, ok := got[r]; !ok || math.Abs(gpr-pr) > 1e-12*pr {
						t.Fatalf("X %v: At(%d, %d) hands over %v with Prle·Prn %v (present %v), the root walk %v", X, v, pos, r, gpr, ok, pr)
					}
				}
				if len(got) != want {
					t.Fatalf("X %v: At(%d, %d) hands over %d rows, the root walk has %d with %d at %d", X, v, pos, len(got), want, v, pos)
				}
				walked += len(got)
			}
		}
	}
	if walked == 0 {
		t.Fatal("no walk handed over a row")
	}
}

// TestWalkAtPinsTheKey: At with a key of one to three positions hands over
// exactly the rows of the one-position walk from key[0] at pos[0] that carry
// the rest of the key, in that walk's order and with bitwise-equal Prle and
// Prn, and its callback sees no row that does not carry the key: a pinned
// position reads one adjacency entry, so the walk builds no path it would
// throw away. Guides of 2–4 nodes (L 1–3), α below and at β, every pos[0].
// The later entities of a key are drawn from the rows of the unfiltered
// walk, so some stand outside the filter's set at their position: a walk
// that skipped the filter test at a pinned position would hand those over.
func TestWalkAtPinsTheKey(t *testing.T) {
	g := synthGraph(t, gen.SynthOptions{Refs: 300, Labels: 3, UncertainFrac: 0.5, Seed: 6})
	rng := rand.New(rand.NewSource(7))
	accept := func(v entity.ID, pos int) bool { return (int(v)+pos)%5 != 0 }
	type row struct {
		nodes     [maxNodes]entity.ID
		prle, prn uint64
	}
	var out []row
	collect := func(nodes []entity.ID, _ []prob.LabelID, prle, prn float64) bool {
		r := row{prle: math.Float64bits(prle), prn: math.Float64bits(prn)}
		copy(r.nodes[:], nodes)
		out = append(out, r)
		return true
	}
	walk := func(w *Walker, pos []int32, key []entity.ID) []row {
		out = nil
		w.At(pos, key)
		return out
	}
	carries := func(r row, pos []int32, key []entity.ID) bool {
		for k, p := range pos {
			if r.nodes[p] != key[k] {
				return false
			}
		}
		return true
	}
	const beta = 0.05
	var keys, multi, outside, unpinned, pinned int
	for L := 1; L <= 3; L++ {
		for range 2 {
			X := make([]prob.LabelID, L+1)
			for i := range X {
				X[i] = prob.LabelID(rng.Intn(g.NumLabels()))
			}
			keep := filterOf(g, X, accept)
			for _, alpha := range []float64{0.02, beta} {
				filtered := NewWalker(g, alpha, len(X), X, nil, keep, collect)
				open := NewWalker(g, alpha, len(X), X, nil, nil, collect)
				for pos0 := range int32(len(X)) {
					for v := range entity.ID(g.NumNodes()) {
						one := []int32{pos0}
						from := walk(open, one, []entity.ID{v})
						if len(from) == 0 {
							continue
						}
						want1 := walk(filtered, one, []entity.ID{v})
						for range 3 {
							// A key: v at pos0, then up to two later positions
							// read off a row of the unfiltered walk, one time in
							// four a random entity there instead.
							r := from[rng.Intn(len(from))]
							pos, key := []int32{pos0}, []entity.ID{v}
							later := rng.Perm(len(X) - 1 - int(pos0))
							later = later[:min(len(later), rng.Intn(3))]
							slices.Sort(later)
							for _, d := range later {
								p := pos0 + 1 + int32(d)
								e := r.nodes[p]
								if rng.Intn(4) == 0 {
									e = entity.ID(rng.Intn(g.NumNodes()))
								}
								pos, key = append(pos, p), append(key, e)
							}
							var want []row
							for _, r := range want1 {
								if carries(r, pos, key) {
									want = append(want, r)
								}
							}
							got := walk(filtered, pos, key)
							for _, r := range got {
								if !carries(r, pos, key) {
									t.Fatalf("X %v α %v: At(%v, %v) hands over %v, which does not carry the key", X, alpha, pos, key, r.nodes[:len(X)])
								}
							}
							if !slices.Equal(got, want) {
								t.Fatalf("X %v α %v: At(%v, %v) hands over %d rows; want the %d rows of the walk from %d at %d that carry the key, in its order with its bits", X, alpha, pos, key, len(got), len(want), v, pos0)
							}
							keys++
							if len(pos) > 1 {
								multi++
								unpinned += len(want1)
								pinned += len(got)
								cut := false
								for k, p := range pos[1:] {
									cut = cut || !accept(key[k+1], int(p))
								}
								if cut && len(walk(open, pos, key)) > 0 {
									outside++
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d keys, %d of several positions: their walks hand over %d rows, all kept, where the one-position walks hand over %d; %d keys pin an entity outside the filter on a row the unfiltered walk has",
		keys, multi, pinned, unpinned, outside)
	if multi < 1000 || pinned < 100 || outside < 20 || pinned*4 > unpinned {
		t.Fatalf("%d keys of several positions, %d rows kept, %d pinning an entity outside the filter, %d rows handed over against %d: too few to tell", multi, pinned, outside, pinned, unpinned)
	}
}
