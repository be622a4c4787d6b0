package kpartite_test

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/candidates"
	"repro/internal/decompose"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/kpartite"
	"repro/internal/pathindex"
	"repro/internal/query"
)

// walkFixture is a dense query's decomposition over the 2 000-reference
// corpus, with the join keys a join would ask its partitions for: for every
// joined pair (a, b) and every candidate row of a, the entities of that row
// at the pair's join positions, as a key of b.
type walkFixture struct {
	ix    pathindex.Reader
	g     *entity.Graph
	q     *query.Query
	dec   *decompose.Decomposition
	alpha float64
	sets  []candidates.Set // Find's, every path whole
	keys  []walkKey
}

type walkKey struct {
	part int
	pos  []int32
	ents []entity.ID
}

func newWalkFixture(t *testing.T, alpha float64) *walkFixture {
	t.Helper()
	ctx := context.Background()
	d, err := gen.Synthetic(gen.SynthOptions{Refs: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pathindex.Build(ctx, g, pathindex.Options{MaxLen: 2, Beta: 0.5, Gamma: 0.1, Dir: filepath.Join(t.TempDir(), "ix")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	q, err := gen.RandomQuery(rand.New(rand.NewSource(2)), g.NumLabels(), 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decompose.Decompose(q, ix, decompose.Options{MaxLen: 2, Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	sets, _, err := candidates.Find(ctx, ix, q, dec, alpha, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := &walkFixture{ix: ix, g: g, q: q, dec: dec, alpha: alpha, sets: sets}
	seen := map[string]bool{}
	for pair, preds := range dec.Joins {
		for _, side := range [][2]int{{pair[0], pair[1]}, {pair[1], pair[0]}} {
			a, b := side[0], side[1]
			for i := 0; i < sets[a].Len(); i++ {
				k := walkKey{part: b}
				for _, pr := range preds {
					posA, posB := pr.PosA, pr.PosB
					if a != pair[0] {
						posA, posB = posB, posA
					}
					k.pos = append(k.pos, int32(posB))
					k.ents = append(k.ents, sets[a].Row(i)[posA])
				}
				// Positions ascending, as the join lists them.
				idx := make([]int, len(k.pos))
				for x := range idx {
					idx[x] = x
				}
				slices.SortFunc(idx, func(x, y int) int { return int(k.pos[x] - k.pos[y]) })
				pos, ents := make([]int32, len(idx)), make([]entity.ID, len(idx))
				for x, o := range idx {
					pos[x], ents[x] = k.pos[o], k.ents[o]
				}
				k.pos, k.ents = pos, ents
				if id := fmt.Sprint(k); !seen[id] {
					seen[id] = true
					f.keys = append(f.keys, k)
				}
			}
		}
	}
	return f
}

// walked returns a fresh walked graph over the fixture.
func (f *walkFixture) walked() *kpartite.Graph {
	return kpartite.Walked(f.g, f.dec, candidates.NewKeyWalks(f.ix, f.q, f.dec, f.alpha))
}

// TestWalkReturnsKeyRows: on a walked graph, Walk(b, pos, key) returns the
// rows of Find's set of b that carry the key at those positions — all of
// them, no other, each once, in ascending order of their ids position by
// position — and each row's factors are, bit for bit, the ones Build looks
// up for the same row. A key asked for again is not walked again and
// returns the same rows; an empty key is the whole set. The root walks of
// a partition (WalkRoot for every root, in ascending id) return its set's
// rows too: below β, where Find walks the same roots, its rows in its
// order, with Build's factors row for row; above β the same rows in id
// order. Below and above β.
func TestWalkReturnsKeyRows(t *testing.T) {
	ctx := context.Background()
	for _, alpha := range []float64{0.3, 0.6} {
		f := newWalkFixture(t, alpha)
		eager, err := kpartite.Build(ctx, f.g, nil, f.dec, f.sets, alpha, 1)
		if err != nil {
			t.Fatal(err)
		}
		// rowOf finds row r of partition b in Find's set.
		rowOf := func(b int, r []entity.ID) int {
			for i := 0; i < f.sets[b].Len(); i++ {
				if slices.Equal(f.sets[b].Row(i), r) {
					return i
				}
			}
			return -1
		}
		sameFactors := func(at string, kg *kpartite.Graph, b, i, want int) {
			t.Helper()
			lab, edge := kg.Factors(b, i)
			wlab, wedge := eager.Factors(b, want)
			if !slices.EqualFunc(lab, wlab, sameBits) || !slices.EqualFunc(edge, wedge, sameBits) {
				t.Fatalf("%s: row %v has factors %v %v, Build looked up %v %v", at, kg.Row(b, i), lab, edge, wlab, wedge)
			}
		}
		roots := f.walked()
		for b := range f.sets {
			at := fmt.Sprintf("α=%v partition %d", alpha, b)
			var want [][]entity.ID
			for i := 0; i < f.sets[b].Len(); i++ {
				want = append(want, f.sets[b].Row(i))
			}
			below := alpha < f.ix.Beta()
			if !below {
				slices.SortFunc(want, slices.Compare)
			}
			n, visited := 0, 0
			for word, set := range roots.Roots(b) {
				for ; set != 0; set &= set - 1 {
					for i := range roots.WalkRoot(b, entity.ID(word*64+bits.TrailingZeros64(set))) {
						if n == len(want) || !slices.Equal(roots.Row(b, i), want[n]) || !roots.Alive(b, i) {
							t.Fatalf("%s: root walk row %d is %v, want row %d of %d", at, i, roots.Row(b, i), n, len(want))
						}
						if below {
							sameFactors(at, roots, b, i, n)
						} else {
							sameFactors(at, roots, b, i, rowOf(b, want[n]))
						}
						n++
					}
					visited++
				}
			}
			if walks, kept := roots.Walks(b); n != len(want) || walks != visited || kept != n {
				t.Fatalf("%s: %d root walks keeping %d rows (%d counted), Find keeps %d, %d roots", at, walks, kept, n, len(want), visited)
			}
		}
		kg := f.walked()
		rows := 0
		for _, k := range f.keys {
			at := fmt.Sprintf("α=%v partition %d key %v at %v", alpha, k.part, k.ents, k.pos)
			walks, _ := kg.Walks(k.part)
			lo, hi := kg.Walk(k.part, k.pos, k.ents)
			var want [][]entity.ID
			for i := 0; i < f.sets[k.part].Len(); i++ {
				r := f.sets[k.part].Row(i)
				carries := true
				for x, pos := range k.pos {
					carries = carries && r[pos] == k.ents[x]
				}
				if carries {
					want = append(want, r)
				}
			}
			slices.SortFunc(want, slices.Compare)
			if hi-lo != len(want) {
				t.Fatalf("%s: %d rows, Find's set has %d with the key", at, hi-lo, len(want))
			}
			for i := lo; i < hi; i++ {
				r := kg.Row(k.part, i)
				if !slices.Equal(r, want[i-lo]) || !kg.Alive(k.part, i) {
					t.Fatalf("%s: row %d is %v (alive %v), want %v", at, i-lo, r, kg.Alive(k.part, i), want[i-lo])
				}
				sameFactors(at, kg, k.part, i, rowOf(k.part, r))
			}
			if again, _ := kg.Walks(k.part); again != walks+1 {
				t.Fatalf("%s: %d walks before the first request, %d after", at, walks, again)
			}
			if lo2, hi2 := kg.Walk(k.part, k.pos, k.ents); lo2 != lo || hi2 != hi {
				t.Fatalf("%s: asked again, rows [%d, %d), first [%d, %d)", at, lo2, hi2, lo, hi)
			}
			if again, _ := kg.Walks(k.part); again != walks+1 {
				t.Fatalf("%s: walked again on the second request", at)
			}
			rows += hi - lo
		}
		for b := range f.sets {
			lo, hi := kg.Walk(b, nil, nil)
			if hi-lo != f.sets[b].Len() {
				t.Fatalf("α=%v partition %d: the empty key walks %d rows, Find keeps %d", alpha, b, hi-lo, f.sets[b].Len())
			}
			for i := lo + 1; i < hi; i++ {
				if slices.Compare(kg.Row(b, i-1), kg.Row(b, i)) >= 0 {
					t.Fatalf("α=%v partition %d: rows %v then %v", alpha, b, kg.Row(b, i-1), kg.Row(b, i))
				}
			}
		}
		t.Logf("α=%v: %d keys over %d partitions, %d rows", alpha, len(f.keys), len(f.sets), rows)
		if len(f.keys) < 100 || rows == 0 {
			t.Fatalf("α=%v: %d keys, %d rows: too few to compare", alpha, len(f.keys), rows)
		}
	}
}

// Allocation sink: what a measured call builds is stored here so that it is
// allocated on the heap, as it is when a caller keeps it.
var sinkGraph *kpartite.Graph

// TestKeyWalkAllocation pins what key-walked partitions allocate, on a
// walked graph whose every partition starts empty. A key asked for again
// allocates nothing. Walking every key of the fixture on a fresh graph
// allocates the same bytes every time — within 1 %, since the
// runtime now and then allocates on its own account inside the window, so
// the least of five runs is taken — and at most 4 times what
// the rows it keeps need stored — 4 bytes an id, 8 a factor (label and
// edge) and 1 an alive flag, in columns that appending grows: a column's
// last array is at most twice its length, and the arrays it outgrew
// together less than the last — plus the walker and filter of each
// partition's first walk (1 KiB) and up to 128 bytes of key map a walk:
// nothing per row walked but not kept, and nothing per extension.
func TestKeyWalkAllocation(t *testing.T) {
	f := newWalkFixture(t, 0.3)
	walkAll := func(kg *kpartite.Graph) {
		for _, k := range f.keys {
			kg.Walk(k.part, k.pos, k.ents)
		}
	}
	cold := func() (bytes, mallocs uint64, kg *kpartite.Graph) {
		kg = f.walked()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		walkAll(kg)
		runtime.ReadMemStats(&after)
		sinkGraph = kg
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs, kg
	}
	cold() // warm-up: lazily built memos of the graph and the index
	runs := make([]uint64, 5)
	var mallocs uint64
	var kg *kpartite.Graph
	for i := range runs {
		runs[i], mallocs, kg = cold()
	}
	bytes := slices.Min(runs)
	stored, walks := 0, 0
	for b := range f.sets {
		w, rows := kg.Walks(b)
		plen := len(f.sets[b].Path.Nodes)
		stored += rows * (4*plen + 8*(2*plen-1) + 1)
		walks += w
	}
	ceiling := uint64(4*stored) + uint64(1024*len(f.sets)) + uint64(2*64*walks)
	t.Logf("%d keys walked: %d bytes in %d mallocs; the kept rows need %d bytes, ceiling %d", walks, bytes, mallocs, stored, ceiling)
	if walks < 100 || stored == 0 {
		t.Fatalf("%d walks keeping %d bytes of rows: too few to pin anything", walks, stored)
	}
	if most := slices.Max(runs); float64(most) > 1.01*float64(bytes) {
		t.Errorf("cold walks allocate %d to %d bytes: the allocation does not repeat", bytes, most)
	}
	if bytes > ceiling {
		t.Errorf("cold walks allocate %d bytes, ceiling %d", bytes, ceiling)
	}
	if warm := testing.AllocsPerRun(3, func() { walkAll(kg) }); warm != 0 {
		t.Errorf("walking keys already walked allocates %v objects a pass, want 0", warm)
	}
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
