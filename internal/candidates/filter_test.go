package candidates

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/decompose"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/live"
	"repro/internal/pathindex"
	"repro/internal/prob"
	"repro/internal/refgraph"
)

// freshReaders returns, by kind, a constructor of readers over the PGD opt
// generates (β 0.05, L 2), each with a cold count memo: a static index
// opened again, and a clean and a dirty live view reopened from their
// directories (the dirty one replays its one batch of label, edge and set
// mutations into the overlay). A constructor closes the reader it made before.
func freshReaders(t *testing.T, opt gen.SynthOptions) map[string]func() pathindex.Reader {
	t.Helper()
	ctx := context.Background()
	d, err := gen.Synthetic(opt)
	if err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ixOpt := pathindex.Options{MaxLen: 2, Beta: 0.05, Gamma: 0.1}
	staticOpt := ixOpt
	staticOpt.Dir = filepath.Join(t.TempDir(), "ix")
	built, err := pathindex.Build(ctx, g, staticOpt)
	if err != nil {
		t.Fatal(err)
	}
	built.Close()

	liveOpt := live.Options{Index: ixOpt, CompactEvery: -1, CompactDirtyFrac: -1}
	liveDir := func(dirty bool) string {
		dir := t.TempDir()
		d, err := gen.Synthetic(opt)
		if err != nil {
			t.Fatal(err)
		}
		db, err := live.Create(ctx, dir, d, liveOpt)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if !dirty {
			return dir
		}
		rng := rand.New(rand.NewSource(opt.Seed))
		var ms []live.Mutation
		added := 0
		for len(ms) < 12 {
			a, b := refgraph.RefID(rng.Intn(d.NumRefs())), refgraph.RefID(rng.Intn(d.NumRefs()))
			switch {
			case a == b:
			case len(ms)%4 == 3:
				// A new reference with two labels, linked to a.
				names := d.Alphabet()
				l1, l2 := names.Name(prob.LabelID(rng.Intn(names.Len()))), names.Name(prob.LabelID(rng.Intn(names.Len())))
				labels := []live.LabelP{{Label: l1, P: 1}}
				if l1 != l2 {
					p := 0.25 + 0.5*rng.Float64()
					labels = []live.LabelP{{Label: l1, P: p}, {Label: l2, P: 1 - p}}
				}
				ms = append(ms, live.Mutation{Op: live.OpAddRef, Labels: labels},
					live.Mutation{Op: live.OpAddEdge, A: refgraph.RefID(d.NumRefs() + added), B: a, P: 0.5 + 0.5*rng.Float64()})
				added++
			case len(ms)%3 == 2:
				ms = append(ms, live.Mutation{Op: live.OpSetLinkage, Members: []refgraph.RefID{a, b}, P: 0.3 + 0.5*rng.Float64()})
			default:
				ms = append(ms, live.Mutation{Op: live.OpAddEdge, A: a, B: b, P: 0.5 + 0.5*rng.Float64()})
			}
		}
		if _, err := db.Apply(ms); err != nil {
			t.Fatal(err)
		}
		if db.View().DirtyEntities() == 0 {
			t.Fatal("live view carries no overlay")
		}
		return dir
	}

	reopen := func(open func() (pathindex.Reader, func())) func() pathindex.Reader {
		closeLast := func() {}
		t.Cleanup(func() { closeLast() })
		return func() pathindex.Reader {
			closeLast()
			r, c := open()
			closeLast = c
			return r
		}
	}
	openLive := func(dir string) func() pathindex.Reader {
		return reopen(func() (pathindex.Reader, func()) {
			db, err := live.Open(dir, liveOpt)
			if err != nil {
				t.Fatal(err)
			}
			return db.View(), func() { db.Close() }
		})
	}
	return map[string]func() pathindex.Reader{
		"static": reopen(func() (pathindex.Reader, func()) {
			ix, err := pathindex.Open(staticOpt.Dir, g)
			if err != nil {
				t.Fatal(err)
			}
			return ix, func() { ix.Close() }
		}),
		"clean view": openLive(liveDir(false)),
		"dirty view": openLive(liveDir(true)),
	}
}

// bruteCount is |PIndex(X, α)| over g by exhaustion: every simple path whose
// nodes carry X, scored only at full length — the label and edge factors in
// path order times Graph.Prn of its nodes — with no prefix pruning.
func bruteCount(g *entity.Graph, X []prob.LabelID, alpha float64) int {
	count := 0
	nodes := make([]entity.ID, 0, len(X))
	var grow func(prle float64)
	grow = func(prle float64) {
		n := len(nodes)
		if n == len(X) {
			if prob.MayClear(prle*g.Prn(nodes), alpha, pathindex.PathFactors(len(X))) {
				count++
			}
			return
		}
		for _, nb := range g.Neighbors(nodes[n-1]) {
			lp := g.PrLabel(nb.To, X[n])
			if lp == 0 || slices.Contains(nodes, nb.To) {
				continue
			}
			nodes = append(nodes, nb.To)
			grow(prle * g.PrEdge(nb, X[n-1], X[n]) * lp)
			nodes = nodes[:n]
		}
	}
	for v := range g.NumNodes() {
		if lp := g.PrLabel(entity.ID(v), X[0]); lp != 0 {
			nodes = append(nodes[:0], entity.ID(v))
			grow(lp)
		}
	}
	return count
}

// TestFindWalkFilterDifferential: below β a reader walks PIndex(X, α)
// filtered by the node-level test once it remembers the count, so the rows
// it streams are fewer, and Find must not tell. Over the default and a
// dense-linkage corpus, random queries, α on both sides of β and three
// readers (a static index, a clean live view and a dirty one), Find from a
// cold memo — after a scan of every path that its callback stopped, which
// must store nothing — and again from the warm memo returns bitwise the sets
// (ids and order), Initial, Kept and SSPath of the unfiltered reference
// (Lookup, then keepCandidate on every row), and Initial is the brute-force
// |PIndex(X, α)|. The warm filtered walks must stream fewer rows than
// Initial somewhere, or nothing was pruned.
func TestFindWalkFilterDifferential(t *testing.T) {
	ctx := context.Background()
	for _, corpus := range []struct {
		name string
		opt  gen.SynthOptions
	}{
		{"default", gen.SynthOptions{Refs: 300, EdgeFactor: 2, Labels: 3, UncertainFrac: 0.4, Seed: 31}},
		{"dense-linkage", gen.SynthOptions{Refs: 300, EdgeFactor: 2, Labels: 3, UncertainFrac: 0.4, Groups: 24, GroupSize: 4, PairsPerGroup: 3, Seed: 32}},
	} {
		for kind, fresh := range freshReaders(t, corpus.opt) {
			rng := rand.New(rand.NewSource(corpus.opt.Seed))
			var initial, streamed int
			for qi := 0; qi < 4; qi++ {
				q, err := gen.RandomQuery(rng, corpus.opt.Labels, 2+rng.Intn(3), 4)
				if err != nil {
					t.Fatal(err)
				}
				for _, alpha := range []float64{0.02, 0.1} { // β = 0.05 lies between
					label := fmt.Sprintf("%s %s q%d α=%v", corpus.name, kind, qi, alpha)
					ix := fresh()
					dec, err := decompose.Decompose(q, ix, decompose.Options{MaxLen: 2, Alpha: alpha})
					if err != nil {
						t.Fatal(err)
					}
					ref := findBeforeScan(t, ix, q, dec, alpha)
					ssPath := 1.0
					for _, s := range ref {
						ssPath *= float64(s.Initial)
						if n := bruteCount(ix.Graph(), s.Path.Labels, alpha); s.Initial != n {
							t.Fatalf("%s: path %v streams %d rows, brute force counts %d", label, s.Path.Labels, s.Initial, n)
						}
						stop := func([]entity.ID, float64, float64) bool { return false }
						if _, err := ix.ScanCount(ctx, s.Path.Labels, alpha, nil, stop); err != nil {
							t.Fatal(err)
						}
					}
					for _, memo := range []string{"cold", "warm"} {
						at := label + " " + memo
						got, st, err := Find(ctx, ix, q, dec, alpha, 1, nil)
						if err != nil {
							t.Fatalf("%s: %v", at, err)
						}
						setsIdentical(t, at, ref, got)
						for i, s := range ref {
							if st.Initial[i] != s.Initial || st.Kept[i] != s.Len() {
								t.Fatalf("%s: path %d Initial/Kept %d/%d, want %d/%d", at, i, st.Initial[i], st.Kept[i], s.Initial, s.Len())
							}
						}
						if math.Float64bits(st.SSPath) != math.Float64bits(ssPath) {
							t.Fatalf("%s: SSPath %v, want %v", at, st.SSPath, ssPath)
						}
					}
					nt := newNodeTest(ix, q, alpha)
					for _, s := range ref {
						n, err := ix.ScanCount(ctx, s.Path.Labels, alpha, pathFilter(nt, s.Path), func([]entity.ID, float64, float64) bool {
							streamed++
							return true
						})
						if err != nil || n != s.Initial {
							t.Fatalf("%s: warm ScanCount counts %d (%v), want %d", label, n, err, s.Initial)
						}
						initial += n
					}
				}
			}
			t.Logf("%s %s: the last scans streamed %d of %d rows", corpus.name, kind, streamed, initial)
			if initial == 0 {
				t.Errorf("%s %s: no path has a row; the comparison is vacuous", corpus.name, kind)
			}
			if kind != "dirty view" && streamed >= initial {
				t.Errorf("%s %s: the warm scans streamed all %d rows; the filter pruned nothing", corpus.name, kind, initial)
			}
		}
	}
}
