package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/kpartite"
	"repro/internal/live"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/prob"
	"repro/internal/refgraph"
)

// walkReference is the stream a run of pl that declares an emit-order limit
// must begin with, built without key walks: Find's candidate sets, every
// one sorted by its rows' entity ids, position by position — the order the
// root walks hand the first partition's rows over in, and a key walk a
// key's — linked by kpartite.Build, unreduced, and enumerated by
// join.Enumerate in the order the declared run takes from the paths'
// |PIndex(X, α)|. It also returns that order.
func walkReference(t *testing.T, ix pathindex.Reader, pl *plan.Plan) ([]join.Match, []int) {
	t.Helper()
	ctx := context.Background()
	sets, st, err := candidates.Find(ctx, ix, pl.Query, pl.Dec, pl.Alpha, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cards := make([]float64, len(sets))
	for p := range cards {
		cards[p] = float64(st.Initial[p])
	}
	order := join.OrderWithCards(pl.Dec, pl.OrderMode, cards)
	for p := range sets {
		sortRows(sets[p].Nodes, len(sets[p].Path.Nodes))
	}
	kg, err := kpartite.Build(ctx, ix.Graph(), pl.Query, pl.Dec, sets, pl.Alpha, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ms []join.Match
	err = join.Enumerate(ctx, ix.Graph(), pl.Query, pl.Dec, kg, order, pl.Alpha, 1, func(_ int, m join.Match) bool {
		ms = append(ms, m.Clone())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return ms, order
}

// sortRows sorts the rows of w ids each in nodes, in place, by their ids.
func sortRows(nodes []entity.ID, w int) {
	rows := make([][]entity.ID, len(nodes)/w)
	for i := range rows {
		rows[i] = slices.Clone(nodes[i*w : (i+1)*w])
	}
	slices.SortFunc(rows, slices.Compare)
	for i, r := range rows {
		copy(nodes[i*w:], r)
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
			if prle*g.Prn(nodes)+1e-12 >= alpha {
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

// keyWalkReaders are the three readers a key walk runs over: a packed
// index, a live view with no overlay over the same corpus, and one whose
// overlay carries mutations (prejoinReaders').
func keyWalkReaders(t *testing.T, synthOpt gen.SynthOptions) map[string]pathindex.Reader {
	t.Helper()
	readers := prejoinReaders(t, synthOpt)
	d, err := gen.Synthetic(synthOpt)
	if err != nil {
		t.Fatal(err)
	}
	db, err := live.Create(context.Background(), t.TempDir(), d, live.Options{
		Index: pathindex.Options{MaxLen: 2, Beta: prejoinBeta, Gamma: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	readers["clean"] = db.View()
	return readers
}

// TestKeyWalkDifferential holds the runs that declare an emit-order limit,
// whose joins walk the first path one root at a time and every other one
// join key at a time, to walkReference: over a default and a dense-linkage corpus, random queries,
// α on both sides of β, a packed index and a clean and a dirty live view,
// and Limit 1, 2 and 7, the stream is the reference's first Limit matches —
// mappings, Prle and Prn bit for bit, and order — and the candidates row's
// observed rows are Σ |PIndex(X, α)| counted by exhaustion, as is SSPath
// their product. The reference itself is, as a set, the oracle's answer.
// The queries are 5-node trees and 5-node graphs with one cycle: their
// tails join a later path at its last position only, where a key walk
// grows the head and hands the rows over out of id order, so a run that
// left a key's rows in walk order fails here.
func TestKeyWalkDifferential(t *testing.T) {
	ctx := context.Background()
	for _, arm := range []struct {
		name string
		opt  gen.SynthOptions
	}{
		{"default-linkage", gen.SynthOptions{Refs: 120, EdgeFactor: 3, Labels: 3, UncertainFrac: 0.4, Groups: 4, GroupSize: 3, PairsPerGroup: 2}},
		{"dense-linkage", gen.SynthOptions{Refs: 80, EdgeFactor: 4, Labels: 2, UncertainFrac: 0.5, Groups: 16, GroupSize: 4, PairsPerGroup: 3}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			compared, walked, multi := 0, 0, 0
			for _, seed := range []int64{1, 2} {
				arm.opt.Seed = seed
				for kind, ix := range keyWalkReaders(t, arm.opt) {
					g := ix.Graph()
					rng := rand.New(rand.NewSource(seed * 131))
					for qi := 0; qi < 6; qi++ {
						q, err := gen.RandomQuery(rng, g.NumLabels(), 5, 4+qi%2)
						if err != nil {
							t.Fatal(err)
						}
						for _, alpha := range []float64{0.05, 0.3} { // β = 0.2 lies between
							label := fmt.Sprintf("seed %d %s q%d α=%v", seed, kind, qi, alpha)
							pl, err := core.Prepare(ctx, ix, q, core.Options{Alpha: alpha})
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							ref, order := walkReference(t, ix, pl)
							want, err := core.Match(ctx, ix, q, core.Options{Alpha: alpha})
							if err != nil {
								t.Fatal(err)
							}
							sorted := slices.Clone(ref)
							plan.SortMatches(sorted)
							matchesIdentical(t, label+" reference vs collect", want.Matches, sorted)
							initial, ss := 0, 1.0
							for _, p := range pl.Dec.Paths {
								n := bruteCount(g, p.Labels, alpha)
								initial, ss = initial+n, ss*float64(n)
							}
							for _, limit := range []int{1, 2, 7} {
								at := fmt.Sprintf("%s limit %d of %d", label, limit, len(ref))
								var got []join.Match
								st, err := core.MatchStreamPlan(ctx, ix, pl, core.Options{Alpha: alpha, Limit: limit}, func(m join.Match) bool {
									got = append(got, m)
									return true
								})
								if err != nil {
									t.Fatalf("%s: %v", at, err)
								}
								matchesIdentical(t, at, ref[:min(limit, len(ref))], got)
								if !slices.Equal(st.ExecOrder, order) {
									t.Fatalf("%s: join order %v, the reference's %v", at, st.ExecOrder, order)
								}
								for _, sg := range st.Stages {
									if sg.Name == "candidates" && sg.ObsRows != float64(initial) {
										t.Fatalf("%s: candidates row %+v, brute force counts %d", at, sg, initial)
									}
									if sg.Name == "candidates" {
										walked += sg.KeyWalks
									}
								}
								if st.SSPath != ss {
									t.Fatalf("%s: SSPath %v, brute force %v", at, st.SSPath, ss)
								}
								compared += len(got)
								if len(got) > 1 {
									multi++
								}
							}
						}
					}
				}
			}
			t.Logf("%d matches compared, %d streams of more than one, %d key walks", compared, multi, walked)
			if compared == 0 || multi == 0 || walked == 0 {
				t.Fatalf("%d matches compared, %d streams of more than one, %d key walks: the comparison was vacuous", compared, multi, walked)
			}
		})
	}
}

// TestDeclaredLimitSameOnEveryReader: a run that declares an emit-order
// limit walks every partition in ascending order of its rows' ids, so its
// stream does not depend on the order a reader lays candidates out in. Over
// one corpus, a packed index, a clean live view and a live view whose
// overlay is dirty but leaves the graph's answers as they are — edges of
// probability 0 between references outside every reference set, which no
// path above α crosses — emit the same stream at every limit, mappings and
// Float64bits of Prle and Prn, on both sides of β, running one plan.
func TestDeclaredLimitSameOnEveryReader(t *testing.T) {
	ctx := context.Background()
	opt := gen.SynthOptions{Refs: 120, EdgeFactor: 3, Labels: 3, UncertainFrac: 0.4, Groups: 4, GroupSize: 3, PairsPerGroup: 2}
	compared, multi := 0, 0
	for _, seed := range []int64{1, 2} {
		opt.Seed = seed
		readers := keyWalkReaders(t, opt)
		delete(readers, "live") // its mutations change the answers
		d, err := gen.Synthetic(opt)
		if err != nil {
			t.Fatal(err)
		}
		db, err := live.Create(ctx, t.TempDir(), d, live.Options{
			Index: pathindex.Options{MaxLen: 2, Beta: prejoinBeta, Gamma: 0.1}, CompactEvery: -1, CompactDirtyFrac: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		inSet := map[refgraph.RefID]bool{}
		for i := 0; i < d.NumSets(); i++ {
			for _, r := range d.Set(refgraph.SetID(i)).Members {
				inSet[r] = true
			}
		}
		rng := rand.New(rand.NewSource(seed))
		var ms []live.Mutation
		for len(ms) < 12 {
			a, b := refgraph.RefID(rng.Intn(d.NumRefs())), refgraph.RefID(rng.Intn(d.NumRefs()))
			if _, ok := d.Edge(a, b); a != b && !ok && !inSet[a] && !inSet[b] {
				ms = append(ms, live.Mutation{Op: live.OpAddEdge, A: a, B: b, P: 0})
			}
		}
		if _, err := db.Apply(ms); err != nil {
			t.Fatal(err)
		}
		if db.View().DirtyEntities() == 0 {
			t.Fatal("live view carries no overlay")
		}
		readers["dirty"] = db.View()
		rngQ := rand.New(rand.NewSource(seed * 131))
		for qi := 0; qi < 6; qi++ {
			q, err := gen.RandomQuery(rngQ, readers["packed"].Graph().NumLabels(), 5, 4+qi%2)
			if err != nil {
				t.Fatal(err)
			}
			for _, alpha := range []float64{0.05, 0.3} { // β = 0.2 lies between
				// One plan for every reader: the dirty view's histograms
				// differ, and the plan it would choose with them.
				pl, err := core.Prepare(ctx, readers["packed"], q, core.Options{Alpha: alpha})
				if err != nil {
					t.Fatal(err)
				}
				for _, limit := range []int{1, 2, 7, 1 << 30} {
					var want []join.Match
					for _, kind := range []string{"packed", "clean", "dirty"} {
						at := fmt.Sprintf("seed %d q%d α=%v limit %d %s", seed, qi, alpha, limit, kind)
						var got []join.Match
						if _, err := core.MatchStreamPlan(ctx, readers[kind], pl, core.Options{Alpha: alpha, Limit: limit}, func(m join.Match) bool {
							got = append(got, m)
							return true
						}); err != nil {
							t.Fatalf("%s: %v", at, err)
						}
						if kind == "packed" {
							want = got
							continue
						}
						matchesIdentical(t, at+" vs packed", want, got)
					}
					compared += len(want)
					if len(want) > 1 {
						multi++
					}
				}
			}
		}
	}
	t.Logf("%d matches compared, %d streams of more than one", compared, multi)
	if compared == 0 || multi == 0 {
		t.Fatalf("%d matches compared, %d streams of more than one: the comparison was vacuous", compared, multi)
	}
}
