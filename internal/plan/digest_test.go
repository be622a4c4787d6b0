package plan

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/decompose"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/pathindex"
	"repro/internal/query"
)

// plansDigest is the SHA-256 of every plan TestPlansUnchanged enumerates,
// recorded before the planner's cost-only rewrite: the rewrite was to change
// no plan, and this pins that it did not, nor does any later change that
// means to keep plans as they are.
const plansDigest = "fe195a27e243fcba92afaa3d13750bb5fa717e178e0586cf1915f3bb47ac7643"

// TestPlansUnchanged hashes every plan Enumerate returns over one fixed
// synthetic index at L 1, 2 and 3 — its Tree JSON and its decomposition
// (path nodes, labels, estimates and Info, join predicates, node and edge
// covers, mode and seed) — for random queries, cycles and every Figure 8
// pattern, at three α, under every strategy's space and two seeds. Two
// queries have more than 64 edges. A change that moves any decomposition,
// order, cost float, tree or recorded seed changes the digest.
func TestPlansUnchanged(t *testing.T) {
	d, err := gen.Synthetic(gen.SynthOptions{Refs: 400, Labels: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nl := g.NumLabels()
	rng := rand.New(rand.NewSource(5))
	var queries []*query.Query
	add := func(q *query.Query, err error) {
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	add(gen.RandomQuery(rng, nl, 4, 5))
	add(gen.RandomQuery(rng, nl, 6, 7))
	add(gen.RandomQuery(rng, nl, 6, 10))
	add(gen.RandomQuery(rng, nl, 40, 70))
	add(gen.CycleQuery(rng, nl, 4))
	add(gen.CycleQuery(rng, nl, 5))
	add(gen.CycleQuery(rng, nl, 70))
	for _, p := range gen.Patterns() {
		add(gen.PatternQueryRandomLabels(p, rng, nl, false))
	}
	single := query.New()
	single.AddNode(0)
	queries = append(queries, single)

	spaces := []struct {
		name  string
		space Space
	}{
		{"optimized", FullSpace()},
		{"random-decomp", Space{
			Modes:  []decompose.Mode{decompose.ModeRandom},
			Reduce: []bool{true},
			Orders: []join.OrderMode{join.OrderByCardinality},
		}},
		{"no-ss-reduction", Space{
			Modes:  []decompose.Mode{decompose.ModeOptimized},
			Reduce: []bool{false},
			Orders: []join.OrderMode{join.OrderHeuristic},
		}},
	}
	h := sha256.New()
	plans := 0
	for L := 1; L <= 3; L++ {
		ix, err := pathindex.Build(context.Background(), g, pathindex.Options{
			MaxLen: L, Beta: 0.05, Gamma: 0.1, Dir: filepath.Join(t.TempDir(), fmt.Sprint("ix", L)),
		})
		if err != nil {
			t.Fatal(err)
		}
		p := NewPlanner(ix, nil)
		for qi, q := range queries {
			for _, alpha := range []float64{0.05, 0.25, 0.6} {
				for _, sp := range spaces {
					for _, seed := range []int64{0, 7} {
						fmt.Fprintf(h, "L%d q%d a%v %s s%d\n", L, qi, alpha, sp.name, seed)
						pls, err := p.Enumerate(context.Background(), q, Options{
							Alpha: alpha, Strategy: sp.name, Space: sp.space, Seed: seed,
						})
						if err != nil {
							fmt.Fprintf(h, "error %v\n", err)
							continue
						}
						for _, pl := range pls {
							tree, err := json.Marshal(pl.Tree)
							if err != nil {
								t.Fatal(err)
							}
							h.Write(tree)
							hashDecomposition(h, q, pl.Dec)
							plans++
						}
					}
				}
			}
		}
		ix.Close()
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d plans, digest %s", plans, got)
	if got != plansDigest {
		t.Fatalf("plan digest %s, want %s: a plan changed", got, plansDigest)
	}
}

// hashDecomposition writes one decomposition in a fixed text form: floats
// as exact binary (%b), the joins by ascending pair, the covers by node id
// and by edge in Query.Edges order.
func hashDecomposition(h hash.Hash, q *query.Query, d *decompose.Decomposition) {
	fmt.Fprintf(h, "mode %d seed %d\n", d.Mode, d.Seed)
	for _, p := range d.Paths {
		fmt.Fprintf(h, "path %d %v %v %b %b deg %d den %b nb %v rv %v cy %v\n",
			p.ID, p.Nodes, p.Labels, p.Card, p.Cost,
			p.Info.Degree, p.Info.Density, p.Info.Neighbors, p.Info.Reverse, p.Info.Cycles)
	}
	pairs := make([][2]int, 0, len(d.Joins))
	for pair := range d.Joins {
		pairs = append(pairs, pair)
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a][0] != pairs[b][0] {
			return pairs[a][0] < pairs[b][0]
		}
		return pairs[a][1] < pairs[b][1]
	})
	for _, pair := range pairs {
		fmt.Fprintf(h, "join %v %v\n", pair, d.Joins[pair])
	}
	for n := 0; n < q.NumNodes(); n++ {
		fmt.Fprintf(h, "cn %d %d\n", n, d.CoverNode[query.NodeID(n)])
	}
	for _, e := range q.Edges() {
		fmt.Fprintf(h, "ce %v %d\n", e, d.CoverEdge[e])
	}
}
