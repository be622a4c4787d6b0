package kpartite_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/candidates"
	"repro/internal/decompose"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/kpartite"
	"repro/internal/pathindex"
)

// TestKeyedJoinFillsCheckedRows: the join looks a keyed candidate's factors
// up only once it has passed the consistency checks on the query nodes
// earlier steps assigned. A row apply accepts there agrees, on every join
// predicate with an earlier partition in the order, with the row chosen for
// that partition, which was itself stored — so after a first-match run
// every stored row of a later partition has such a stored partner in each of
// its joined predecessors. The keyed links of a stored row also list rows
// with none, under a colliding key; that the fixture has them is checked
// too, or the test would be vacuous.
func TestKeyedJoinFillsCheckedRows(t *testing.T) {
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
	const alpha = 0.3
	rng := rand.New(rand.NewSource(4))
	stored, unchecked := 0, 0
	for qi := 0; qi < 8; qi++ {
		q, err := gen.RandomQuery(rng, g.NumLabels(), 6, 7)
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
		order := join.Order(dec, join.OrderHeuristic)
		kg := kpartite.BuildKeyed(g, dec, sets, alpha, order)
		if err := join.Enumerate(ctx, g, q, dec, kg, order, alpha, 1, func(int, join.Match) bool { return false }); err != nil {
			t.Fatal(err)
		}
		// partner reports whether row j of b agrees on every predicate with
		// a stored row of q.
		partner := func(q, b, j int) bool {
			preds := dec.Preds(q, b)
			for i := 0; i < kg.NumCandidates(q); i++ {
				if kg.Filled(q, i) && !slices.ContainsFunc(preds, func(pr decompose.JoinPred) bool {
					return kg.Row(q, i)[pr.PosA] != kg.Row(b, j)[pr.PosB]
				}) {
					return true
				}
			}
			return false
		}
		// linked reports whether a stored row of q links to row j of b.
		linked := func(q, b, j int) bool {
			for i := 0; i < kg.NumCandidates(q); i++ {
				if kg.Filled(q, i) && slices.Contains(kg.Links(q, i, b), int32(j)) {
					return true
				}
			}
			return false
		}
		for s, b := range order {
			for j := 0; j < kg.NumCandidates(b); j++ {
				if kg.Filled(b, j) {
					stored++
				}
				for _, q := range order[:s] {
					if len(dec.Preds(q, b)) == 0 || partner(q, b, j) {
						continue
					}
					if kg.Filled(b, j) {
						t.Fatalf("query %d, order %v: row %d of partition %d was stored, but agrees with no stored row of %d", qi, order, j, b, q)
					}
					if linked(q, b, j) {
						unchecked++
					}
				}
			}
		}
	}
	t.Logf("%d rows stored; %d linked from a stored row without a stored partner", stored, unchecked)
	if stored == 0 || unchecked == 0 {
		t.Fatal("no row stored, or none a check had to reject: the comparison was vacuous")
	}
}
