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
	"repro/internal/fixtures"
	"repro/internal/gen"
	"repro/internal/live"
	"repro/internal/pathindex"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/refgraph"
)

func buildIx(t *testing.T, g *entity.Graph, L int, beta float64) *pathindex.Index {
	t.Helper()
	ix, err := pathindex.Build(context.Background(), g, pathindex.Options{
		MaxLen: L, Beta: beta, Gamma: 0.1, Dir: filepath.Join(t.TempDir(), "ix"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

func motivating(t *testing.T) (*entity.Graph, *pathindex.Index, *query.Query) {
	t.Helper()
	g, err := fixtures.MotivatingGraph()
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, g, 2, 0.01)
	alpha := g.Alphabet()
	q := query.New()
	q1 := q.AddNode(alpha.ID("r"))
	q2 := q.AddNode(alpha.ID("a"))
	q3 := q.AddNode(alpha.ID("i"))
	if err := q.AddEdge(q1, q2); err != nil {
		t.Fatal(err)
	}
	if err := q.AddEdge(q2, q3); err != nil {
		t.Fatal(err)
	}
	return g, ix, q
}

func TestFindMotivating(t *testing.T) {
	g, ix, q := motivating(t)
	dec, err := decompose.Decompose(q, ix, decompose.Options{MaxLen: 2, Alpha: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	sets, stats, err := Find(context.Background(), ix, q, dec, 0.2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != len(dec.Paths) {
		t.Fatalf("sets = %d, paths = %d", len(sets), len(dec.Paths))
	}
	total := 0
	for _, s := range sets {
		total += s.Len()
		stream := scanned(t, ix, s.Path.Labels, 0.2)
		for i := 0; i < s.Len(); i++ {
			nodes := s.Row(i)
			m, ok := stream[fmt.Sprint(nodes)]
			if !ok {
				t.Errorf("candidate %v was not scanned", nodes)
			}
			if pr := m.Pr(); pr+1e-9 < 0.2 {
				t.Errorf("candidate below threshold: %v %v", nodes, pr)
			}
			for x, u := range nodes {
				for _, v := range nodes[:x] {
					if g.RefsOverlap(u, v) {
						t.Errorf("candidate with shared refs: %v", nodes)
					}
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no candidates survived for a satisfiable query")
	}
	if stats.SSPath < stats.SSContext {
		t.Errorf("pruning grew the search space: %v → %v", stats.SSPath, stats.SSContext)
	}
}

// scanned is Scan's stream for the label sequence, keyed by fmt.Sprint of
// the row's nodes: what a kept row's path probability is held to, since Rows
// keeps only the row's entity ids.
func scanned(t *testing.T, ix pathindex.Reader, labels []prob.LabelID, alpha float64) map[string]pathindex.PathMatch {
	t.Helper()
	out := map[string]pathindex.PathMatch{}
	err := ix.Scan(labels, alpha, func(nodes []entity.ID, prle, prn float64) bool {
		out[fmt.Sprint(nodes)] = pathindex.PathMatch{Nodes: slices.Clone(nodes), Prle: prle, Prn: prn}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRowPrnIsGraphPrn: a candidate row keeps no Prn, and the k-partite
// graph evaluates its reduction weight w2 as Graph.Prn(row), so that and the
// Prn Scan streamed for the row must be one product. Every row of every label
// sequence of one to three labels is checked, which takes in the reversed and
// the palindromic sequences a packed index emits backwards, on three readers:
// the on-demand walk (α < β), which multiplies in row order and must agree
// bit for bit; a packed index at α ≥ β; and a live view with a dirty overlay,
// whose walks also grow paths at the head. On the last two Graph.Prn(row)
// must have the bits of the streamed Prn or of Graph.Prn over the row's
// entities in another order — the one a walk met them in. The corpus is dense
// in linkage, so each reader streams rows whose Prn bits do depend on that
// order; the count of rows where they differ is logged.
func TestRowPrnIsGraphPrn(t *testing.T) {
	readers := packedAndLive(t, gen.SynthOptions{
		Refs: 600, EdgeFactor: 3, Labels: 3, UncertainFrac: 0.5,
		Groups: 80, GroupSize: 3, PairsPerGroup: 3, Seed: 2,
	}, 40, func(rng *rand.Rand, d *refgraph.PGD) (live.Mutation, bool) {
		a := refgraph.RefID(rng.Intn(d.NumRefs() - 1))
		if rng.Intn(3) == 0 {
			return live.Mutation{Op: live.OpSetLinkage, Members: []refgraph.RefID{a, a + 1}, P: 0.3 + 0.5*rng.Float64()}, true
		}
		b := refgraph.RefID(rng.Intn(d.NumRefs()))
		return live.Mutation{Op: live.OpAddEdge, A: a, B: b, P: 0.5 + 0.5*rng.Float64()}, a != b
	})
	var seqs [][]prob.LabelID
	var grow func(X []prob.LabelID)
	grow = func(X []prob.LabelID) {
		if len(X) > 0 {
			seqs = append(seqs, X)
		}
		for l := 0; len(X) < 3 && l < readers["packed"].Graph().NumLabels(); l++ {
			grow(append(slices.Clip(X), prob.LabelID(l)))
		}
	}
	grow(nil)
	for _, c := range []struct {
		name, reader string
		alpha        float64 // β is 0.05
	}{{"on-demand", "packed", 0.02}, {"packed", "packed", 0.1}, {"live", "live", 0.02}, {"live", "live", 0.1}} {
		ix := readers[c.reader]
		g := ix.Graph()
		rows, sensitive, reordered, backwards := 0, 0, 0, 0
		for _, X := range seqs {
			rev := slices.Clone(X)
			slices.Reverse(rev)
			err := ix.Scan(X, c.alpha, func(nodes []entity.ID, _, prn float64) bool {
				rows++
				if slices.Compare(rev, X) <= 0 && len(X) > 1 {
					backwards++ // reversed or palindromic
				}
				orders := prnBitsInEveryOrder(g, nodes)
				if slices.ContainsFunc(orders, func(b uint64) bool { return b != orders[0] }) {
					sensitive++
				}
				if orders[0] == math.Float64bits(prn) {
					return true
				}
				reordered++
				if c.name == "on-demand" || !slices.Contains(orders, math.Float64bits(prn)) {
					t.Errorf("%s α=%v X=%v: row %v streamed Prn %v, Graph.Prn %v", c.name, c.alpha, X, nodes, prn, g.Prn(nodes))
					return false
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("%s α=%v: %d rows (%d of reversed or palindromic sequences), %d whose Prn bits depend on the order, %d streamed in another order than the row's",
			c.name, c.alpha, rows, backwards, sensitive, reordered)
		if sensitive == 0 || backwards == 0 {
			t.Errorf("%s α=%v: no row whose Prn depends on the order, or none of a reversed or palindromic sequence: the check is vacuous", c.name, c.alpha)
		}
	}
}

// prnBitsInEveryOrder returns the bits of Graph.Prn over every ordering of
// nodes, the row's own first.
func prnBitsInEveryOrder(g *entity.Graph, nodes []entity.ID) []uint64 {
	perm := slices.Clone(nodes)
	var out []uint64
	var permute func(k int)
	permute = func(k int) {
		if k == len(perm) {
			out = append(out, math.Float64bits(g.Prn(perm)))
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			permute(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	permute(0)
	return out
}

// Pruning soundness: every node of every true match must survive node-level
// candidacy, and the matched paths must survive path-level pruning.
func TestPruningSound(t *testing.T) {
	_, ix, q := motivating(t)
	nt := newNodeTest(ix, q, 0.2)
	// (s34, s2, s1) is the unique match at α=0.2.
	match := []entity.ID{fixtures.S34, fixtures.S2, fixtures.S1}
	for pos, v := range match {
		if !nt.sets[pos].Has(v) {
			t.Errorf("node-level pruning rejected true match node %d at position %d", v, pos)
		}
	}
}

func TestNodeSetCardinality(t *testing.T) {
	// A query node with two b-neighbors only matches entities with ≥ 2
	// b-labeled GU neighbors.
	alpha := prob.MustAlphabet("a", "b")
	d := refgraph.New(alpha)
	hub := d.AddReference(prob.Point(0))
	leaf1 := d.AddReference(prob.Point(1))
	leaf2 := d.AddReference(prob.Point(1))
	poor := d.AddReference(prob.Point(0))
	leaf3 := d.AddReference(prob.Point(1))
	for _, e := range [][2]refgraph.RefID{{hub, leaf1}, {hub, leaf2}, {poor, leaf3}} {
		if err := d.AddEdge(e[0], e[1], refgraph.EdgeDist{P: 1}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, g, 1, 0.1)

	q := query.New()
	center := q.AddNode(0)
	b1 := q.AddNode(1)
	b2 := q.AddNode(1)
	if err := q.AddEdge(center, b1); err != nil {
		t.Fatal(err)
	}
	if err := q.AddEdge(center, b2); err != nil {
		t.Fatal(err)
	}
	nt := newNodeTest(ix, q, 0.5)
	if !nt.sets[center].Has(entity.ID(hub)) {
		t.Error("hub rejected despite sufficient b-neighbors")
	}
	if nt.sets[center].Has(entity.ID(poor)) {
		t.Error("poor node accepted with c(v,b)=1 < c(n,b)=2")
	}
	// The memo returns the same answer.
	if !newNodeTest(ix, q, 0.5).sets[center].Has(entity.ID(hub)) {
		t.Error("memoized result differs")
	}
}

func TestPathCyclePruning(t *testing.T) {
	// Triangle query over a graph that has a 3-path but no closing edge:
	// cpr = 0 must prune the candidate.
	alpha := prob.MustAlphabet("a", "b", "c")
	d := refgraph.New(alpha)
	na := d.AddReference(prob.Point(0))
	nb := d.AddReference(prob.Point(1))
	nc := d.AddReference(prob.Point(2))
	if err := d.AddEdge(na, nb, refgraph.EdgeDist{P: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(nb, nc, refgraph.EdgeDist{P: 1}); err != nil {
		t.Fatal(err)
	}
	// No edge a–c.
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, g, 2, 0.1)

	q := query.New()
	qa := q.AddNode(0)
	qb := q.AddNode(1)
	qc := q.AddNode(2)
	for _, e := range [][2]query.NodeID{{qa, qb}, {qb, qc}, {qa, qc}} {
		if err := q.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := decompose.Decompose(q, ix, decompose.Options{MaxLen: 2, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	sets, _, err := Find(context.Background(), ix, q, dec, 0.5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Any 2-edge path in the decomposition has a chord; its (a,b,c)
	// candidate must be pruned by cpr = 0.
	for _, s := range sets {
		if len(s.Path.Info.Cycles) > 0 && s.Len() != 0 {
			t.Errorf("chord-bearing path kept candidates: %+v", s.Nodes)
		}
	}
}
