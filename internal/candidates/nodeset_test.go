package candidates

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/decompose"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/pathindex"
	"repro/internal/prob"
	"repro/internal/query"
)

// pathFilter is the node filter scanPath hands the reader for p: the sets
// of the path's query nodes, by position.
func pathFilter(nt *nodeTest, p *decompose.Path) pathindex.NodeFilter {
	keep := make(pathindex.NodeFilter, len(p.Nodes))
	for pos, n := range p.Nodes {
		keep[pos] = nt.sets[n]
	}
	return keep
}

// cnRef is the node-level test of Section 5.2.2 for entity v and query node
// n as a per-entity predicate, tested label by label as it was before the
// test became sets: the reference the node sets are held to.
func cnRef(g *entity.Graph, c *pathindex.Context, q *query.Query, alpha float64, v entity.ID, n query.NodeID) bool {
	lp := g.PrLabel(v, q.Label(n))
	if !prob.MayClear(lp, alpha, 1) {
		return false
	}
	row := c.Row(v)
	for sigma, need := range q.NeighborLabelCounts(n, g.NumLabels()) {
		if need == 0 {
			continue
		}
		s := prob.LabelID(sigma)
		if row.Card(s) < need {
			return false
		}
		bound := lp
		f := row.FPU(s)
		for i := 0; i < need; i++ {
			bound *= f
		}
		if !prob.MayClear(bound, alpha, prob.Factors(1+need, need)) {
			return false
		}
	}
	return true
}

// sameAsRef compares set, the reader's answer for query node n, bit for bit
// with cnRef over the entities carrying n's label, checks that it holds no
// other entity and no bit past the last entity, and returns how many
// entities carrying the label it holds and how many it leaves out.
func sameAsRef(t *testing.T, label string, ix pathindex.Reader, q *query.Query, alpha float64, n query.NodeID, set pathindex.NodeSet) (in, out int) {
	t.Helper()
	g, c, l := ix.Graph(), ix.Context(), q.Label(n)
	if want := (g.NumNodes() + 63) / 64; len(set) != want {
		t.Fatalf("%s: node %d's set has %d words, want %d", label, n, len(set), want)
	}
	if tail := g.NumNodes() % 64; tail != 0 && set[len(set)-1]>>tail != 0 {
		t.Fatalf("%s: node %d's set has bits past entity %d", label, n, g.NumNodes()-1)
	}
	for i := range g.NumNodes() {
		v := entity.ID(i)
		has := g.HasLabel(v, l)
		if got := set.Has(v); !has && got {
			t.Fatalf("%s: node %d's set holds entity %d, which does not carry label %d", label, n, v, l)
		} else if has && got != cnRef(g, c, q, alpha, v, n) {
			t.Fatalf("%s: node %d's set says %v for entity %d, the per-entity test %v", label, n, got, v, !got)
		}
		switch {
		case !has:
		case set.Has(v):
			in++
		default:
			out++
		}
	}
	return in, out
}

// TestNodeSetEqualsCheck: the set a reader returns for a query node is
// exactly the entities carrying its label that pass the per-entity test,
// and nothing else — on a static index, a clean live view and a live view
// whose overlay holds label, edge and set mutations, over the default and
// a dense-linkage corpus, random queries and α from below the shared
// tolerance to 1. Each set is read twice: cold, and from the memo.
func TestNodeSetEqualsCheck(t *testing.T) {
	for _, corpus := range []struct {
		name string
		opt  gen.SynthOptions
	}{
		{"default", gen.SynthOptions{Refs: 300, EdgeFactor: 2, Labels: 3, UncertainFrac: 0.4, Seed: 31}},
		{"dense-linkage", gen.SynthOptions{Refs: 300, EdgeFactor: 2, Labels: 3, UncertainFrac: 0.4, Groups: 24, GroupSize: 4, PairsPerGroup: 3, Seed: 32}},
	} {
		for kind, fresh := range freshReaders(t, corpus.opt) {
			ix := fresh()
			rng := rand.New(rand.NewSource(corpus.opt.Seed))
			var in, out int
			for qi := 0; qi < 6; qi++ {
				q, err := gen.RandomQuery(rng, corpus.opt.Labels, 2+rng.Intn(4), 6)
				if err != nil {
					t.Fatal(err)
				}
				for _, alpha := range []float64{1e-13, 0.02, 0.3, 1} {
					for read := range 2 {
						for i := range q.NumNodes() {
							n := query.NodeID(i)
							label := fmt.Sprintf("%s %s q%d α=%v read %d", corpus.name, kind, qi, alpha, read)
							set := ix.NodeSet(q.Label(n), q.NeighborLabelCounts(n, ix.Graph().NumLabels()), alpha)
							a, b := sameAsRef(t, label, ix, q, alpha, n, set)
							in, out = in+a, out+b
						}
					}
				}
			}
			t.Logf("%s %s: %d labelled entities in the sets, %d left out", corpus.name, kind, in, out)
			if in == 0 || out == 0 {
				t.Errorf("%s %s: the sets hold %d labelled entities and leave out %d; want some of each", corpus.name, kind, in, out)
			}
		}
	}
}

// TestNodeSetsConcurrent: eight goroutines read the sets of every node of
// a query from one cold index at once, in rotated orders so that first
// reads of one factor collide; every set equals the per-entity test. The
// race step runs this at several processor counts.
func TestNodeSetsConcurrent(t *testing.T) {
	g, ix := synthIx(t, 5)
	q, err := gen.RandomQuery(rand.New(rand.NewSource(5)), g.NumLabels(), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	const alpha = 0.05
	sets := make([][]pathindex.NodeSet, 8)
	var wg sync.WaitGroup
	for w := range sets {
		sets[w] = make([]pathindex.NodeSet, q.NumNodes())
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range q.NumNodes() {
				n := query.NodeID((i + w) % q.NumNodes())
				sets[w][n] = ix.NodeSet(q.Label(n), q.NeighborLabelCounts(n, g.NumLabels()), alpha)
			}
		}()
	}
	wg.Wait()
	for w := range sets {
		for i, set := range sets[w] {
			sameAsRef(t, fmt.Sprintf("worker %d", w), ix, q, alpha, query.NodeID(i), set)
		}
	}
}
