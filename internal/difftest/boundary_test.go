package difftest

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/entity"
	"repro/internal/join"
	"repro/internal/naive"
	"repro/internal/pathindex"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/refgraph"
)

// TestBoundaryAnswers runs checkAnswers at every α on the edge of a
// decision. Each pruning site multiplies its bound in its own order, so a
// bound can land a few ulps below the product that decides membership;
// prob.MayClear must admit it. On 12 seeded corpora of boundaryArm, α is
// each boundary b (boundaries) and b one ulp either side, over a packed
// index and a zero live view; at a match's boundary the oracle itself
// must keep the match exactly up to b. A path whose probability sits just
// below α on a bucket floor of the packed index, where a lookup starts
// decoding, is found too. The seeds run in parallel.
func TestBoundaryAnswers(t *testing.T) {
	var alphas, cases atomic.Int64
	t.Run("seeds", func(t *testing.T) {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprint(seed), func(t *testing.T) {
				t.Parallel()
				a, c := boundarySeed(t, seed)
				alphas.Add(int64(a))
				cases.Add(int64(c))
			})
		}
	})
	t.Logf("%d cases at %d boundary α", cases.Load(), alphas.Load())
	if alphas.Load() < 500 {
		t.Fatalf("%d boundary α: too few for the comparison to mean anything", alphas.Load())
	}
	bucketFloorLookups(t)
}

// boundarySeed runs TestBoundaryAnswers on one seeded corpus, returning
// its boundary α and cases.
func boundarySeed(t *testing.T, seed int64) (alphas, cases int) {
	t.Helper()
	co := corpusOf(t, &boundaryArm, seed)
	ix := co.readers[packed]
	for qi, q := range co.queries {
		all, err := naive.Matches(context.Background(), ix.Graph(), q, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range boundaries(ix, q, all) {
			for _, alpha := range []float64{math.Nextafter(b.at, 0), b.at, math.Nextafter(b.at, 2)} {
				if alpha > 1 {
					continue
				}
				alphas++
				for _, kind := range boundaryArm.readers {
					c := co.newCase(t, kind, qi, alpha, cases)
					if b.match != nil {
						kept := slices.ContainsFunc(c.want, func(w join.Match) bool { return slices.Equal(w.Mapping, b.match) })
						if kept != (alpha <= b.at) {
							t.Fatalf("%s: the oracle keeps %v: %v, want %v", c.label, b.match, kept, alpha <= b.at)
						}
					}
					cases += checkAnswers(t, c).cases
				}
			}
		}
	}
	return alphas, cases
}

// A boundary is the highest α at which a decision still goes the keeping
// way: at a match's, the match clears; at a node-level factor's, the
// entity passes the node-level test.
type boundary struct {
	at    float64
	match []entity.ID // the match whose boundary it is, if any
}

// boundaries are the decision points of q over ix, given the oracle's
// answer at a negligible α:
//
//   - each of the first 16 matches' b = Prle·Prn + 1e-12, the highest α at
//     which it clears;
//   - the node-level factors that bound some match tightly: for a match
//     and a query node n labelled l whose neighbour-label counts are
//     c(n,·), the entity v it maps n to has lp = Pr(v.l = l) and, per σ
//     with k = c(n,σ) > 0, lp·fpu(v,σ)^k, multiplied in that order; a
//     factor within 1e-13 of the match's probability decides whether the
//     match survives the node-level sets at α = factor + 1e-12.
const perQuery = 4

func boundaries(ix pathindex.Reader, q *query.Query, all []join.Match) []boundary {
	var bs []boundary
	for _, m := range all[:min(perQuery, len(all))] {
		bs = append(bs, boundary{at: m.Prle*m.Prn + 1e-12, match: m.Mapping})
	}
	g, ctx := ix.Graph(), ix.Context()
	seen := map[float64]bool{}
	tight := func(f, pr float64) {
		if f < pr && !seen[f] {
			seen[f] = true
			bs = append(bs, boundary{at: f + 1e-12})
		}
	}
	for _, m := range all {
		pr := m.Prle * m.Prn
		for n := range q.NumNodes() {
			node := query.NodeID(n)
			v, l := m.Mapping[n], q.Label(node)
			lp := g.PrLabel(v, l)
			tight(lp, pr)
			for sigma, k := range q.NeighborLabelCounts(node, g.NumLabels()) {
				if k == 0 {
					continue
				}
				bound, f := lp, ctx.Row(v).FPU(prob.LabelID(sigma))
				for range k {
					bound *= f
				}
				tight(bound, pr)
			}
		}
	}
	return bs
}

// bucketFloorLookups: a packed lookup at an α on a bucket floor starts
// decoding at that bucket, so a path filed one bucket lower because its
// probability is a hair below α must still be found there. Two references
// joined by one edge of probability α − 5e-13; a two-node query at α 0.1,
// 0.2 and 0.5 matches that edge, either way round.
func bucketFloorLookups(t *testing.T) {
	for i, alpha := range []float64{0.1, 0.2, 0.5} {
		d := refgraph.New(prob.MustAlphabet("a"))
		d.AddReference(prob.Point(0))
		d.AddReference(prob.Point(0))
		if err := d.AddEdge(0, 1, refgraph.EdgeDist{P: alpha - 5e-13}); err != nil {
			t.Fatal(err)
		}
		ix, err := newReader(t.TempDir(), packed, d, boundaryArm.index, 0)
		if err != nil {
			t.Fatal(err)
		}
		q := query.New()
		q.AddNode(0)
		q.AddNode(0)
		if err := q.AddEdge(0, 1); err != nil {
			t.Fatal(err)
		}
		a := &arm{name: "bucket-floor", k: 1}
		co := &corpus{arm: a, seed: int64(i), readers: map[string]pathindex.Reader{packed: ix}, queries: []*query.Query{q}}
		c := co.newCase(t, packed, 0, alpha, i)
		if len(c.want) == 0 {
			t.Fatalf("%s: the oracle has no match", c.label)
		}
		checkAnswers(t, c)
	}
}
