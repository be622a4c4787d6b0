package join

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/candidates"
	"repro/internal/decompose"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/kpartite"
	"repro/internal/pathindex"
	"repro/internal/refgraph"
)

// linkNeighbours adds reference sets over pairs of adjacent references, so
// the delta's graph has components whose members are one GU edge apart —
// where a query edge maps two of them together.
func linkNeighbours(t *testing.T, rng *rand.Rand, d *refgraph.PGD) entity.Delta {
	t.Helper()
	var dl entity.Delta
	for len(dl.NewSets) < 12 {
		a := refgraph.RefID(rng.Intn(d.NumRefs() - 1))
		members := []refgraph.RefID{a, a + 1}
		if _, ok := d.FindSet(members); ok {
			continue
		}
		sid, err := d.AddReferenceSet(members, 0.3+0.5*rng.Float64())
		if err != nil {
			t.Fatalf("AddReferenceSet: %v", err)
		}
		dl.NewSets = append(dl.NewSets, sid)
	}
	return dl
}

// assertClean fails unless the scratch is back in its initial state: every
// bit apply set and every undo entry it pushed has been taken back.
func assertClean(t *testing.T, s *scratch, when string) {
	t.Helper()
	for _, w := range s.compWords {
		if w != 0 {
			t.Fatalf("%s: component bitset not empty", when)
		}
	}
	if len(s.compUndo) != 0 || len(s.nodes) != 0 {
		t.Fatalf("%s: %d component undos, %d nodes left", when, len(s.compUndo), len(s.nodes))
	}
	for qn, v := range s.asn {
		if v != -1 {
			t.Fatalf("%s: query node %d still assigned", when, qn)
		}
	}
}

// TestIncrementalPrnEqualsPrn: the identity marginal apply carries forward
// is Graph.Prn of the assigned entities bit for bit after every accepted
// extension, and emit's is Prn of the mapping — over graphs whose identity
// components are dense enough that prefixes with two entities in one
// component are common (there apply and emit must fall back to Prn) as well
// as prefixes without, under both identity semantics, built and incrementally
// maintained. The walk is the enumeration's own depth-first order over a
// superset of its candidates; afterwards, and after real drains that run to
// the end or are stopped by the sink, the scratch must be clean — an
// unbalanced unwind fails here, not as a wrong probability three queries on.
func TestIncrementalPrnEqualsPrn(t *testing.T) {
	const alpha = 0.002
	ctx := context.Background()
	for _, sem := range []entity.Semantics{entity.SemanticsExample, entity.SemanticsFactor} {
		shared, unshared, emitShared, emitUnshared := 0, 0, 0, 0
		for seed := int64(1); seed <= 2; seed++ {
			d, err := gen.Synthetic(gen.SynthOptions{
				Refs: 120, EdgeFactor: 3, Labels: 2, UncertainFrac: 0.5,
				Groups: 24, GroupSize: 4, PairsPerGroup: 3, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			opt := entity.BuildOptions{Semantics: sem}
			built, err := entity.Build(d, opt)
			if err != nil {
				t.Fatal(err)
			}
			delta, _, err := entity.ApplyDelta(built, d, linkNeighbours(t, rand.New(rand.NewSource(seed)), d))
			if err != nil {
				t.Fatal(err)
			}
			for name, g := range map[string]*entity.Graph{"built": built, "delta": delta} {
				ix, err := pathindex.Build(ctx, g, pathindex.Options{MaxLen: 2, Beta: 0.05, Gamma: 0.1, Dir: filepath.Join(t.TempDir(), "ix")})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ix.Close() })
				qrng := rand.New(rand.NewSource(seed * 31))
				for qi := 0; qi < 3; qi++ {
					q, err := gen.RandomQuery(qrng, g.NumLabels(), 4, 3+qi%2)
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
					kg, err := kpartite.Build(ctx, g, q, dec, sets, alpha, 1)
					if err != nil {
						t.Fatal(err)
					}
					p := newPlan(g, q, dec, kg, Order(dec, OrderHeuristic), alpha)
					if !p.covers {
						t.Fatalf("semantics %d seed %d %s query %d: decomposition leaves a query node out", sem, seed, name, qi)
					}

					var stop atomic.Bool
					var s *scratch
					sink := func(_ int, m Match) bool {
						if got, want := m.Prn, g.Prn(m.Mapping); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("semantics %d seed %d %s query %d: match %v has Prn %v, Graph.Prn %v", sem, seed, name, qi, m.Mapping, got, want)
						}
						if s.sharedAt[len(p.order)] > 0 {
							emitShared++
						} else {
							emitUnshared++
						}
						return true
					}
					s = newScratch(p, ctx, 0, sink, &stop)
					var walk func(step int)
					walk = func(step int) {
						if step == len(p.order) {
							s.emit()
							return
						}
						sp := &p.steps[step]
						try := func(ci int) {
							if !kg.Alive(sp.part, ci) || !s.apply(step, sp.part, ci) {
								return
							}
							if got, want := s.prnAt[step+1], g.Prn(s.nodes); math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("semantics %d seed %d %s query %d: prefix %v has marginal %v, Graph.Prn %v", sem, seed, name, qi, s.nodes, got, want)
							}
							if s.sharedAt[step+1] > 0 {
								shared++
							} else {
								unshared++
							}
							walk(step + 1)
							s.undo(step)
						}
						if len(sp.joins) == 0 {
							for ci := 0; ci < kg.NumCandidates(sp.part); ci++ {
								try(ci)
							}
							return
						}
						for _, ci := range kg.Links(sp.joins[0].part, int(s.verts[sp.joins[0].pos]), sp.part) {
							try(int(ci))
						}
					}
					walk(0)
					assertClean(t, s, "after the checked walk")

					// The real drain, to the end and cut short by the sink.
					total := kg.NumCandidates(p.order[0])
					for _, cut := range []int{0, 3} {
						stop.Store(false)
						emitted := 0
						s = newScratch(p, ctx, 0, func(int, Match) bool {
							emitted++
							return emitted != cut
						}, &stop)
						var next atomic.Int64
						if err := s.drain(&next, 8, total); err != nil {
							t.Fatal(err)
						}
						assertClean(t, s, "after a drain")
					}
				}
			}
		}
		t.Logf("semantics %d: %d shared and %d unshared prefixes, %d shared and %d unshared matches", sem, shared, unshared, emitShared, emitUnshared)
		if shared == 0 || unshared == 0 || emitShared == 0 || emitUnshared == 0 {
			t.Errorf("semantics %d: %d shared and %d unshared prefixes, %d shared and %d unshared matches; one kind was never exercised",
				sem, shared, unshared, emitShared, emitUnshared)
		}
	}
}

// TestKeyedJoinExhausts: over keyed links (kpartite.BuildKeyed) a join that
// has nothing to find ends having emitted nothing, with its scratch clean,
// and what the unfiltered links cost it is bounded: every candidate the eager
// build's joinable would have filtered fails apply on the spot, so the keyed
// join makes at most the eager join's extension attempts divided by the share
// of key-matched pairs that are links. Queries are taken at thresholds above
// their best match; the ones whose partitions are still linked count.
func TestKeyedJoinExhausts(t *testing.T) {
	ctx := context.Background()
	d, err := gen.Synthetic(gen.SynthOptions{Refs: 300, EdgeFactor: 4, Labels: 3, UncertainFrac: 0.4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pathindex.Build(ctx, g, pathindex.Options{MaxLen: 2, Beta: 0.3, Gamma: 0.1, Dir: filepath.Join(t.TempDir(), "ix")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	attempts := func(p *plan) (ops, emitted int) {
		var stop atomic.Bool
		var next atomic.Int64
		s := newScratch(p, ctx, 0, func(int, Match) bool { emitted++; return true }, &stop)
		if err := s.drain(&next, 8, p.kg.NumCandidates(p.order[0])); err != nil {
			t.Fatal(err)
		}
		assertClean(t, s, "after the drain")
		return s.ops, emitted
	}
	rng := rand.New(rand.NewSource(11))
	linked := 0
	for qi := 0; qi < 12; qi++ {
		q, err := gen.RandomQuery(rng, g.NumLabels(), 4, 4+qi%2)
		if err != nil {
			t.Fatal(err)
		}
		for _, alpha := range []float64{0.2, 0.4, 0.6} {
			dec, err := decompose.Decompose(q, ix, decompose.Options{MaxLen: 2, Alpha: alpha})
			if err != nil {
				t.Fatal(err)
			}
			sets, _, err := candidates.Find(ctx, ix, q, dec, alpha, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			eager, err := kpartite.Build(ctx, g, q, dec, sets, alpha, 1)
			if err != nil {
				t.Fatal(err)
			}
			order := Order(dec, OrderHeuristic)
			keyed := kpartite.BuildKeyed(g, dec, sets, alpha, order)
			eagerOps, found := attempts(newPlan(g, q, dec, eager, order, alpha))
			if found > 0 || eager.NumLinks() == 0 {
				continue
			}
			linked++
			keyedOps, found := attempts(newPlan(g, q, dec, keyed, order, alpha))
			if found != 0 {
				t.Fatalf("query %d α=%v: %d matches over keyed links, none over eager ones", qi, alpha, found)
			}
			// keyedOps ≤ eagerOps ÷ (links ÷ key-matched pairs), in integers.
			if keyedOps*eager.NumLinks() > eagerOps*keyed.NumLinks() {
				t.Errorf("query %d α=%v: %d extension attempts over keyed links, %d over eager ones, with %d of %d key-matched pairs linked",
					qi, alpha, keyedOps, eagerOps, eager.NumLinks(), keyed.NumLinks())
			}
			t.Logf("query %d α=%v: %d attempts keyed, %d eager, %d of %d pairs linked", qi, alpha, keyedOps, eagerOps, eager.NumLinks(), keyed.NumLinks())
		}
	}
	if linked == 0 {
		t.Fatal("no query was matchless over linked partitions")
	}
}
