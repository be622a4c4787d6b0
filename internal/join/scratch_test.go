package join

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/candidates"
	"repro/internal/decompose"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/kpartite"
	"repro/internal/pathindex"
	"repro/internal/query"
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

// TestKeyedJoinExhausts is the no-match control of key-walked joins: over a
// walked graph (kpartite.Walked) a join whose first partition has rows but
// which has nothing to find ends having emitted nothing, with its scratch
// clean. It walks every root of the first partition once, and those walks
// keep exactly the rows of the partition's empty key. It asks every other
// partition for the rows of each key at most once: the walks of a partition
// are exactly the distinct keys the join's prefixes bound at its checked
// positions, counted here by a walk of its own over another graph; and a
// partition holds exactly the rows its walks kept, each under one key. A
// second run over the same graph walks every root again and no key. Queries
// are taken at thresholds above their best match; the ones whose first
// partition is not empty count.
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
	drain := func(p *plan) (walks []int, emitted int) {
		var stop atomic.Bool
		s := newScratch(p, ctx, 0, func(int, Match) bool { emitted++; return true }, &stop)
		if err := s.roots(); err != nil {
			t.Fatal(err)
		}
		assertClean(t, s, "after the drain")
		for b := 0; b < p.kg.NumPartitions(); b++ {
			w, _ := p.kg.Walks(b)
			walks = append(walks, w)
		}
		return walks, emitted
	}
	// keys lists, by partition, the distinct join keys the prefixes of p's
	// order bind at each step's checked positions, and the rows under them.
	keys := func(p *plan) []map[string][2]int {
		out := make([]map[string][2]int, len(p.order))
		for b := range out {
			out[b] = map[string][2]int{}
		}
		var stop atomic.Bool
		s := newScratch(p, ctx, 0, func(int, Match) bool { return true }, &stop)
		var walk func(step int)
		walk = func(step int) {
			if step == len(p.order) {
				return
			}
			sp := &p.steps[step]
			var key []entity.ID
			for _, c := range sp.check {
				key = append(key, s.asn[c.qn])
			}
			lo, hi := p.kg.Walk(sp.part, sp.keyPos, key)
			out[sp.part][fmt.Sprint(sp.keyPos, key)] = [2]int{lo, hi}
			for ci := lo; ci < hi; ci++ {
				if s.apply(step, sp.part, ci) {
					walk(step + 1)
					s.undo(step)
				}
			}
		}
		walk(0)
		assertClean(t, s, "after the key walk")
		return out
	}
	walked := func(dec *decompose.Decomposition, q *query.Query, alpha float64) *kpartite.Graph {
		return kpartite.Walked(g, dec, candidates.NewKeyWalks(ix, q, dec, alpha))
	}
	rng := rand.New(rand.NewSource(11))
	matchless, walksTotal := 0, 0
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
			order := Order(dec, OrderHeuristic)
			p := newPlan(g, q, dec, walked(dec, q, alpha), order, alpha)
			walks, found := drain(p)
			if _, rows := p.kg.Walks(order[0]); found > 0 || rows == 0 {
				continue
			}
			matchless++
			want := keys(newPlan(g, q, dec, walked(dec, q, alpha), order, alpha))
			for b, w := range walks {
				at := fmt.Sprintf("query %d α=%v partition %d", qi, alpha, b)
				if b == order[0] {
					roots := 0
					for _, word := range p.kg.Roots(b) {
						roots += bits.OnesCount64(word)
					}
					_, kept := p.kg.Walks(b)
					span := want[b][fmt.Sprint([]int32(nil), []entity.ID(nil))]
					if w != roots || kept != span[1]-span[0] {
						t.Fatalf("%s: %d root walks keeping %d rows; %d roots, whose rows are %d", at, w, kept, roots, span[1]-span[0])
					}
					continue
				}
				if w != len(want[b]) {
					t.Fatalf("%s: %d key walks, the join's prefixes bind %d distinct keys", at, w, len(want[b]))
				}
				spans, kept := 0, 0
				for _, span := range want[b] {
					spans += span[1] - span[0]
				}
				if _, kept = p.kg.Walks(b); w > 0 && kept != spans || kept != p.kg.NumCandidates(b) {
					t.Fatalf("%s: the walks kept %d rows, the partition holds %d, its keys' rows are %d", at, kept, p.kg.NumCandidates(b), spans)
				}
				walksTotal += w
			}
			again, _ := drain(p)
			walks[order[0]] *= 2
			if !slices.Equal(again, walks) {
				t.Fatalf("query %d α=%v: a second drain over the same graph brought the walks to %v, want %v", qi, alpha, again, walks)
			}
		}
	}
	t.Logf("%d matchless runs over a non-empty first partition, %d key walks", matchless, walksTotal)
	if matchless == 0 || walksTotal == 0 {
		t.Fatal("no query was matchless over a non-empty first partition, or none walked a key")
	}
}
