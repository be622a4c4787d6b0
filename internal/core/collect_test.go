package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/naive"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/query"
)

// matchesIdentical demands exact equality — mapping, Prle, Prn (bitwise),
// and order — between two result sets. A run must be indistinguishable
// from the oracle, not merely equal within a tolerance: every match's
// probability components are multiplied in the same fixed order whichever
// join order found it.
func matchesIdentical(t *testing.T, label string, want, got []join.Match) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if len(w.Mapping) != len(g.Mapping) {
			t.Fatalf("%s: match %d mapping length %d, want %d", label, i, len(g.Mapping), len(w.Mapping))
		}
		for k := range w.Mapping {
			if w.Mapping[k] != g.Mapping[k] {
				t.Fatalf("%s: match %d mapping[%d] = %d, want %d", label, i, k, g.Mapping[k], w.Mapping[k])
			}
		}
		if !sameBits(w.Prle, g.Prle) || !sameBits(w.Prn, g.Prn) {
			t.Fatalf("%s: match %d probabilities (%v, %v), want (%v, %v)",
				label, i, g.Prle, g.Prn, w.Prle, w.Prn)
		}
	}
}

// byProbOracle orders the naive oracle's matches (sorted by mapping) the
// way OrderByProb must: decreasing Pr, ties by mapping — a stable sort on
// Pr alone, independent of the executor's comparator.
func byProbOracle(ms []join.Match) []join.Match {
	out := slices.Clone(ms)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pr() > out[j].Pr() })
	return out
}

// equivalencePGD is the seeded synthetic corpus of the equivalence
// properties: 30 references, a handful of matches per query.
func equivalencePGD(t *testing.T, seed int64) (*entity.Graph, pathindex.Reader) {
	t.Helper()
	return buildPGD(t, gen.SynthOptions{
		Refs: 30, EdgeFactor: 2, Labels: 4, UncertainFrac: 0.4,
		Groups: 2, GroupSize: 3, PairsPerGroup: 2, Seed: seed,
	})
}

// richPGD is a corpus whose 4-node queries have thousands of matches, so a
// store spans many chunks and a bounded one evicts; richQuery is one such
// query (7 700 matches at α = 0.05).
func richPGD(t *testing.T) (*entity.Graph, pathindex.Reader) {
	t.Helper()
	return buildPGD(t, gen.SynthOptions{Refs: 300, Labels: 3, Seed: 5})
}

func richQuery(t *testing.T, g *entity.Graph) *query.Query {
	t.Helper()
	q, err := gen.RandomQuery(rand.New(rand.NewSource(94)), g.NumLabels(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func buildPGD(t *testing.T, opt gen.SynthOptions) (*entity.Graph, pathindex.Reader) {
	t.Helper()
	d, err := gen.Synthetic(opt)
	if err != nil {
		t.Fatalf("seed %d: Synthetic: %v", opt.Seed, err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatalf("seed %d: Build: %v", opt.Seed, err)
	}
	return g, buildIx(t, g, 2, 0.05)
}

// TestCollectEquivalence is the retained-run correctness property: on
// seeded random synthetic PGDs — small ones with a handful of matches and
// one with thousands (K = 300) — core.Match at Limit 0, 1 and K × both
// orders × both decomposition strategies is bitwise (mapping, Float64bits
// of Prle and Prn, order) what internal/naive says it must be: the whole
// set by mapping, or the best Limit by probability. An emit-order Limit
// keeps whichever matches the enumeration finds first, so there the answer
// must be a mapping-sorted part of the oracle's. The collect order is also
// held to plan.SortMatches' on a shuffled copy.
func TestCollectEquivalence(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	checked, cut := 0, 0
	for _, seed := range seeds {
		g, ix := equivalencePGD(t, seed)
		rng := rand.New(rand.NewSource(seed * 313))
		for qi := 0; qi < 3; qi++ {
			q, err := gen.RandomQuery(rng, g.NumLabels(), 2+rng.Intn(2), 3)
			if err != nil {
				t.Fatalf("seed %d: RandomQuery: %v", seed, err)
			}
			n, c := checkCollect(t, fmt.Sprintf("seed %d q%d", seed, qi), ix, q, 0.1, 5, seed^int64(qi))
			checked, cut = checked+n, cut+c
		}
	}
	if checked == 0 || cut == 0 {
		t.Fatalf("vacuous: %d oracle matches, %d kept by an emit-order Limit", checked, cut)
	}
	g, ix := richPGD(t)
	if n, _ := checkCollect(t, "rich", ix, richQuery(t, g), 0.05, 300, 1); n < 5000 {
		t.Fatalf("rich corpus has %d matches: too few to fill a store's chunks", n)
	}
}

// checkCollect holds core.Match over one query to the oracle at every
// Limit {0, 1, K} × order × strategy, and returns the oracle's match count
// and how many matches emit-order Limits kept.
func checkCollect(t *testing.T, name string, ix pathindex.Reader, q *query.Query, alpha float64, K int, randSeed int64) (checked, cut int) {
	t.Helper()
	ctx := context.Background()
	want, err := naive.Matches(ctx, ix.Graph(), q, alpha)
	if err != nil {
		t.Fatal(err)
	}
	wantByProb := byProbOracle(want)
	rng := rand.New(rand.NewSource(randSeed))
	for _, s := range []core.Strategy{core.StrategyOptimized, core.StrategyRandomDecomp} {
		for _, limit := range []int{0, 1, K} {
			label := fmt.Sprintf("%s %v limit %d", name, s, limit)
			run := func(order core.ResultOrder) *core.Result {
				res, err := core.Match(ctx, ix, q, core.Options{
					Alpha: alpha, Strategy: s, Limit: limit, Order: order,
					Seed: randSeed,
				})
				if err != nil {
					t.Fatalf("%s %v: %v", label, order, err)
				}
				if res.Stats.Matched != len(res.Matches) {
					t.Fatalf("%s %v: Matched %d, %d matches", label, order, res.Stats.Matched, len(res.Matches))
				}
				return res
			}

			top := run(core.OrderByProb)
			n := len(want)
			if limit > 0 {
				n = min(n, limit)
			}
			matchesIdentical(t, label+" prob vs naive", wantByProb[:n], top.Matches)
			if wantTrunc := limit > 0 && len(want) > limit; top.Stats.Truncated != wantTrunc {
				t.Fatalf("%s prob: Truncated %v, want %v", label, top.Stats.Truncated, wantTrunc)
			}

			all := run(core.OrderEmit)
			if limit == 0 {
				matchesIdentical(t, label+" emit vs naive", want, all.Matches)
				shuffled := slices.Clone(all.Matches)
				rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				plan.SortMatches(shuffled)
				matchesIdentical(t, label+" vs SortMatches", shuffled, all.Matches)
				if all.Stats.Truncated {
					t.Fatalf("%s emit: unlimited run flagged Truncated", label)
				}
				continue
			}
			emitCut := all.Matches
			if len(emitCut) != n || all.Stats.Truncated != (len(want) >= limit) {
				t.Fatalf("%s emit: %d matches Truncated %v, oracle has %d", label, len(emitCut), all.Stats.Truncated, len(want))
			}
			at := 0 // emitCut is a mapping-sorted subsequence of want
			for _, m := range emitCut {
				for at < len(want) && !slices.Equal(want[at].Mapping, m.Mapping) {
					at++
				}
				if at == len(want) {
					t.Fatalf("%s emit: %v is not in the oracle's answer, or out of order", label, m.Mapping)
				}
				matchesIdentical(t, label+" emit cut vs naive", want[at:at+1], []join.Match{m})
			}
			cut += len(emitCut)
		}
	}
	return len(want), cut
}

// TestTopKEquivalence: an OrderByProb stream reproduces, at Limit 0, 1 and
// K, the naive oracle's matches in decreasing probability byte for byte,
// including the Truncated flag, and every yielded match keeps its mapping
// after the run.
func TestTopKEquivalence(t *testing.T) {
	const alpha, K = 0.05, 300
	g, ix := richPGD(t)
	q := richQuery(t, g)
	oracle, err := naive.Matches(context.Background(), g, q, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle) <= K {
		t.Fatalf("workload too sparse: %d matches, K = %d", len(oracle), K)
	}
	want := byProbOracle(oracle)
	for _, limit := range []int{0, 1, K} {
		n := len(want)
		if limit > 0 {
			n = limit
		}
		var got []join.Match
		st, err := core.MatchStream(context.Background(), ix, q, core.Options{
			Alpha: alpha, Limit: limit, Order: core.OrderByProb,
		}, func(m join.Match) bool {
			got = append(got, m)
			return true
		})
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		matchesIdentical(t, fmt.Sprintf("topk limit %d", limit), want[:n], got)
		if st.Truncated != (limit > 0) || st.Matched != n {
			t.Fatalf("limit %d: Truncated %v Matched %d, want %v %d", limit, st.Truncated, st.Matched, limit > 0, n)
		}
	}
}

// TestEmitLimitIsDeterministic: an emit-order Limit keeps the first match
// the enumeration finds, so Limit 1 returns the same match every time,
// streamed or collected.
func TestEmitLimitIsDeterministic(t *testing.T) {
	_, ix := equivalencePGD(t, 7)
	q, err := gen.RandomQuery(rand.New(rand.NewSource(17)), ix.Graph().NumLabels(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opt := core.Options{Alpha: 0.05, Limit: 1}
	seq, err := core.Match(ctx, ix, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Matches) != 1 {
		t.Fatalf("Limit 1 returned %d matches", len(seq.Matches))
	}
	for i := 0; i < 50; i++ {
		var streamed []join.Match
		if _, err := core.MatchStream(ctx, ix, q, opt, func(m join.Match) bool {
			streamed = append(streamed, m)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		matchesIdentical(t, fmt.Sprintf("repeat %d streamed", i), seq.Matches, streamed)
		res, err := core.Match(ctx, ix, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		matchesIdentical(t, fmt.Sprintf("repeat %d collected", i), seq.Matches, res.Matches)
	}
}

// TestParallelLimitStops: an OrderEmit stream with a Limit stops the
// enumeration after exactly Limit yields and flags truncation.
func TestParallelLimitStops(t *testing.T) {
	d, err := gen.Synthetic(gen.SynthOptions{
		Refs: 30, EdgeFactor: 2, Labels: 4, UncertainFrac: 0.4,
		Groups: 2, GroupSize: 3, PairsPerGroup: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, g, 2, 0.05)
	rng := rand.New(rand.NewSource(17))
	q, err := gen.RandomQuery(rng, g.NumLabels(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.Match(context.Background(), ix, q, core.Options{Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Matches) < 2 {
		t.Skipf("workload too sparse: %d matches", len(full.Matches))
	}
	seen := 0
	st, err := core.MatchStream(context.Background(), ix, q,
		core.Options{Alpha: 0.05, Limit: 1},
		func(join.Match) bool {
			seen++
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 1 || st.Matched != 1 {
		t.Fatalf("limit 1: yielded %d, Matched %d", seen, st.Matched)
	}
	if !st.Truncated {
		t.Fatal("limit-stopped run not flagged Truncated")
	}
}

// TestParallelCancellationMidStream: cancelling the context from inside the
// yield of a stream run on the synthetic corpus surfaces ctx.Err().
func TestParallelCancellationMidStream(t *testing.T) {
	d, err := gen.Synthetic(gen.SynthOptions{
		Refs: 30, EdgeFactor: 2, Labels: 4, UncertainFrac: 0.4,
		Groups: 2, GroupSize: 3, PairsPerGroup: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, g, 2, 0.05)
	rng := rand.New(rand.NewSource(23))
	q, err := gen.RandomQuery(rng, g.NumLabels(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.Match(context.Background(), ix, q, core.Options{Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Matches) == 0 {
		t.Skip("workload has no matches")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	_, err = core.MatchStream(ctx, ix, q, core.Options{Alpha: 0.05},
		func(join.Match) bool {
			seen++
			cancel()
			return true
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-stream cancel: err = %v, want context.Canceled", err)
	}
	if seen == 0 {
		t.Fatal("yield never ran before cancellation")
	}
}
