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
	"repro/internal/join"
	"repro/internal/naive"
	"repro/internal/plan"
)

// byProbability orders naive's matches (sorted by mapping) the way
// OrderByProb must: decreasing Pr, ties by mapping.
func byProbability(ms []join.Match) []join.Match {
	out := slices.Clone(ms)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pr() > out[j].Pr() })
	return out
}

// TestStreamEquivalence: the collect-all adapter and a manual MatchStream
// collection return naive's answer bit for bit, for both emission orders,
// on random PGDs with label-conditioned edges: the emit-order stream once
// sorted by mapping, the OrderByProb stream and collect as delivered.
func TestStreamEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4711))
	for trial := 0; trial < 6; trial++ {
		nLabels := rng.Intn(2) + 2
		d := randomPGD(rng, nLabels, rng.Intn(12)+8)
		g, err := entity.Build(d, entity.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ix := buildIx(t, g, 2, 0.05)
		q := randomConnectedQuery(rng, nLabels, rng.Intn(3)+2, rng.Intn(2))
		want, err := naive.Matches(context.Background(), g, q, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		for _, order := range []core.ResultOrder{core.OrderEmit, core.OrderByProb} {
			at := fmt.Sprintf("trial %d %v", trial, order)
			opt := core.Options{Alpha: 0.1, Order: order}
			res, err := core.Match(context.Background(), ix, q, opt)
			if err != nil {
				t.Fatalf("%s: Match: %v", at, err)
			}
			var streamed []join.Match
			st, err := core.MatchStream(context.Background(), ix, q, opt, func(m join.Match) bool {
				streamed = append(streamed, m)
				return true
			})
			if err != nil {
				t.Fatalf("%s: MatchStream: %v", at, err)
			}
			if st.Matched != len(streamed) {
				t.Errorf("%s: Stats.Matched = %d, want %d", at, st.Matched, len(streamed))
			}
			if st.Truncated {
				t.Errorf("%s: unlimited run reported Truncated", at)
			}
			if order == core.OrderEmit {
				plan.SortMatches(streamed)
				matchesIdentical(t, at+" collect vs naive", want, res.Matches)
				matchesIdentical(t, at+" stream vs naive", want, streamed)
			} else {
				matchesIdentical(t, at+" collect vs naive", byProbability(want), res.Matches)
				matchesIdentical(t, at+" stream vs naive", byProbability(want), streamed)
			}
		}
	}
}

// TestTopKMatchesBruteForce is the Limit=K property: for every K, the
// limited OrderByProb run returns exactly the first K entries of the
// probability-sorted brute-force match set, bit for bit.
func TestTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(90125))
	trials := 10
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		nLabels := rng.Intn(2) + 2
		d := randomPGD(rng, nLabels, rng.Intn(12)+8)
		g, err := entity.Build(d, entity.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ix := buildIx(t, g, 2, 0.05)
		q := randomConnectedQuery(rng, nLabels, rng.Intn(3)+2, rng.Intn(2))
		alpha := []float64{0.05, 0.2}[rng.Intn(2)]

		want, err := naive.Matches(context.Background(), g, q, alpha)
		if err != nil {
			t.Fatal(err)
		}
		want = byProbability(want)

		for _, k := range []int{1, 2, 3, len(want), len(want) + 5} {
			if k <= 0 {
				continue
			}
			res, err := core.Match(context.Background(), ix, q, core.Options{
				Alpha: alpha, Limit: k, Order: core.OrderByProb,
			})
			if err != nil {
				t.Fatalf("trial %d K=%d: %v", trial, k, err)
			}
			matchesIdentical(t, fmt.Sprintf("trial %d K=%d", trial, k), want[:min(k, len(want))], res.Matches)
			if wantTrunc := k < len(want); res.Stats.Truncated != wantTrunc {
				t.Errorf("trial %d K=%d: Truncated = %v, want %v (of %d)",
					trial, k, res.Stats.Truncated, wantTrunc, len(want))
			}
		}
	}
}

// TestLimitEmitStopsEnumeration: with OrderEmit, Limit=K yields exactly K
// matches (when at least K exist), each a member of the unlimited match
// set, with the truncation flagged.
func TestLimitEmitStopsEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(7321))
	d := randomPGD(rng, 2, 14)
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, g, 2, 0.05)
	q := randomConnectedQuery(rng, 2, 2, 1)

	full, err := core.Match(context.Background(), ix, q, core.Options{Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Matches) < 3 {
		t.Skipf("workload too sparse: %d matches", len(full.Matches))
	}
	inFull := make(map[string]bool, len(full.Matches))
	for _, m := range full.Matches {
		inFull[mappingKey(m)] = true
	}
	for _, k := range []int{1, 2, len(full.Matches) - 1} {
		res, err := core.Match(context.Background(), ix, q, core.Options{Alpha: 0.05, Limit: k})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if len(res.Matches) != k {
			t.Fatalf("K=%d: got %d matches", k, len(res.Matches))
		}
		if !res.Stats.Truncated {
			t.Errorf("K=%d: truncation not flagged", k)
		}
		if res.Stats.Matched != k {
			t.Errorf("K=%d: Stats.Matched = %d", k, res.Stats.Matched)
		}
		for _, m := range res.Matches {
			if !inFull[mappingKey(m)] {
				t.Errorf("K=%d: match %v not in the unlimited set", k, m.Mapping)
			}
		}
	}
}

func mappingKey(m join.Match) string {
	buf := make([]byte, 0, len(m.Mapping)*4)
	for _, v := range m.Mapping {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(buf)
}

// TestCancellationMidStream: cancelling the context from inside the yield
// aborts the enumeration with ctx.Err() — the error, not a silently
// truncated success.
func TestCancellationMidStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7321))
	d := randomPGD(rng, 2, 14)
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, g, 2, 0.05)
	q := randomConnectedQuery(rng, 2, 2, 1)
	full, err := core.Match(context.Background(), ix, q, core.Options{Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Matches) < 2 {
		t.Skipf("workload too sparse: %d matches", len(full.Matches))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	_, err = core.MatchStream(ctx, ix, q, core.Options{Alpha: 0.05}, func(join.Match) bool {
		seen++
		cancel()
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("MatchStream after mid-stream cancel: err = %v, want context.Canceled", err)
	}
	if seen == 0 {
		t.Fatal("yield never ran before cancellation")
	}
	// The collect-all adapter discards partial results on error.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	cancel2()
	res, err := core.Match(ctx2, ix, q, core.Options{Alpha: 0.05})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Match on cancelled ctx: err = %v", err)
	}
	if res != nil {
		t.Fatalf("Match on cancelled ctx returned partial results: %+v", res)
	}
}

// TestMatchSeq: the iterator wrapper delivers the same matches as Match and
// stops the enumeration when the consumer breaks.
func TestMatchSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(7321))
	d := randomPGD(rng, 2, 14)
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, g, 2, 0.05)
	q := randomConnectedQuery(rng, 2, 2, 1)
	full, err := core.Match(context.Background(), ix, q, core.Options{Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}

	var collected []join.Match
	for m, err := range core.MatchSeq(context.Background(), ix, q, core.Options{Alpha: 0.05}) {
		if err != nil {
			t.Fatalf("MatchSeq: %v", err)
		}
		collected = append(collected, m)
	}
	plan.SortMatches(collected) // a stream's order is the enumeration's
	matchesIdentical(t, "MatchSeq vs Match", full.Matches, collected)

	if len(full.Matches) >= 2 {
		n := 0
		for _, err := range core.MatchSeq(context.Background(), ix, q, core.Options{Alpha: 0.05}) {
			if err != nil {
				t.Fatalf("MatchSeq: %v", err)
			}
			n++
			break
		}
		if n != 1 {
			t.Errorf("break after first iteration saw %d matches", n)
		}
	}

	// A failed run yields exactly one (zero, err) pair.
	sawErr := false
	for m, err := range core.MatchSeq(context.Background(), ix, q, core.Options{Alpha: -1}) {
		if err == nil {
			t.Fatalf("invalid options yielded a match: %v", m)
		}
		sawErr = true
	}
	if !sawErr {
		t.Error("invalid options yielded nothing")
	}
}

// TestStreamOptionValidation: malformed streaming options fail fast.
func TestStreamOptionValidation(t *testing.T) {
	g, err := entity.Build(randomPGD(rand.New(rand.NewSource(1)), 2, 8), entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, g, 1, 0.1)
	q := randomConnectedQuery(rand.New(rand.NewSource(1)), 2, 2, 0)
	nop := func(join.Match) bool { return true }
	if _, err := core.MatchStream(context.Background(), ix, q, core.Options{Alpha: 0.5, Limit: -1}, nop); err == nil {
		t.Error("negative limit accepted")
	}
	if _, err := core.MatchStream(context.Background(), ix, q, core.Options{Alpha: 0.5, Order: core.ResultOrder(99)}, nop); err == nil {
		t.Error("unknown order accepted")
	}
}
