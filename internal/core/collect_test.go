package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/pathindex"
)

// synthIx is a packed index over a seeded 30-reference gen.Synthetic
// corpus, a handful of matches per small query.
func synthIx(t *testing.T, seed int64) pathindex.Reader {
	t.Helper()
	d, err := gen.Synthetic(gen.SynthOptions{
		Refs: 30, EdgeFactor: 2, Labels: 4, UncertainFrac: 0.4,
		Groups: 2, GroupSize: 3, PairsPerGroup: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return buildIx(t, g, 2, 0.05)
}

// TestEmitLimitIsDeterministic: an emit-order Limit keeps the first match
// the enumeration finds, so Limit 1 returns the same match every time,
// streamed or collected.
func TestEmitLimitIsDeterministic(t *testing.T) {
	ix := synthIx(t, 7)
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
	ix := synthIx(t, 7)
	q, err := gen.RandomQuery(rand.New(rand.NewSource(17)), ix.Graph().NumLabels(), 2, 2)
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
	ix := synthIx(t, 9)
	q, err := gen.RandomQuery(rand.New(rand.NewSource(23)), ix.Graph().NumLabels(), 2, 2)
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
