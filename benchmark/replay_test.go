package main

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/plan"
)

// The ledger is only worth reading while the staged replay does what the
// library does. This holds it to that: for every plan the planner can emit
// for a seeded query set the replay returns bitwise what core.MatchPlan
// returns, and the stages core.Match reports are exactly the stages the
// replay records a span for. An executor that grows, loses or renames a
// stage fails here instead of silently making the ledger lie.
func TestReplayMatchesExecutor(t *testing.T) {
	ctx := context.Background()
	s := specByName("lib-cyclic-first").smoke(300)
	d, err := s.corpus()
	if err != nil {
		t.Fatal(err)
	}
	sy, err := setUp(ctx, s, d, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sy.close()
	ix := sy.reader()

	shapes := append(specByName("lib-tree-collect").shapes(), s.shapes()...)
	shapes = append(shapes, specByName("serve-zipf").shapes()...)
	rng := rand.New(rand.NewSource(12))
	rec := newRecorder()
	plans, matches := 0, 0
	for _, sh := range shapes {
		q, err := sh.make(rng)
		if err != nil {
			t.Fatal(err)
		}
		all, err := plan.NewPlanner(ix, nil).Enumerate(ctx, q, plan.Options{
			Alpha: alpha, Strategy: core.StrategyOptimized.Name(), Space: plan.FullSpace(),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range all {
			want, err := core.MatchPlan(ctx, ix, pl, core.Options{Alpha: alpha})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1} {
				got, obs, err := replayPlan(ctx, rec, plans, ix, pl, 0, workers)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameMatches(got, want.Matches); err != nil {
					t.Fatalf("shape %s, plan %s/%v/%s, workers %d: replay differs from core.MatchPlan: %v",
						sh.name, pl.Tree.DecomposeMode, pl.Reduce, pl.Tree.JoinOrderMode, workers, err)
				}
				if obs.matches != len(want.Matches) || obs.paths != want.Stats.NumPaths {
					t.Fatalf("shape %s: replay saw %d matches over %d paths, executor %d over %d",
						sh.name, obs.matches, obs.paths, len(want.Matches), want.Stats.NumPaths)
				}
			}
			plans++
			matches += len(want.Matches)
		}

		// The first match of a limit-1 replay belongs to the full set.
		full, err := core.Match(ctx, ix, q, core.Options{Alpha: alpha})
		if err != nil {
			t.Fatal(err)
		}
		first, _, err := replay(ctx, rec, plans, ix, q, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkFirst(first, full.Matches); err != nil {
			t.Fatalf("shape %s: %v", sh.name, err)
		}
	}
	if plans < 2*len(shapes) || matches == 0 {
		t.Fatalf("only %d plans and %d matches over %d shapes: the test compared nothing", plans, matches, len(shapes))
	}
}

func TestReplayRecordsTheExecutorsStages(t *testing.T) {
	ctx := context.Background()
	s := specByName("lib-tree-collect").smoke(300)
	d, err := s.corpus()
	if err != nil {
		t.Fatal(err)
	}
	sy, err := setUp(ctx, s, d, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sy.close()
	q, err := s.shapes()[0].make(rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}

	var st core.Stats
	st, err = core.MatchStream(ctx, sy.reader(), q, core.Options{Alpha: alpha}, func(join.Match) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Stages) != len(replayStages) {
		t.Fatalf("executor reports %d stages %v, the replay knows %d: update replay.go", len(st.Stages), st.Stages, len(replayStages))
	}
	rec := newRecorder()
	if _, _, err := replay(ctx, rec, 0, sy.reader(), q, 0, 0); err != nil {
		t.Fatal(err)
	}
	recorded := make(map[string]bool)
	for _, sp := range rec.since(0) {
		recorded[sp.Name] = true
	}
	for i, stage := range st.Stages {
		if stage.Name != replayStages[i].stage {
			t.Errorf("executor stage %d is %q, the replay expects %q", i, stage.Name, replayStages[i].stage)
		}
		if !recorded[replayStages[i].span] {
			t.Errorf("the replay recorded no %q span for executor stage %q", replayStages[i].span, stage.Name)
		}
	}
}
