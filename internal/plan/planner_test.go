package plan

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/decompose"
	"repro/internal/fixtures"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/pathindex"
	"repro/internal/query"
)

func buildIx(t testing.TB) (*pathindex.Index, *query.Query) {
	t.Helper()
	g, err := fixtures.MotivatingGraph()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pathindex.Build(context.Background(), g, pathindex.Options{
		MaxLen: 2, Beta: 0.02, Gamma: 0.1, Dir: filepath.Join(t.TempDir(), "ix"),
	})
	if err != nil {
		t.Fatalf("pathindex.Build: %v", err)
	}
	t.Cleanup(func() { ix.Close() })

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
	return ix, q
}

// TestEnumerateFullSpace checks the planner enumerates the whole candidate
// space, sorted by cost with the tree carrying the rejected alternatives.
func TestEnumerateFullSpace(t *testing.T) {
	ix, q := buildIx(t)
	p := NewPlanner(ix, nil)
	plans, err := p.Enumerate(context.Background(), q, Options{Alpha: 0.05, Strategy: "optimized", Space: FullSpace()})
	if err != nil {
		t.Fatal(err)
	}
	// 2 modes × 2 orders × 2 reduce settings. Both modes must have covered
	// this query (it is a simple path).
	if len(plans) != 8 {
		t.Fatalf("got %d candidate plans, want 8", len(plans))
	}
	for i := 1; i < len(plans); i++ {
		if plans[i].Tree.Cost.Total < plans[i-1].Tree.Cost.Total {
			t.Fatalf("plans not sorted by cost: %v after %v",
				plans[i].Tree.Cost.Total, plans[i-1].Tree.Cost.Total)
		}
	}
	best, err := p.Plan(context.Background(), q, Options{Alpha: 0.05, Strategy: "optimized", Space: FullSpace()})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(best.Tree.Alternatives); got != 7 {
		t.Fatalf("best plan lists %d alternatives, want 7", got)
	}
	if best.Tree.Cost.Total != plans[0].Tree.Cost.Total {
		t.Fatalf("Plan cost %v != cheapest enumerated %v", best.Tree.Cost.Total, plans[0].Tree.Cost.Total)
	}
	for _, alt := range best.Tree.Alternatives {
		if alt.Cost < best.Tree.Cost.Total {
			t.Fatalf("alternative cheaper (%v) than the chosen plan (%v)", alt.Cost, best.Tree.Cost.Total)
		}
	}
}

// TestPlanDeterminism: identical inputs must yield identical plans (the
// plan cache and the explain-equals-execution contract rely on it).
func TestPlanDeterminism(t *testing.T) {
	ix, q := buildIx(t)
	p := NewPlanner(ix, nil)
	opt := Options{Alpha: 0.05, Strategy: "optimized", Space: FullSpace()}
	a, err := p.Plan(context.Background(), q, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Plan(context.Background(), q, opt)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a.Tree)
	jb, _ := json.Marshal(b.Tree)
	if string(ja) != string(jb) {
		t.Fatalf("plans differ across identical runs:\n%s\nvs\n%s", ja, jb)
	}
}

// TestRandomSeedRecordedAndReproducible: the seed the random cover drew
// must land in the plan tree, and replaying it must reproduce the
// decomposition exactly — the EXPLAIN/ablation reproducibility fix.
func TestRandomSeedRecordedAndReproducible(t *testing.T) {
	ix, q := buildIx(t)
	p := NewPlanner(ix, nil)
	space := Space{
		Modes:  []decompose.Mode{decompose.ModeRandom},
		Reduce: []bool{true},
		Orders: []join.OrderMode{join.OrderByCardinality},
	}
	// The deterministic default (Seed 0) is still recorded as a concrete seed.
	pl, err := p.Plan(context.Background(), q, Options{
		Alpha: 0.05, Strategy: "random-decomp", Space: space,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Tree.DecomposeSeed == 0 {
		t.Fatal("random decomposition did not record its seed")
	}
	if pl.Dec.Seed != pl.Tree.DecomposeSeed {
		t.Fatalf("tree seed %d != decomposition seed %d", pl.Tree.DecomposeSeed, pl.Dec.Seed)
	}
	// Replaying with Options.Seed = the recorded value reproduces the
	// decomposition path for path.
	replay, err := p.Plan(context.Background(), q, Options{
		Alpha: 0.05, Strategy: "random-decomp", Space: space,
		Seed: pl.Tree.DecomposeSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if replay.Dec.Seed != pl.Dec.Seed {
		t.Fatalf("replay seed %d != original %d", replay.Dec.Seed, pl.Dec.Seed)
	}
	if len(replay.Dec.Paths) != len(pl.Dec.Paths) {
		t.Fatalf("replay produced %d paths, original %d", len(replay.Dec.Paths), len(pl.Dec.Paths))
	}
	for i := range pl.Dec.Paths {
		a, b := pl.Dec.Paths[i].Nodes, replay.Dec.Paths[i].Nodes
		if len(a) != len(b) {
			t.Fatalf("path %d: %v vs %v", i, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("path %d: %v vs %v", i, a, b)
			}
		}
	}
}

// TestExecutorRunRecordsStages: a run must report the executed stage list
// with observed rows, the plan tree it ran, and both join orders.
func TestExecutorRunRecordsStages(t *testing.T) {
	ix, q := buildIx(t)
	p := NewPlanner(ix, nil)
	pl, err := p.Plan(context.Background(), q, Options{Alpha: 0.05, Strategy: "optimized", Space: FullSpace()})
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(ix)
	n := 0
	st, err := ex.Run(context.Background(), pl, Exec{}, func(join.Match) bool { n++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if st.Plan != pl.Tree {
		t.Fatal("Stats.Plan is not the executed plan's tree")
	}
	want := []string{"candidates", "build", "reduce", "join"}
	if len(st.Stages) != len(want) {
		t.Fatalf("stages %v, want names %v", st.Stages, want)
	}
	for i, name := range want {
		if st.Stages[i].Name != name {
			t.Fatalf("stage %d = %q, want %q", i, st.Stages[i].Name, name)
		}
	}
	if len(st.PlannedOrder) != len(pl.Order) || len(st.ExecOrder) != len(pl.Order) {
		t.Fatalf("orders not recorded: planned %v exec %v", st.PlannedOrder, st.ExecOrder)
	}
	if st.Matched != n {
		t.Fatalf("Matched %d != yielded %d", st.Matched, n)
	}
	if st.Stages[3].ObsRows != float64(n) {
		t.Fatalf("join stage observed %v rows, want %d", st.Stages[3].ObsRows, n)
	}
}

// TestCostModelPrefersReductionWhenJoinDominates sanity-checks the cost
// model's probabilistic-pruning trade-off on synthetic numbers.
func TestCostModelPrefersReductionWhenJoinDominates(t *testing.T) {
	ix, q := buildIx(t)
	p := NewPlanner(ix, nil)
	plans, err := p.Enumerate(context.Background(), q, Options{Alpha: 0.05, Strategy: "optimized", Space: FullSpace()})
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range plans {
		c := pl.Tree.Cost
		if got := c.Candidates + c.Build + c.Reduce + c.Join; math.Abs(got-c.Total) > 1e-9 {
			t.Fatalf("cost breakdown %v does not sum to total %v", c, c.Total)
		}
		if !pl.Reduce && c.Reduce != 0 {
			t.Fatalf("no-reduce plan charges reduction cost %v", c.Reduce)
		}
	}
}

// TestPlanHonoursDeadline: the path enumeration checks ctx every 256 steps
// of its walk, so a request deadline bounds planning. A 10-node, 20-edge
// query at L 3 walks more than 256 steps: it plans with a live context and
// returns context.Canceled with a cancelled one.
func TestPlanHonoursDeadline(t *testing.T) {
	g, err := fixtures.MotivatingGraph()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pathindex.Build(context.Background(), g, pathindex.Options{
		MaxLen: 3, Beta: 0.02, Gamma: 0.1, Dir: filepath.Join(t.TempDir(), "ix"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q, err := gen.RandomQuery(rand.New(rand.NewSource(1)), g.NumLabels(), 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlanner(ix, nil)
	opt := Options{Alpha: 0.05, Strategy: "optimized", Space: FullSpace()}
	if _, err := p.Plan(context.Background(), q, opt); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Plan(ctx, q, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("Plan under a cancelled context returned %v, want context.Canceled", err)
	}
}
