package plan

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/decompose"
	"repro/internal/fixtures"
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
	// Seed derived from a caller-owned stream: still recorded.
	pl, err := p.Plan(context.Background(), q, Options{
		Alpha: 0.05, Strategy: "random-decomp", Space: space,
		Rand: rand.New(rand.NewSource(77)),
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
	ex := NewExecutor(ix, nil)
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

// TestCalibrationFeedback: executing with a calibration attached must fold
// the observed/estimated ratio into the factors, and the planner must apply
// them to later estimates.
func TestCalibrationFeedback(t *testing.T) {
	ix, q := buildIx(t)
	calib := NewCalibration()
	p := NewPlanner(ix, calib)
	pl, err := p.Plan(context.Background(), q, Options{Alpha: 0.05, Strategy: "optimized", Space: FullSpace()})
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(ix, calib)
	if _, err := ex.Run(context.Background(), pl, Exec{}, func(join.Match) bool { return true }); err != nil {
		t.Fatal(err)
	}
	changed := false
	for l := 1; l <= calibMaxLen; l++ {
		if calib.Factor(l) != 1 {
			changed = true
		}
	}
	if !changed {
		t.Fatal("execution fed no observations back into the calibration")
	}
	// A later plan's estimates go through the learned factors: calibrated
	// and uncalibrated planners must disagree on at least one estimate
	// unless every factor round-tripped to exactly 1.
	cal, err := p.Plan(context.Background(), q, Options{Alpha: 0.05, Strategy: "optimized", Space: FullSpace()})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := NewPlanner(ix, nil).Plan(context.Background(), q, Options{Alpha: 0.05, Strategy: "optimized", Space: FullSpace()})
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for i := range cal.Tree.Paths {
		if cal.Tree.Paths[i].EstCard != raw.Tree.Paths[i].EstCard {
			differs = true
		}
	}
	if !differs {
		t.Fatal("calibration had no effect on later estimates")
	}
}

// TestCalibrationConvergesOnCachedPlanReexecution: re-executing the same
// cached plan re-asserts the same observation; the factor must converge to
// the implied target, not compound toward the clamp (the server re-executes
// one popular cached plan arbitrarily many times).
func TestCalibrationConvergesOnCachedPlanReexecution(t *testing.T) {
	c := NewCalibration()
	// Histogram said 100, index returns 200 → target factor 2.
	for i := 0; i < 500; i++ {
		c.Observe(3, 100, 200)
	}
	if f := c.Factor(3); math.Abs(f-2) > 1e-6 {
		t.Fatalf("factor after 500 identical observations = %v, want convergence to 2", f)
	}
	// And an execution loop through the real executor: factors must be
	// identical after the 2nd and the 20th run of the same plan.
	ix, q := buildIx(t)
	calib := NewCalibration()
	pl, err := NewPlanner(ix, calib).Plan(context.Background(), q, Options{Alpha: 0.05, Strategy: "optimized", Space: FullSpace()})
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(ix, calib)
	run := func() {
		if _, err := ex.Run(context.Background(), pl, Exec{}, func(join.Match) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		run()
	}
	snapshot := make([]float64, calibMaxLen+1)
	for l := range snapshot {
		snapshot[l] = calib.Factor(l)
	}
	// Another 170 re-executions of the same cached plan: the factors must
	// have converged (the old residual-compounding update would still be
	// marching toward the 100x clamp here).
	for i := 0; i < 170; i++ {
		run()
	}
	for l := range snapshot {
		f := calib.Factor(l)
		if rel := math.Abs(f-snapshot[l]) / snapshot[l]; rel > 1e-2 {
			t.Fatalf("factor[len=%d] still drifting across cached re-executions: %v → %v", l, snapshot[l], f)
		}
		if f >= calibClamp || f <= 1/calibClamp {
			t.Fatalf("factor[len=%d] = %v rode to the clamp", l, f)
		}
	}
}

func TestCalibrationObserveClampAndConcurrency(t *testing.T) {
	c := NewCalibration()
	for i := 0; i < 1000; i++ {
		c.Observe(3, 1, 1e12) // absurd underestimate, repeatedly
	}
	if f := c.Factor(3); f > calibClamp {
		t.Fatalf("factor %v escaped the clamp %v", f, calibClamp)
	}
	c.Observe(0, 0, 10) // zero estimate must be ignored, not divide
	c.Observe(2, math.NaN(), 10)
	if f := c.Factor(2); f != 1 {
		t.Fatalf("NaN observation moved the factor to %v", f)
	}
	var nilCal *Calibration
	nilCal.Observe(1, 1, 1) // nil receiver is a no-op
	if nilCal.Factor(1) != 1 {
		t.Fatal("nil calibration factor != 1")
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
