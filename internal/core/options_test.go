package core_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/gen"
)

// TestStatsReportExecutedPlan: after a run, Stats must carry the very plan
// tree Explain returns for the same query and options.
func TestStatsReportExecutedPlan(t *testing.T) {
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
	rng := rand.New(rand.NewSource(7))
	q, err := gen.RandomQuery(rng, g.NumLabels(), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Alpha: 0.1}
	tree, err := core.Explain(context.Background(), ix, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Match(context.Background(), ix, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Plan == nil {
		t.Fatal("Stats.Plan not set after execution")
	}
	if res.Stats.Plan.DecomposeMode != tree.DecomposeMode ||
		res.Stats.Plan.Reduce != tree.Reduce ||
		res.Stats.Plan.JoinOrderMode != tree.JoinOrderMode ||
		res.Stats.Plan.Query != tree.Query {
		t.Fatalf("executed plan %+v != explained plan %+v", res.Stats.Plan, tree)
	}
	if len(res.Stats.ExecOrder) != len(res.Stats.PlannedOrder) {
		t.Fatalf("exec order %v vs planned %v", res.Stats.ExecOrder, res.Stats.PlannedOrder)
	}
	if res.Stats.PlanTime <= 0 {
		t.Fatal("fresh plan-and-run reported zero PlanTime")
	}
	// Executing the prepared plan directly (the cache-hit path) must report
	// zero planning time — that is the work the cache skips.
	pl, err := core.Prepare(context.Background(), ix, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := core.MatchPlan(context.Background(), ix, pl, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.PlanTime != 0 {
		t.Fatalf("cached-plan execution reported PlanTime %v, want 0", res2.Stats.PlanTime)
	}
	if len(res2.Matches) != len(res.Matches) {
		t.Fatalf("cached-plan run found %d matches, fresh run %d", len(res2.Matches), len(res.Matches))
	}
}

// TestOptionsValidation: every malformed option must fail fast with a typed
// *core.OptionsError naming the field — not a late panic or empty result.
func TestOptionsValidation(t *testing.T) {
	d, err := gen.Synthetic(gen.SynthOptions{
		Refs: 20, EdgeFactor: 2, Labels: 3, UncertainFrac: 0.3,
		Groups: 1, GroupSize: 2, PairsPerGroup: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, g, 2, 0.05)
	rng := rand.New(rand.NewSource(1))
	q, err := gen.RandomQuery(rng, g.NumLabels(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		opt   core.Options
		field string
	}{
		{"alpha-zero", core.Options{Alpha: 0}, "Alpha"},
		{"alpha-negative", core.Options{Alpha: -0.5}, "Alpha"},
		{"alpha-above-one", core.Options{Alpha: 1.5}, "Alpha"},
		{"alpha-nan", core.Options{Alpha: math.NaN()}, "Alpha"},
		{"limit-negative", core.Options{Alpha: 0.5, Limit: -1}, "Limit"},
		{"workers-negative", core.Options{Alpha: 0.5, Workers: -1}, "Workers"},
		{"strategy-unknown", core.Options{Alpha: 0.5, Strategy: core.Strategy(42)}, "Strategy"},
		{"order-unknown", core.Options{Alpha: 0.5, Order: core.ResultOrder(9)}, "Order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Every entry point must reject up front: Match, MatchStream,
			// Prepare/Explain.
			_, err := core.Match(context.Background(), ix, q, tc.opt)
			oe, ok := core.IsOptionsError(err)
			if !ok {
				t.Fatalf("Match error %v is not an OptionsError", err)
			}
			if oe.Field != tc.field {
				t.Fatalf("OptionsError field %q, want %q", oe.Field, tc.field)
			}
			if _, err := core.Explain(context.Background(), ix, q, tc.opt); err == nil {
				t.Fatal("Explain accepted invalid options")
			}
			if _, err := core.MatchStream(context.Background(), ix, q, tc.opt, nil); err == nil {
				t.Fatal("MatchStream accepted invalid options")
			}
		})
	}
	// NaN alpha used to slip through the (0,1] comparison chain entirely;
	// make sure Validate alone catches it too.
	if err := (core.Options{Alpha: math.NaN()}).Validate(); err == nil {
		t.Fatal("Validate accepted NaN alpha")
	}
}
