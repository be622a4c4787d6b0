package plan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/decompose"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/pathindex"
)

// stage returns the run's row of that name.
func stage(t *testing.T, st Stats, name string) StageStats {
	t.Helper()
	for _, sg := range st.Stages {
		if sg.Name == name {
			return sg
		}
	}
	t.Fatalf("no %s stage in %v", name, st.Stages)
	return StageStats{}
}

func reduceStage(t *testing.T, st Stats) StageStats { return stage(t, st, "reduce") }

// sameSequence fails unless got is want match for match: mapping and the
// bits of both probabilities.
func sameSequence(t *testing.T, at string, want, got []join.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", at, len(got), len(want))
	}
	for i := range want {
		if matchKey(got[i]) != matchKey(want[i]) {
			t.Fatalf("%s: match %d is %v (%v, %v), want %v (%v, %v)", at, i,
				got[i].Mapping, got[i].Prle, got[i].Prn, want[i].Mapping, want[i].Prle, want[i].Prn)
		}
	}
}

func matchKey(m join.Match) string {
	return fmt.Sprint(m.Mapping, math.Float64bits(m.Prle), math.Float64bits(m.Prn))
}

// TestLimitedRunSkipsReduction: an emit-order run that declares it stops
// after Limit matches skips the plan's reduction — the reduce row says so,
// with zero rounds and nothing pruned from the search space of the rows the
// run held — and every match it emits is one of the full answer's with the
// same probability bits. A run that enumerates everything (Limit 0,
// OrderByProb with a limit) reduces as the plan says; one whose plan has no
// reduction reports no skip.
//
// Such a run also builds no links and walks the first path one root at a
// time and every other one join key at a time (the build row says "keyed",
// with no links), whether
// or not its plan reduces: its join order is a function of the paths'
// counts, not of Limit, so at every K from 1 to one past the answer
// (sampled past 32 when the answer is long), what it streams is the first K
// matches, bit for bit, of the run that declares a limit past the answer —
// which is the whole answer — and what it collects is those K sorted. With
// nothing to find it exhausts and returns nothing, untruncated.
func TestLimitedRunSkipsReduction(t *testing.T) {
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
	const alpha = 0.1
	reducing := Space{Modes: []decompose.Mode{decompose.ModeOptimized}, Reduce: []bool{true}, Orders: []join.OrderMode{join.OrderHeuristic}}
	plain := reducing
	plain.Reduce = []bool{false}
	ex := NewExecutor(ix)
	stream := func(pl *Plan, opt Exec) ([]join.Match, Stats) {
		t.Helper()
		var ms []join.Match
		st, err := ex.Run(ctx, pl, opt, func(m join.Match) bool { ms = append(ms, m); return true })
		if err != nil {
			t.Fatal(err)
		}
		return ms, st
	}

	rng := rand.New(rand.NewSource(11))
	limited, prefixes, matchless := 0, 0, 0
	for qi := 0; qi < 12; qi++ {
		q, err := gen.RandomQuery(rng, g.NumLabels(), 4, 4+qi%2)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := NewPlanner(ix, nil).Plan(ctx, q, Options{Alpha: alpha, Space: reducing})
		if err != nil {
			t.Fatal(err)
		}
		full, fst, err := ex.Collect(ctx, pl, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		if len(full) < 6 || len(pl.Dec.Paths) < 2 {
			continue
		}
		label := fmt.Sprintf("query %d (%d matches)", qi, len(full))
		if sg := reduceStage(t, fst); sg.Skipped != "" || fst.ReductionRounds == 0 {
			t.Fatalf("%s: unlimited collect: reduce row %+v, %d rounds", label, sg, fst.ReductionRounds)
		}
		in := make(map[string]bool, len(full))
		for _, m := range full {
			in[matchKey(m)] = true
		}

		// Emit-order limits: streamed and collected.
		for _, limit := range []int{1, 5} {
			ms, st := stream(pl, Exec{Limit: limit})
			cs, cst, err := ex.Collect(ctx, pl, Exec{Limit: limit})
			if err != nil {
				t.Fatal(err)
			}
			for name, run := range map[string]struct {
				ms []join.Match
				st Stats
			}{"stream": {ms, st}, "collect": {cs, cst}} {
				at := fmt.Sprintf("%s: %s limit %d", label, name, limit)
				if len(run.ms) != limit || !run.st.Truncated {
					t.Fatalf("%s: %d matches, truncated %v", at, len(run.ms), run.st.Truncated)
				}
				for _, m := range run.ms {
					if !in[matchKey(m)] {
						t.Fatalf("%s: %v (%v, %v) is not in the full answer", at, m.Mapping, m.Prle, m.Prn)
					}
				}
				limited++
				sg := reduceStage(t, run.st)
				if sg.Skipped != "limit" || run.st.ReductionRounds != 0 || sg.Pruned != 0 ||
					sg.ObsRows != sg.EstRows || run.st.SSFinal != run.st.SSContext || run.st.SSFinal != sg.ObsRows {
					t.Fatalf("%s: skipped reduce row %+v, %d rounds, SSContext %v, SSFinal %v",
						at, sg, run.st.ReductionRounds, run.st.SSContext, run.st.SSFinal)
				}
			}
		}

		// Runs that enumerate everything reduce as the plan says.
		for name, opt := range map[string]Exec{
			"unlimited stream":   {},
			"top-3 by prob":      {Order: OrderByProb, Limit: 3},
			"stopped by yield":   {},
			"limit above answer": {Limit: len(full) + 1},
		} {
			var ms []join.Match
			st, err := ex.Run(ctx, pl, opt, func(m join.Match) bool {
				ms = append(ms, m)
				return name != "stopped by yield"
			})
			if err != nil {
				t.Fatal(err)
			}
			sg := reduceStage(t, st)
			if name == "limit above answer" {
				// Declared, so unreduced — but nothing is cut: the whole
				// answer arrives all the same.
				if sg.Skipped != "limit" || len(ms) != len(full) || st.Truncated {
					t.Fatalf("%s: %s: reduce row %+v, %d of %d matches, truncated %v", label, name, sg, len(ms), len(full), st.Truncated)
				}
			} else if sg.Skipped != "" || st.ReductionRounds != fst.ReductionRounds || st.SSFinal != fst.SSFinal {
				t.Fatalf("%s: %s: reduce row %+v, %d rounds, SSFinal %v; the unlimited collect ran %d rounds to %v",
					label, name, sg, st.ReductionRounds, st.SSFinal, fst.ReductionRounds, fst.SSFinal)
			}
			for _, m := range ms {
				if !in[matchKey(m)] {
					t.Fatalf("%s: %s: %v is not in the full answer", label, name, m.Mapping)
				}
			}
		}

		// A plan without the reduction has nothing to skip.
		npl, err := NewPlanner(ix, nil).Plan(ctx, q, Options{Alpha: alpha, Space: plain})
		if err != nil {
			t.Fatal(err)
		}
		ms, st := stream(npl, Exec{Limit: 1})
		if sg := reduceStage(t, st); sg.Skipped != "" || st.ReductionRounds != 0 || len(ms) != 1 || !in[matchKey(ms[0])] {
			t.Fatalf("%s: no-reduction plan: reduce row %+v, %d rounds, matches %v", label, sg, st.ReductionRounds, ms)
		}

		// Key walks: every declared K is a prefix of the declared run that
		// finds the whole answer, over either plan.
		emitted, est := stream(pl, Exec{Limit: len(full) + 1})
		if len(emitted) != len(full) {
			t.Fatalf("%s: a limit past the answer streams %d of %d matches", label, len(emitted), len(full))
		}
		if ns, _ := stream(npl, Exec{Limit: len(full) + 1}); len(ns) != len(full) {
			t.Fatalf("%s: no-reduction plan, limit past the answer: %d of %d matches", label, len(ns), len(full))
		}
		for k := 1; k <= len(emitted)+1; k++ {
			// Every K of a short answer; of a long one the first 32, one in
			// len/32 after them, and the last two and one past.
			if stride := len(emitted) / 32; k > 32 && k < len(emitted)-1 && stride > 1 && k%stride != 0 {
				continue
			}
			want := emitted[:min(k, len(emitted))]
			for name, p := range map[string]*Plan{"reducing": pl, "plain": npl} {
				at := fmt.Sprintf("%s: %s plan, limit %d", label, name, k)
				ms, st := stream(p, Exec{Limit: k})
				sameSequence(t, at+" streamed", want, ms)
				if sg := stage(t, st, "build"); sg.Links != "keyed" || sg.ObsRows != 0 || st.Truncated != (k <= len(emitted)) || !slices.Equal(st.ExecOrder, est.ExecOrder) {
					t.Fatalf("%s: build row %+v, truncated %v, join order %v (past the answer: %v)", at, sg, st.Truncated, st.ExecOrder, est.ExecOrder)
				}
				cs, _, err := ex.Collect(ctx, p, Exec{Limit: k})
				if err != nil {
					t.Fatal(err)
				}
				sorted := append([]join.Match(nil), want...)
				SortMatches(sorted)
				sameSequence(t, at+" collected", sorted, cs)
				prefixes++
			}
		}

		// Above the best match's probability there is nothing to find.
		best := 0.0
		for _, m := range full {
			best = max(best, m.Prle*m.Prn)
		}
		if best > 0.99 {
			continue
		}
		hpl, err := NewPlanner(ix, nil).Plan(ctx, q, Options{Alpha: (1 + best) / 2, Space: reducing})
		if err != nil {
			t.Fatal(err)
		}
		if ms, st := stream(hpl, Exec{Limit: 1}); len(ms) != 0 || st.Truncated || stage(t, st, "build").Links != "keyed" {
			t.Fatalf("%s: α = %v, limit 1: %d matches, truncated %v, build row %+v", label, hpl.Alpha, len(ms), st.Truncated, stage(t, st, "build"))
		}
		matchless++
	}
	t.Logf("%d limited runs, %d declared-limit prefixes, %d matchless runs", limited, prefixes, matchless)
	if limited == 0 || prefixes == 0 || matchless == 0 {
		t.Fatalf("%d limited runs, %d prefixes, %d matchless runs: one part of the test never ran", limited, prefixes, matchless)
	}
}
