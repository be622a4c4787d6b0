package join_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/kpartite"
	"repro/internal/naive"
	"repro/internal/pathindex"
	"repro/internal/plan"
)

// enumeration is everything join.Enumerate takes, built the way the
// executor builds it, plus the oracle's answer.
type enumeration struct {
	ix    pathindex.Reader
	g     *entity.Graph
	pl    *plan.Plan
	sets  []candidates.Set
	kg    *kpartite.Graph
	order []int
	want  []join.Match // internal/naive, sorted by mapping
}

func (e *enumeration) run(ctx context.Context, workers int, sink func(int, join.Match) bool) error {
	return join.Enumerate(ctx, e.g, e.pl.Query, e.pl.Dec, e.kg, e.order, e.pl.Alpha, workers, sink)
}

func newEnumeration(t *testing.T) *enumeration {
	t.Helper()
	const alpha = 0.05
	ctx := context.Background()
	d, err := gen.Synthetic(gen.SynthOptions{Refs: 300, Labels: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pathindex.Build(ctx, g, pathindex.Options{MaxLen: 2, Beta: 0.05, Gamma: 0.1, Dir: filepath.Join(t.TempDir(), "ix")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	q, err := gen.RandomQuery(rand.New(rand.NewSource(94)), g.NumLabels(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.Prepare(ctx, ix, q, core.Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	sets, _, err := candidates.Find(ctx, ix, q, pl.Dec, alpha, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	kg, err := kpartite.Build(ctx, g, q, pl.Dec, sets, alpha, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := naive.Matches(ctx, g, q, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 1000 {
		t.Fatalf("workload too sparse: %d matches", len(want))
	}
	return &enumeration{ix: ix, g: g, pl: pl, sets: sets, kg: kg, order: join.Order(pl.Dec, pl.OrderMode), want: want}
}

func sameMatches(t *testing.T, label string, want, got []join.Match) {
	t.Helper()
	plan.SortMatches(got)
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if !slices.Equal(w.Mapping, g.Mapping) ||
			math.Float64bits(w.Prle) != math.Float64bits(g.Prle) || math.Float64bits(w.Prn) != math.Float64bits(g.Prn) {
			t.Fatalf("%s: match %d = %v, want %v", label, i, g, w)
		}
	}
}

// TestEnumerateLendsItsMapping is the sink contract from both sides. A sink
// that keeps m.Mapping without copying holds the worker's assignment array:
// after the run every kept mapping reads as that array's final state, not as
// the match it was — while a sink that clones, and the FindMatchesFunc /
// FindMatchesParallel adapters that clone for their callers, hold exactly
// the oracle's answer (cached-factor Prle and Prn bitwise) once the run is
// over, at 1 worker and at 4.
func TestEnumerateLendsItsMapping(t *testing.T) {
	e := newEnumeration(t)
	ctx := context.Background()

	var kept []join.Match
	if err := e.run(ctx, 1, func(_ int, m join.Match) bool {
		kept = append(kept, m) // wrong: m.Mapping is lent, not given
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(kept) != len(e.want) {
		t.Fatalf("sink saw %d matches, want %d", len(kept), len(e.want))
	}
	for i, m := range kept {
		if &m.Mapping[0] != &kept[0].Mapping[0] {
			t.Fatalf("match %d was lent a different array than match 0: one worker has one scratch", i)
		}
	}
	distinct := map[[4]entity.ID]bool{}
	for _, m := range kept {
		distinct[[4]entity.ID(m.Mapping)] = true
	}
	if len(distinct) != 1 {
		t.Fatalf("%d distinct mappings survive in a sink that kept borrowed slices; the scratch overwrites them all", len(distinct))
	}

	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var cloned []join.Match
		if err := e.run(ctx, workers, func(_ int, m join.Match) bool {
			mu.Lock()
			cloned = append(cloned, m.Clone())
			mu.Unlock()
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sameMatches(t, "cloning sink", e.want, cloned)

		perWorker := make([][]join.Match, workers)
		if err := join.FindMatchesParallel(ctx, e.g, e.pl.Query, e.pl.Dec, e.kg, e.order, e.pl.Alpha, workers, func(w int, m join.Match) bool {
			perWorker[w] = append(perWorker[w], m)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sameMatches(t, "FindMatchesParallel", e.want, slices.Concat(perWorker...))
	}
	var owned []join.Match
	if err := join.FindMatchesFunc(ctx, e.g, e.pl.Query, e.pl.Dec, e.kg, e.order, e.pl.Alpha, func(m join.Match) bool {
		owned = append(owned, m)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sameMatches(t, "FindMatchesFunc", e.want, owned)
}

// TestEnumerateStops: a false sink stops every worker without an error, a
// context cancelled from inside the sink surfaces as ctx.Err(), and one
// worker visits seeds in candidate order — twice the same sequence.
func TestEnumerateStops(t *testing.T) {
	e := newEnumeration(t)
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		seen := 0
		if err := e.run(context.Background(), workers, func(int, join.Match) bool {
			mu.Lock()
			defer mu.Unlock()
			seen++
			return seen < 10
		}); err != nil {
			t.Fatalf("workers %d: stopped run returned %v", workers, err)
		}
		// Every worker may have one match in flight when the tenth says stop.
		if seen < 10 || seen >= 10+workers {
			t.Fatalf("workers %d: sink ran %d times after asking to stop at 10", workers, seen)
		}

		ctx, cancel := context.WithCancel(context.Background())
		err := e.run(ctx, workers, func(int, join.Match) bool {
			cancel()
			return true
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: cancelled run returned %v", workers, err)
		}
	}

	first := func() []join.Match {
		var ms []join.Match
		if err := e.run(context.Background(), 1, func(_ int, m join.Match) bool {
			ms = append(ms, m.Clone())
			return len(ms) < 50
		}); err != nil {
			t.Fatal(err)
		}
		return ms
	}
	a, b := first(), first()
	for i := range a {
		if !slices.Equal(a[i].Mapping, b[i].Mapping) {
			t.Fatalf("sequential emission order differs at match %d: %v then %v", i, a[i].Mapping, b[i].Mapping)
		}
	}
}

// TestEnumerateKeyedGraph: a walked graph (kpartite.Walked, whose join
// reads its first partition one root at a time and every other one join key
// at a time) yields the oracle's whole answer in its own order, and in the
// reversed order, whose first step walks the roots of another partition.
// Asked for two workers, it enumerates on one: the same answer, every match
// from worker 0.
func TestEnumerateKeyedGraph(t *testing.T) {
	e := newEnumeration(t)
	ctx := context.Background()
	if len(e.order) < 2 {
		t.Fatalf("join order %v: nothing to reverse", e.order)
	}
	reversed := slices.Clone(e.order)
	slices.Reverse(reversed)
	for _, c := range []struct {
		name    string
		order   []int
		workers int
	}{{"its own order", e.order, 1}, {"reversed order", reversed, 1}, {"two workers", e.order, 2}} {
		walked := kpartite.Walked(e.g, e.pl.Dec, candidates.NewKeyWalks(e.ix, e.pl.Query, e.pl.Dec, e.pl.Alpha))
		var got []join.Match
		if err := join.Enumerate(ctx, e.g, e.pl.Query, e.pl.Dec, walked, c.order, e.pl.Alpha, c.workers, func(w int, m join.Match) bool {
			if w != 0 {
				t.Fatalf("%s: a match from worker %d", c.name, w)
			}
			got = append(got, m.Clone())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sameMatches(t, "walked graph, "+c.name, e.want, got)
	}
}

// TestKeyedJoinStopsAtItsRoot: over a walked graph a run that stops at its
// K-th match visits the first partition's roots in ascending id and walks
// none past the K-th match's: the roots its matches map the first path's
// first query node to never decrease, its root walks are exactly the roots
// up to the K-th match's, and its matches are the first K of the run that
// stops at none.
func TestKeyedJoinStopsAtItsRoot(t *testing.T) {
	e := newEnumeration(t)
	ctx := context.Background()
	first := e.order[0]
	rootNode := e.pl.Dec.Paths[first].Nodes[0]
	run := func(k int) (*kpartite.Graph, []join.Match) {
		kg := kpartite.Walked(e.g, e.pl.Dec, candidates.NewKeyWalks(e.ix, e.pl.Query, e.pl.Dec, e.pl.Alpha))
		var ms []join.Match
		if err := join.Enumerate(ctx, e.g, e.pl.Query, e.pl.Dec, kg, e.order, e.pl.Alpha, 1, func(_ int, m join.Match) bool {
			ms = append(ms, m.Clone())
			return k == 0 || len(ms) < k
		}); err != nil {
			t.Fatal(err)
		}
		return kg, ms
	}
	_, all := run(0)
	sameMatches(t, "walked graph, no limit", e.want, slices.Clone(all))
	spanned := 0
	for _, k := range []int{1, 2, 7, 50, 500} {
		kg, ms := run(k)
		if len(ms) != k {
			t.Fatalf("limit %d: %d matches", k, len(ms))
		}
		roots := make([]entity.ID, k)
		for i, m := range ms {
			if !slices.Equal(m.Mapping, all[i].Mapping) || m.Prle != all[i].Prle || m.Prn != all[i].Prn {
				t.Fatalf("limit %d: match %d is %+v, the unlimited run's %+v", k, i, m, all[i])
			}
			roots[i] = m.Mapping[rootNode]
		}
		if !slices.IsSorted(roots) {
			t.Fatalf("limit %d: the matches' roots %v are not ascending", k, roots)
		}
		upTo := 0 // roots of the first partition up to the K-th match's
		for v := range entity.ID(e.g.NumNodes()) {
			if v <= roots[k-1] && kg.Roots(first).Has(v) {
				upTo++
			}
		}
		if walks, _ := kg.Walks(first); walks != upTo {
			t.Fatalf("limit %d: %d root walks, %d roots up to the last match's root %d", k, walks, upTo, roots[k-1])
		}
		if roots[k-1] != roots[0] {
			spanned++
		}
	}
	if spanned == 0 {
		t.Fatal("every limited run stopped at its first match's root: the root order was never exercised")
	}
}
