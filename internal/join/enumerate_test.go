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
// reads every partition but the first one join key at a time) yields the
// oracle's whole answer in the order of its first partition, and in the
// reversed order, whose first step walks its partition with an empty key.
// Asked for two workers, it enumerates on one: the same answer, every match
// from worker 0.
func TestEnumerateKeyedGraph(t *testing.T) {
	e := newEnumeration(t)
	ctx := context.Background()
	if len(e.order) < 2 {
		t.Fatalf("join order %v: nothing to reverse", e.order)
	}
	initial, err := candidates.Counts(ctx, e.ix, e.pl.Dec, e.pl.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	reversed := slices.Clone(e.order)
	slices.Reverse(reversed)
	for _, c := range []struct {
		name    string
		order   []int
		workers int
	}{{"its own order", e.order, 1}, {"reversed order", reversed, 1}, {"two workers", e.order, 2}} {
		sets, kw, _, err := candidates.FindFirst(ctx, e.ix, e.pl.Query, e.pl.Dec, e.pl.Alpha, initial, e.order[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		walked := kpartite.Walked(e.g, e.pl.Dec, sets, e.order[0], kw)
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
