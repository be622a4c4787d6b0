package core_test

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/kpartite"
	"repro/internal/query"
)

// TestPreJoinAllocationIsACount pins the pre-join pipeline's allocation,
// which is a count and so either repeats or is wrong: a prepared cyclic
// plan, first match only by a declared Limit 1 (the join is idle and the
// reduction skipped, everything allocated is posting scan, context prune and
// k-partite build), α below β so the scan is the on-demand enumeration,
// Workers 2 so paths and pairs run on two goroutines. After warm-up, at least
// 27 of 30 runs' heap bytes must lie within 1 % of their median — a buffer
// whose size depends on scheduling, or recycled scratch whose hit rate
// depends on GC timing, moves most runs — and the median must stay under a
// ceiling 2 % above what the plan allocates today, so a reintroduced
// per-record or per-pair allocation fails here, not in the benchmark. The
// rest of the runs may stray: the runtime allocates inside the window on its
// own account — a goroutine's g (448 bytes) when the free ones sit on the
// other P, the all-goroutines list growing by a few KB, a GC worker's sudog,
// a scavenger timer — and one run in a few hundred gains 6 KB that way.
// Two plans: the 4-cycle (10.5 KB, 11.3 KB under the race detector, whose
// ceiling it is; the materializing pipeline with its map-and-sort link
// table took 2.70 MB, candidates for every path with join-key bucket
// tables 0.17 MB, and the whole first path of the join order with the
// others walked by key 0.05 MB), and a denser 6-node, 7-edge query (7
// paths, 13 000 links) with many partition pairs (28.6 KB, 30.1 KB under
// the race detector; 0.16 MB with bucket tables, 0.06 MB with the whole
// first path). A declared limit materialises no path: it walks the first
// path of its join order one root at a time and the others one join key at
// a time, as its join asks. A third arm runs the dense plan without a
// limit and stops it by its yield, so the eager link pools and float columns,
// the per-worker link scratch, the reduction's perception vectors and its
// per-round scratch are pinned too (0.79 MB) — and must exceed the declared
// run by at least the vectors, the pools and the columns a walked graph has
// no use for: the w2 it is never reduced by and the factors of the rows it
// never walks.
func TestPreJoinAllocationIsACount(t *testing.T) {
	d, err := gen.Synthetic(gen.SynthOptions{Refs: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, g, 2, 0.5)
	cycle, err := gen.CycleQuery(rand.New(rand.NewSource(3)), g.NumLabels(), 4)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := gen.RandomQuery(rand.New(rand.NewSource(2)), g.NumLabels(), 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	median := map[string]uint64{} // bytes per run, by arm
	for _, tc := range []struct {
		name    string
		q       *query.Query
		limit   int    // 0: undeclared, the yield stops the run after one match
		ceiling uint64 // median bytes per run; see above
	}{
		{"4-cycle", cycle, 1, 11_500},
		{"6-node-7-edge", dense, 1, 30_800},
		{"6-node-7-edge-reduced", dense, 0, 801_600},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := core.Options{Alpha: 0.3, Workers: 2, Limit: tc.limit}
			pl, err := core.Prepare(ctx, ix, tc.q, opt)
			if err != nil {
				t.Fatal(err)
			}
			run := func() uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				st, err := core.MatchStreamPlan(ctx, ix, pl, opt, func(join.Match) bool { return tc.limit > 0 })
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if reduced := st.ReductionRounds > 0; reduced != (tc.limit == 0) {
					t.Fatalf("limit %d: %d reduction rounds", tc.limit, st.ReductionRounds)
				}
				if st.SSPath < 1000 {
					t.Fatalf("plan looks at %v candidate combinations; too small to pin anything", st.SSPath)
				}
				return after.TotalAlloc - before.TotalAlloc
			}
			for i := 0; i < 3; i++ {
				run() // warm-up: component marginal memos, lazily built tables
			}
			runs := make([]uint64, 30)
			for i := range runs {
				runs[i] = run()
			}
			slices.Sort(runs)
			med, within := runs[len(runs)/2], 0
			for _, n := range runs {
				if math.Abs(float64(n)-float64(med)) <= 0.01*float64(med) {
					within++
				}
			}
			t.Logf("bytes per run: min %d median %d max %d, %d of %d within 1 %% of the median", runs[0], med, runs[len(runs)-1], within, len(runs))
			if within < 27 {
				t.Errorf("allocation does not repeat: %d of %d runs within 1 %% of the median %d bytes (%d..%d)", within, len(runs), med, runs[0], runs[len(runs)-1])
			}
			if med > tc.ceiling {
				t.Errorf("%d bytes per run, ceiling %d", med, tc.ceiling)
			}
			median[tc.name] = med
		})
	}

	// What declaring the limit saves the dense plan, against stopping the
	// same stream by its yield: the reduction's two perception-vector buffers
	// (8 bytes × partitions per vertex each) and, since the declared run
	// builds no links, the two CSR pools of every joined pair — a→b with
	// room for every key-matched pair, b→a one entry per link, so at least
	// 4 bytes twice per link — and the columns of every row the eager graph
	// computes and the walked one does not: w2 and the label and edge
	// factors, 8 bytes × (1 + plen + plen−1), the factors of which the walked
	// graph looks up only for the rows its root and key walks keep.
	pl, err := core.Prepare(ctx, ix, dense, core.Options{Alpha: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	sets, _, err := candidates.Find(ctx, ix, dense, pl.Dec, 0.3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := kpartite.Build(ctx, g, dense, pl.Dec, sets, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	pools := uint64(8 * eager.NumLinks())
	vectors, columns := uint64(0), uint64(0)
	for i := range sets {
		vectors += uint64(2 * 8 * len(sets) * sets[i].Len())
		columns += uint64(8 * 2 * len(sets[i].Path.Nodes) * sets[i].Len())
	}
	declared, stopped := median["6-node-7-edge"], median["6-node-7-edge-reduced"]
	t.Logf("declared Limit 1: %d bytes; stopped by the yield: %d; perception vectors %d, link pools %d, w2 and factor columns %d", declared, stopped, vectors, pools, columns)
	if declared+vectors+pools+columns > stopped {
		t.Errorf("a declared Limit 1 run allocates %d bytes, one stopped by its yield %d: the %d bytes of perception vectors, %d of link pools and %d of w2 and factor columns are not all saved",
			declared, stopped, vectors, pools, columns)
	}
}

// TestCollectAllocationIsACount pins what a retained run allocates, which is
// a count too: one prepared acyclic plan with some 30 000 matches, collected
// by core.MatchPlan (3.26 MB a run). The join copies each match once into fixed-size store
// chunks and the walk allocates one list link per row, one bucket table and
// one exact-size result, so after warm-up 20 runs' heap bytes must agree to
// 2 % and a run must make fewer mallocs than a tenth of its matches — a
// reintroduced per-match allocation (an owned mapping, a boxed heap entry, a
// growing slice) fails here, not in the benchmark. The bytes also have a
// ceiling 2 % above what a run allocated when it was set, and one per
// match: above what the same plan allocates to stream its first match
// when the stream does not declare a limit (everything before the join, the
// reduction included), a match of this 5-node plan costs 20 + 16 bytes of
// row, 40 of join.Match and 4 of list link, so 84 leaves room for the bucket
// table and the last chunk's spare rows and none for a second per-row
// buffer.
func TestCollectAllocationIsACount(t *testing.T) {
	d, err := gen.Synthetic(gen.SynthOptions{Refs: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, g, 2, 0.5)
	q, err := gen.RandomQuery(rand.New(rand.NewSource(6)), g.NumLabels(), 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const ceiling = 3_384_000 // bytes per run; see above
	opt := core.Options{Alpha: 0.3, Workers: 2}
	pl, err := core.Prepare(ctx, ix, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(f func() error) (bytes, mallocs uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := f()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	run := func() (bytes, mallocs uint64, matches int) {
		bytes, mallocs = allocated(func() error {
			res, err := core.MatchPlan(ctx, ix, pl, opt)
			if err == nil {
				matches = len(res.Matches)
			}
			return err
		})
		return bytes, mallocs, matches
	}
	// Everything before the join, reduction included: a stream that does
	// not say it will stop, stopped by its yield at the first match. One
	// that declares Limit 1 skips the reduction and with it the two
	// perception-vector buffers (8 bytes × partitions per vertex each).
	preJoin := func(limit int) (uint64, core.Stats) {
		first := opt
		first.Limit = limit
		var st core.Stats
		bytes, _ := allocated(func() (err error) {
			st, err = core.MatchStreamPlan(ctx, ix, pl, first, func(join.Match) bool { return false })
			return err
		})
		return bytes, st
	}
	for i := 0; i < 3; i++ {
		run() // warm-up: component marginal memos, lazily built tables
	}
	lo, hi, most, matches := ^uint64(0), uint64(0), uint64(0), 0
	for i := 0; i < 20; i++ {
		b, m, n := run()
		lo, hi, most, matches = min(lo, b), max(hi, b), max(most, m), n
	}
	before, _ := preJoin(0)
	limited, lst := preJoin(1)
	sets, _, err := candidates.Find(ctx, ix, q, pl.Dec, opt.Alpha, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	vectors := uint64(0)
	for i := range sets {
		vectors += uint64(2 * 8 * len(sets) * sets[i].Len())
	}
	if lst.ReductionRounds != 0 || limited+vectors > before {
		t.Errorf("a Limit 1 stream ran %d reduction rounds and allocated %d bytes, a stream stopped by its yield %d: the %d bytes of perception vectors are not saved",
			lst.ReductionRounds, limited, before, vectors)
	}
	t.Logf("%d matches, bytes per run min %d max %d (%d before the join), mallocs per run ≤ %d", matches, lo, hi, before, most)
	if matches < 20_000 {
		t.Fatalf("plan has %d matches; too few to pin anything", matches)
	}
	if float64(hi) > 1.02*float64(lo) {
		t.Errorf("allocation does not repeat: %d..%d bytes per run (max/min %.4f > 1.02)", lo, hi, float64(hi)/float64(lo))
	}
	if hi > ceiling {
		t.Errorf("%d bytes per run, ceiling %d", hi, ceiling)
	}
	if perMatch := (float64(hi) - float64(before)) / float64(matches); perMatch > 84 {
		t.Errorf("%.1f bytes per match above the %d allocated before the join, ceiling 84: something is kept per row that was not", perMatch, before)
	}
	if most >= uint64(matches/10) {
		t.Errorf("%d mallocs in a run of %d matches: something allocates per match", most, matches)
	}
}
