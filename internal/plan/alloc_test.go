package plan_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/pathindex"
	"repro/internal/query"
)

// TestPlanningAllocation pins what planning one query allocates, which is a
// count and so either repeats or is wrong: core.Prepare at FullSpace (two
// covers, eight costed candidates) on the 4-cycle and the dense 6-node,
// 7-edge query of core.TestPreJoinAllocationIsACount. After warm-up, at
// least 27 of 30 runs must allocate exactly the median's bytes and objects
// (the runtime now and then allocates inside the window on its own
// account), and the median must stay under ceilings 2 % above today's
// figures under the race detector, the larger: 4-cycle 9 968 bytes in 121
// objects (10 096 under the race detector), dense 16 248 bytes in 167
// (16 408). Before candidates were cost-only, covers ran on bitsets and the
// permutation was replayed, the same plans took 21 944 bytes in 332 objects
// and 43 560 in 746. Planning takes nothing from a sync.Pool (the race
// detector drops pooled items at random), so the counts repeat under it too.
func TestPlanningAllocation(t *testing.T) {
	d, err := gen.Synthetic(gen.SynthOptions{Refs: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pathindex.Build(context.Background(), g, pathindex.Options{
		MaxLen: 2, Beta: 0.5, Gamma: 0.1, Dir: filepath.Join(t.TempDir(), "ix"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	cycle, err := gen.CycleQuery(rand.New(rand.NewSource(3)), g.NumLabels(), 4)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := gen.RandomQuery(rand.New(rand.NewSource(2)), g.NumLabels(), 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name           string
		q              *query.Query
		bytes, mallocs uint64 // ceilings on the median run
	}{
		{"4-cycle", cycle, 10_300, 123},
		{"6-node-7-edge", dense, 16_740, 170},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := core.Options{Alpha: 0.3, Strategy: core.StrategyOptimized}
			type cost struct{ bytes, mallocs uint64 }
			run := func() cost {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err := core.Prepare(ctx, ix, tc.q, opt)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				return cost{after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs}
			}
			for i := 0; i < 3; i++ {
				run() // warm-up: the index's lazily built estimate tables
			}
			runs := make([]cost, 30)
			for i := range runs {
				runs[i] = run()
			}
			slices.SortFunc(runs, func(a, b cost) int {
				if a.bytes != b.bytes {
					return int(a.bytes) - int(b.bytes)
				}
				return int(a.mallocs) - int(b.mallocs)
			})
			med, same := runs[len(runs)/2], 0
			for _, r := range runs {
				if r == med {
					same++
				}
			}
			t.Logf("median %d bytes in %d objects; %d of %d runs alike (%v..%v)", med.bytes, med.mallocs, same, len(runs), runs[0], runs[len(runs)-1])
			if same < 27 {
				t.Errorf("planning allocation does not repeat: %d of %d runs equal the median %v (%v..%v)", same, len(runs), med, runs[0], runs[len(runs)-1])
			}
			if med.bytes > tc.bytes || med.mallocs > tc.mallocs {
				t.Errorf("%d bytes in %d objects, ceilings %d and %d", med.bytes, med.mallocs, tc.bytes, tc.mallocs)
			}
		})
	}
}
