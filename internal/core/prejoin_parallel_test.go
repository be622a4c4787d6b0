package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/kpartite"
	"repro/internal/live"
	"repro/internal/naive"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/refgraph"
)

const prejoinBeta = 0.2

// prejoinArms are the corpora TestPreJoinEquivalence runs over: gen's usual
// handful of linked references, and linkage dense enough that matches with
// two entities of one identity component are common.
var prejoinArms = []struct {
	name  string
	opt   gen.SynthOptions
	dense bool
}{
	{"default-linkage", gen.SynthOptions{Refs: 30, EdgeFactor: 2, Labels: 4, UncertainFrac: 0.4, Groups: 2, GroupSize: 3, PairsPerGroup: 2}, false},
	{"dense-linkage", gen.SynthOptions{Refs: 40, EdgeFactor: 4, Labels: 2, UncertainFrac: 0.5, Groups: 8, GroupSize: 4, PairsPerGroup: 3}, true},
}

// prejoinReaders returns the two kinds of reader the pre-join pipeline
// streams from, over the same seeded PGD: a packed index, and a live view
// whose overlay carries a few mutations (so its graph, and the naive
// oracle's answers over it, differ from the static index's).
func prejoinReaders(t *testing.T, synthOpt gen.SynthOptions) map[string]pathindex.Reader {
	t.Helper()
	seed := synthOpt.Seed
	synth := func() *refgraph.PGD {
		d, err := gen.Synthetic(synthOpt)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	g, err := entity.Build(synth(), entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt := pathindex.Options{MaxLen: 2, Beta: prejoinBeta, Gamma: 0.1}
	ixOpt := opt
	ixOpt.Dir = filepath.Join(t.TempDir(), "ix")
	ix, err := pathindex.Build(context.Background(), g, ixOpt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	readers := map[string]pathindex.Reader{"packed": ix}

	d := synth()
	db, err := live.Create(context.Background(), t.TempDir(), d, live.Options{
		Index: opt, CompactEvery: -1, CompactDirtyFrac: -1, // the overlay stays
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	rng := rand.New(rand.NewSource(seed * 53))
	var ms []live.Mutation
	for len(ms) < 6 {
		a := refgraph.RefID(rng.Intn(d.NumRefs() - 1))
		if len(ms)%3 == 2 {
			ms = append(ms, live.Mutation{Op: live.OpSetLinkage, Members: []refgraph.RefID{a, a + 1}, P: 0.3 + 0.5*rng.Float64()})
		} else if b := refgraph.RefID(rng.Intn(d.NumRefs())); b != a {
			ms = append(ms, live.Mutation{Op: live.OpAddEdge, A: a, B: b, P: 0.5 + 0.5*rng.Float64()})
		}
	}
	if _, err := db.Apply(ms); err != nil {
		t.Fatal(err)
	}
	if db.View().DirtyEntities() == 0 {
		t.Fatal("live view carries no overlay")
	}
	readers["live"] = db.View()
	return readers
}

func sameSets(a, b []candidates.Set) error {
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Initial != y.Initial || !slices.Equal(x.Nodes, y.Nodes) {
			return fmt.Errorf("path %d: initial %d kept %d, want initial %d kept %d (or rows differ)",
				i, y.Initial, y.Len(), x.Initial, x.Len())
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameLinks(a, b *kpartite.Graph) error {
	for p := 0; p < a.NumPartitions(); p++ {
		if a.NumCandidates(p) != b.NumCandidates(p) {
			return fmt.Errorf("partition %d: %d vertices, want %d", p, b.NumCandidates(p), a.NumCandidates(p))
		}
		for i := 0; i < a.NumCandidates(p); i++ {
			for j := 0; j < a.NumPartitions(); j++ {
				if !slices.Equal(a.Links(p, i, j), b.Links(p, i, j)) {
					return fmt.Errorf("Links(%d,%d,%d) = %v, want %v", p, i, j, b.Links(p, i, j), a.Links(p, i, j))
				}
			}
		}
	}
	return nil
}

// TestPreJoinEquivalence is the pre-join pipeline's end-to-end property,
// generator-driven over seeded gen.Synthetic PGDs × α on both sides of β ×
// {packed index, live view with a dirty overlay} × both decomposition
// strategies. Per case:
//
//   - candidates.Find at workers 1, 2, 4, with and without a candidate
//     cache, returns identical arenas, Initial, Kept, SSPath and SSContext;
//   - kpartite.Build over those sets returns identical Links(p, i, j) rows
//     at workers 1, 2, 4;
//   - core.Match at every width and cache state returns identical matches,
//     and those are bitwise the naive oracle's over the reader's graph;
//   - a run that declares an emit-order Limit K, and so walks the first
//     path one root at a time and every other one join key at a time,
//     streams the first K matches of
//     walkReference's enumeration over the eager links and collects those
//     K, at every K (declaredLimitsArePrefixes).
//
// The dense-linkage arm must put ≥ 15 % of the entities into multi-member
// identity components and answer with both kinds of match: some mapping two
// entities of one component (Prn evaluated over the set), some none (one
// Exist per node carried forward).
//
// What the streamed stages are equal to *before* this pipeline existed is
// held one layer down, where the references need package internals:
// pathindex and live (Scan ≡ the materializing Lookup), candidates (Find ≡
// materialize-then-prune), kpartite (links ≡ map-and-sort).
func TestPreJoinEquivalence(t *testing.T) {
	for _, arm := range prejoinArms {
		t.Run(arm.name, func(t *testing.T) { testPreJoinEquivalence(t, arm.opt, arm.dense) })
	}
}

func testPreJoinEquivalence(t *testing.T, synthOpt gen.SynthOptions, dense bool) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	ctx := context.Background()
	kept, links, matched, shared, prefixes := 0, 0, 0, 0, 0
	for _, seed := range seeds {
		synthOpt.Seed = seed
		for kind, ix := range prejoinReaders(t, synthOpt) {
			g := ix.Graph()
			if linked := linkedShare(g); dense && linked < 0.15 {
				t.Fatalf("seed %d %s: %.0f%% of entities sit in multi-member components, want ≥ 15%%", seed, kind, 100*linked)
			}
			rng := rand.New(rand.NewSource(seed * 727))
			for qi := 0; qi < 3; qi++ {
				q, err := gen.RandomQuery(rng, g.NumLabels(), 2+rng.Intn(2), 3)
				if err != nil {
					t.Fatal(err)
				}
				for _, alpha := range []float64{0.05, 0.3} {
					want, err := naive.Matches(ctx, g, q, alpha)
					if err != nil {
						t.Fatal(err)
					}
					matched += len(want)
					for _, m := range want {
						if sharesComponent(g, m.Mapping) {
							shared++
						}
					}
					for _, s := range []core.Strategy{core.StrategyOptimized, core.StrategyRandomDecomp} {
						label := fmt.Sprintf("seed %d %s q%d α=%v %v", seed, kind, qi, alpha, s)
						opts := func(w int, c *candidates.Cache) core.Options {
							return core.Options{
								Alpha: alpha, Strategy: s, Workers: w, CandCache: c,
								Seed: seed ^ int64(qi),
							}
						}
						pl, err := core.Prepare(ctx, ix, q, opts(1, nil))
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						sets1, st1, err := candidates.Find(ctx, ix, q, pl.Dec, alpha, 1, nil)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						kg1, err := kpartite.Build(ctx, g, q, pl.Dec, sets1, alpha, 1)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						links += kg1.NumLinks()
						for _, n := range st1.Kept {
							kept += n
						}
						prefixes += declaredLimitsArePrefixes(t, label, ix, pl, opts(1, nil), want)
						// One cache shared across widths: later runs are
						// served the arenas earlier ones stored.
						cache := candidates.NewCache(0)
						for _, w := range []int{1, 2, 4} {
							for _, c := range []*candidates.Cache{nil, cache} {
								at := fmt.Sprintf("%s W=%d cached=%v", label, w, c != nil)
								sets, st, err := candidates.Find(ctx, ix, q, pl.Dec, alpha, w, c)
								if err != nil {
									t.Fatalf("%s: %v", at, err)
								}
								if err := sameSets(sets1, sets); err != nil {
									t.Fatalf("%s: %v", at, err)
								}
								if !slices.Equal(st.Initial, st1.Initial) || !slices.Equal(st.Kept, st1.Kept) ||
									!sameBits(st.SSPath, st1.SSPath) || !sameBits(st.SSContext, st1.SSContext) {
									t.Fatalf("%s: stats %+v, want %+v", at, st, st1)
								}
								kg, err := kpartite.Build(ctx, g, q, pl.Dec, sets, alpha, w)
								if err != nil {
									t.Fatalf("%s: %v", at, err)
								}
								if err := sameLinks(kg1, kg); err != nil {
									t.Fatalf("%s: %v", at, err)
								}
								res, err := core.Match(ctx, ix, q, opts(w, c))
								if err != nil {
									t.Fatalf("%s: %v", at, err)
								}
								matchesIdentical(t, at+" vs naive", want, res.Matches)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d candidates kept, %d links, %d matches (%d over a shared component), %d declared-limit prefixes", kept, links, matched, shared, prefixes)
	if kept == 0 || links == 0 || matched == 0 || prefixes == 0 {
		t.Fatalf("vacuous: %d candidates kept, %d links, %d matches, %d declared-limit prefixes over all cases", kept, links, matched, prefixes)
	}
	if dense && (shared == 0 || shared == matched) {
		t.Fatalf("%d of %d matches map two entities of one component: one way to a match's Prn was never taken", shared, matched)
	}
}

// declaredLimitsArePrefixes holds the runs that declare an emit-order limit,
// whose joins walk the first path one root at a time and every other one
// join key at a time, to walkReference, the same join over the eager links
// with every partition in the order its walks hand rows over — as a set, the
// oracle's answer. For every K from 1 to one past that answer (sampled past
// 32 when it is long), the stream that declares Limit K must emit its first
// K matches bit for bit, say it built "keyed" links, and report no row
// pruned and no candidate-cache outcome, and the collect with Limit K must
// return those K sorted. It returns the number of prefixes compared.
func declaredLimitsArePrefixes(t *testing.T, label string, ix pathindex.Reader, pl *plan.Plan, opt core.Options, want []join.Match) int {
	t.Helper()
	ctx := context.Background()
	emitted, _ := walkReference(t, ix, pl)
	sorted := slices.Clone(emitted)
	plan.SortMatches(sorted)
	matchesIdentical(t, label+" reference vs naive", want, sorted)
	opt.CandCache = candidates.NewCache(0) // the candidates are the same at every K
	compared := 0
	for k := 1; k <= len(emitted)+1; k++ {
		// Every K of a short answer; of a long one the first 32, one in
		// len/32 after them, and the last two and one past.
		if stride := len(emitted) / 32; k > 32 && k < len(emitted)-1 && stride > 1 && k%stride != 0 {
			continue
		}
		compared++
		at := fmt.Sprintf("%s limit %d of %d", label, k, len(emitted))
		first := emitted[:min(k, len(emitted))]
		opt.Limit = k
		var got []join.Match
		st, err := core.MatchStreamPlan(ctx, ix, pl, opt, func(m join.Match) bool { got = append(got, m); return true })
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		matchesIdentical(t, at+" streamed", first, got)
		for _, sg := range st.Stages {
			if sg.Name == "build" && (sg.Links != "keyed" || sg.ObsRows != 0) {
				t.Fatalf("%s: build row %+v", at, sg)
			}
			// No path is scanned whole, nor read from the cache; the first
			// is walked root by root, and a match holds a row of it.
			if sg.Name == "candidates" && (sg.Pruned != 0 || sg.CacheHits+sg.CacheMisses+sg.CacheBypassed != 0 || len(got) > 0 && sg.KeyRows == 0) {
				t.Fatalf("%s: candidates row %+v", at, sg)
			}
		}
		res, err := core.MatchPlan(ctx, ix, pl, opt)
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		sorted := slices.Clone(first)
		plan.SortMatches(sorted)
		matchesIdentical(t, at+" collected", sorted, res.Matches)
	}
	return compared
}

// linkedShare is the share of g's entities whose identity component has
// other members.
func linkedShare(g *entity.Graph) float64 {
	linked := 0
	for v := 0; v < g.NumNodes(); v++ {
		if len(g.ComponentOf(entity.ID(v)).Members) > 1 {
			linked++
		}
	}
	return float64(linked) / float64(g.NumNodes())
}

func sharesComponent(g *entity.Graph, mapping []entity.ID) bool {
	for i, v := range mapping {
		for _, u := range mapping[:i] {
			if g.Comp(u) == g.Comp(v) {
				return true
			}
		}
	}
	return false
}
