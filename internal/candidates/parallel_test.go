package candidates

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/decompose"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/live"
	"repro/internal/pathindex"
	"repro/internal/query"
	"repro/internal/refgraph"
)

func synthIx(t *testing.T, seed int64) (*entity.Graph, *pathindex.Index) {
	t.Helper()
	d, err := gen.Synthetic(gen.SynthOptions{
		Refs: 30, EdgeFactor: 2, Labels: 4, UncertainFrac: 0.4,
		Groups: 2, GroupSize: 3, PairsPerGroup: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g, buildIx(t, g, 2, 0.05)
}

// setsIdentical demands exact equality — candidate order and node
// assignment — between two Find outputs. The parallel fan-out must be
// indistinguishable from the sequential walk.
func setsIdentical(t *testing.T, label string, want, got []Set) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d sets, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Initial != g.Initial {
			t.Fatalf("%s: set %d Initial = %d, want %d", label, i, g.Initial, w.Initial)
		}
		if w.Len() != g.Len() {
			t.Fatalf("%s: set %d has %d candidates, want %d", label, i, g.Len(), w.Len())
		}
		if !slices.Equal(w.Nodes, g.Nodes) {
			t.Fatalf("%s: set %d arenas differ:\n got %v\nwant %v", label, i, g.Nodes, w.Nodes)
		}
	}
}

// findBeforeScan is Find's per-path work as it stood before the streamed
// scan, kept here only as the reference: materialize the whole posting list
// with Lookup, then prune the materialized matches.
func findBeforeScan(t *testing.T, ix pathindex.Reader, q *query.Query, dec *decompose.Decomposition, alpha float64) []Set {
	t.Helper()
	nt := newNodeTest(ix, q, alpha)
	sets := make([]Set, len(dec.Paths))
	for i := range dec.Paths {
		p := &dec.Paths[i]
		matches, err := ix.Lookup(p.Labels, alpha)
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = Set{Path: p, Initial: len(matches)}
		for _, m := range matches {
			if keepCandidate(ix.Graph(), nt, p, m.Nodes, m.Prle, m.Prn, alpha) {
				sets[i].Nodes = append(sets[i].Nodes, m.Nodes...)
				sets[i].n++
			}
		}
	}
	return sets
}

// TestFindParallelEquivalence is the pre-join determinism property: Find at
// workers 2, 4, and 8 — with and without a candidate cache — produces
// bitwise-identical sets and Stats to the sequential walk, across both
// decomposition strategies and α on both sides of β; and the sequential
// walk's sets are bitwise those of materialize-then-prune.
func TestFindParallelEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g, ix := synthIx(t, seed)
		rng := rand.New(rand.NewSource(seed * 131))
		for qi := 0; qi < 3; qi++ {
			q, err := gen.RandomQuery(rng, g.NumLabels(), 2+rng.Intn(2), 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []decompose.Mode{decompose.ModeOptimized, decompose.ModeRandom} {
				for _, alpha := range []float64{0.02, 0.1} { // β = 0.05 lies between
					dec, err := decompose.Decompose(q, ix, decompose.Options{
						MaxLen: 2, Alpha: alpha, Mode: mode, Seed: seed,
					})
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("seed %d q%d mode %d α=%v", seed, qi, mode, alpha)
					seq, seqStats, err := Find(context.Background(), ix, q, dec, alpha, 1, nil)
					if err != nil {
						t.Fatalf("%s: sequential: %v", label, err)
					}
					setsIdentical(t, label+" vs materialize-then-prune", findBeforeScan(t, ix, q, dec, alpha), seq)
					for _, workers := range []int{2, 4, 8} {
						for _, withCache := range []bool{false, true} {
							var cache *Cache
							if withCache {
								cache = NewCache(0)
							}
							got, gotStats, err := Find(context.Background(), ix, q, dec, alpha, workers, cache)
							if err != nil {
								t.Fatalf("%s w=%d: %v", label, workers, err)
							}
							setsIdentical(t, fmt.Sprintf("%s w=%d cache=%v", label, workers, withCache), seq, got)
							if math.Float64bits(seqStats.SSPath) != math.Float64bits(gotStats.SSPath) ||
								math.Float64bits(seqStats.SSContext) != math.Float64bits(gotStats.SSContext) {
								t.Fatalf("%s w=%d: stats (%v,%v), want (%v,%v)", label, workers,
									gotStats.SSPath, gotStats.SSContext, seqStats.SSPath, seqStats.SSContext)
							}
						}
					}
				}
			}
		}
	}
}

// arenaReaders returns a packed index and a live view with a dirty overlay
// over the same seeded PGD, large enough that some paths keep several
// hundred rows.
func arenaReaders(t *testing.T, seed int64) map[string]pathindex.Reader {
	t.Helper()
	return packedAndLive(t, gen.SynthOptions{
		Refs: 300, EdgeFactor: 2, Labels: 3, UncertainFrac: 0.4,
		Groups: 8, GroupSize: 3, PairsPerGroup: 2, Seed: seed,
	}, 6, func(rng *rand.Rand, d *refgraph.PGD) (live.Mutation, bool) {
		a, b := refgraph.RefID(rng.Intn(d.NumRefs())), refgraph.RefID(rng.Intn(d.NumRefs()))
		if a == b {
			return live.Mutation{}, false
		}
		return live.Mutation{Op: live.OpAddEdge, A: a, B: b, P: 0.5 + 0.5*rng.Float64()}, true
	})
}

// packedAndLive returns a packed index (β 0.05, L 2) over the PGD opt
// generates and a live view over the same PGD with a dirty overlay: one batch
// of n mutations, each drawn by next until it reports one usable, seeded by
// opt.Seed.
func packedAndLive(t *testing.T, opt gen.SynthOptions, n int, next func(*rand.Rand, *refgraph.PGD) (live.Mutation, bool)) map[string]pathindex.Reader {
	t.Helper()
	synth := func() *refgraph.PGD {
		d, err := gen.Synthetic(opt)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	g, err := entity.Build(synth(), entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := synth()
	db, err := live.Create(context.Background(), t.TempDir(), d, live.Options{
		Index:        pathindex.Options{MaxLen: 2, Beta: 0.05, Gamma: 0.1},
		CompactEvery: -1, CompactDirtyFrac: -1, // the overlay stays
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	rng := rand.New(rand.NewSource(opt.Seed))
	var ms []live.Mutation
	for len(ms) < n {
		if m, ok := next(rng, d); ok {
			ms = append(ms, m)
		}
	}
	if _, err := db.Apply(ms); err != nil {
		t.Fatal(err)
	}
	if db.View().DirtyEntities() == 0 {
		t.Fatal("live view carries no overlay")
	}
	return map[string]pathindex.Reader{"packed": buildIx(t, g, 2, 0.05), "live": db.View()}
}

// TestFindArenasExact: every Set Find returns holds its kept rows in one
// arena of exactly their ids — len == cap == rows·w, so what the candidate
// cache and the k-partite graph retain is the rows and nothing more — with
// the bytes of a Workers-1 run, at Workers 1 and 7, with no cache, a cold
// one and the same one warm, over a packed index and a live view with a dirty
// overlay (which bypasses the cache), α on both sides of β. Some path must
// keep more rows than two survivor chunks hold, so the layout of several
// chunks is what is checked. What a path's scanPath allocates beyond its scan
// (the same ScanCount, node filter and context tests, warm, keeping nothing)
// is held to its ids too:
// the survivor chunks, the list of them and the arena, 4·w bytes a row
// rounded as a reference allocation of as many ids is, and beyond that one
// constant per reader (the scan callback and what it captures) — the same
// for every path, whatever it keeps. A per-row float kept anywhere varies it.
func TestFindArenasExact(t *testing.T) {
	ctx := context.Background()
	sets, most := 0, 0
	for _, seed := range []int64{1, 2} {
		for kind, ix := range arenaReaders(t, seed) {
			overhead := int64(-1)
			rng := rand.New(rand.NewSource(seed * 71))
			for qi := 0; qi < 3; qi++ {
				q, err := gen.RandomQuery(rng, ix.Graph().NumLabels(), 2+rng.Intn(2), 3)
				if err != nil {
					t.Fatal(err)
				}
				for _, alpha := range []float64{0.02, 0.1} { // β = 0.05 lies between
					dec, err := decompose.Decompose(q, ix, decompose.Options{MaxLen: 2, Alpha: alpha})
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("seed %d %s q%d α=%v", seed, kind, qi, alpha)
					want, _, err := Find(ctx, ix, q, dec, alpha, 1, nil)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					nt := newNodeTest(ix, q, alpha)
					for i, s := range want {
						p, w := s.Path, len(s.Path.Nodes)
						path := heapBytes(func() { sinkRows, _, _ = scanPath(ctx, ix, nt, p, alpha) })
						keep := pathFilter(nt, p)
						scan := heapBytes(func() {
							ix.ScanCount(ctx, p.Labels, alpha, keep, func(nodes []entity.ID, prle, prn float64) bool {
								keepCandidate(ix.Graph(), nt, p, nodes, prle, prn, alpha)
								return true
							})
						})
						ids := heapBytes(func() { idLayout(s.Len(), w) })
						extra := int64(path) - int64(scan) - int64(ids)
						if overhead < 0 {
							overhead = extra
						}
						if extra != overhead {
							t.Fatalf("%s: path %d keeps %d rows of %d ids in %d bytes beyond its scan's %d: %d of ids and %d more, where other paths had %d more",
								label, i, s.Len(), w, path-scan, scan, ids, extra, overhead)
						}
					}
					for _, workers := range []int{1, 7} {
						cache := NewCache(0)
						for _, c := range []*Cache{nil, cache, cache} {
							at := fmt.Sprintf("%s w=%d cache=%v", label, workers, c != nil)
							got, _, err := Find(ctx, ix, q, dec, alpha, workers, c)
							if err != nil {
								t.Fatalf("%s: %v", at, err)
							}
							setsIdentical(t, at, want, got)
							for i, s := range got {
								if w := len(s.Path.Nodes); len(s.Nodes) != s.Len()*w || cap(s.Nodes) != s.Len()*w {
									t.Fatalf("%s: set %d of %d rows of %d ids holds %d/%d node ids (len/cap)",
										at, i, s.Len(), w, len(s.Nodes), cap(s.Nodes))
								}
								sets, most = sets+1, max(most, s.Len())
							}
						}
					}
				}
			}
			t.Logf("seed %d %s: scanPath allocates %d bytes beyond its scan and its ids", seed, kind, overhead)
			if overhead > 8*firstChunk {
				t.Errorf("seed %d %s: scanPath allocates %d bytes beyond its scan and its ids, more than a float for each row of its first chunk", seed, kind, overhead)
			}
		}
	}
	t.Logf("%d sets checked, the largest of %d rows", sets, most)
	if most <= 3*firstChunk {
		t.Fatalf("no path kept more than %d rows: the layout of several chunks was never checked", 3*firstChunk)
	}
}

var (
	sinkRows Rows
	sinkIDs  [][]entity.ID
)

// heapBytes is the least TotalAlloc growth over five calls of f: a call the
// runtime allocates inside of on its own account does not count.
func heapBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// idLayout allocates what n rows of w ids take in scanPath's layout: chunks
// of 64, 128, 256, … rows until they hold n, the list of them grown by
// append, and one exact-size arena.
func idLayout(n, w int) {
	sinkIDs = nil
	for k := 0; n > (firstChunk<<k)-firstChunk; k++ {
		sinkIDs = append(sinkIDs, make([]entity.ID, 0, (firstChunk<<k)*w))
	}
	sinkRows = Rows{Nodes: make([]entity.ID, n*w)}
}

// TestFindCached: a second Find over the same (query, α, reader) is served
// entirely from the cache — per-path hits — and returns identical sets.
func TestFindCached(t *testing.T) {
	g, ix := synthIx(t, 7)
	rng := rand.New(rand.NewSource(7))
	q, err := gen.RandomQuery(rng, g.NumLabels(), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decompose.Decompose(q, ix, decompose.Options{MaxLen: 2, Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(0)
	cold, coldStats, err := Find(context.Background(), ix, q, dec, 0.1, 2, cache)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.CacheHits != 0 || coldStats.CacheMisses != len(dec.Paths) {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/%d",
			coldStats.CacheHits, coldStats.CacheMisses, len(dec.Paths))
	}
	warm, warmStats, err := Find(context.Background(), ix, q, dec, 0.1, 2, cache)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.CacheHits != len(dec.Paths) || warmStats.CacheMisses != 0 {
		t.Fatalf("warm run: hits=%d misses=%d, want %d/0",
			warmStats.CacheHits, warmStats.CacheMisses, len(dec.Paths))
	}
	setsIdentical(t, "cached", cold, warm)
	st := cache.Stats()
	if st.Entries == 0 || st.Weight == 0 {
		t.Fatalf("cache empty after use: %+v", st)
	}
	// A different α must not share entries.
	_, s2, err := Find(context.Background(), ix, q, dec, 0.2, 2, cache)
	if err != nil {
		t.Fatal(err)
	}
	if s2.CacheHits != 0 {
		t.Fatalf("α=0.2 run hit α=0.1 entries: %+v", s2)
	}
}

// mutatingReader wraps a Reader and reports pending overlay mutations —
// the shape live.View exposes. Find must bypass the cache for it.
type mutatingReader struct {
	pathindex.Reader
	muts uint64
}

func (m *mutatingReader) Mutations() uint64 { return m.muts }

func TestFindBypassesDirtyReader(t *testing.T) {
	g, ix := synthIx(t, 9)
	rng := rand.New(rand.NewSource(9))
	q, err := gen.RandomQuery(rng, g.NumLabels(), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decompose.Decompose(q, ix, decompose.Options{MaxLen: 2, Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(0)
	dirty := &mutatingReader{Reader: ix, muts: 3}
	_, st, err := Find(context.Background(), dirty, q, dec, 0.1, 2, cache)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheBypassed != len(dec.Paths) || st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("dirty reader: %+v, want full bypass", st)
	}
	if cs := cache.Stats(); cs.Entries != 0 || cs.Bypassed != uint64(len(dec.Paths)) {
		t.Fatalf("cache state after bypass: %+v", cs)
	}
	// The same reader with a drained overlay (post-compaction) caches again.
	dirty.muts = 0
	_, st, err = Find(context.Background(), dirty, q, dec, 0.1, 2, cache)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheMisses != len(dec.Paths) {
		t.Fatalf("clean reader did not populate cache: %+v", st)
	}
}

// countdownCtx reports Canceled after Err has been called n times — a
// deterministic probe that a path's scan polls cancellation mid-path, not
// only between paths.
type countdownCtx struct {
	context.Context
	mu   sync.Mutex
	left int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

func (c *countdownCtx) Done() <-chan struct{} { return nil }

// TestFindCancelMidPrune: with a context that expires after the first few
// polls, Find must return Canceled even though every per-path unit was
// already dispatched — proving the scan callback itself polls ctx (the
// every-1024-records convention), not just the between-paths check.
func TestFindCancelMidPrune(t *testing.T) {
	g, ix := synthIx(t, 11)
	rng := rand.New(rand.NewSource(11))
	q, err := gen.RandomQuery(rng, g.NumLabels(), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decompose.Decompose(q, ix, decompose.Options{MaxLen: 2, Alpha: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// Allow exactly one successful poll: the entry check passes, then the
	// first in-scan poll (record 0 of the first path) observes cancellation.
	ctx := &countdownCtx{Context: context.Background(), left: 1}
	_, _, err = Find(ctx, ix, q, dec, 0.01, 1, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// The polling granularity is the join stage's every-1024 convention; a
// drive-by change here would silently coarsen cancellation latency.
func TestPruneCancelGranularity(t *testing.T) {
	if cancelCheckEvery != 1024 {
		t.Fatalf("cancelCheckEvery = %d, want 1024", cancelCheckEvery)
	}
}

// contextCounter counts how often Find asks the reader for its context
// statistics, which only reading the node-level sets does.
type contextCounter struct {
	pathindex.Reader
	calls atomic.Int32
}

func (c *contextCounter) Context() *pathindex.Context {
	c.calls.Add(1)
	return c.Reader.Context()
}

// TestFindAllHitsBuildNoChecker: the node-level sets are read by the first
// path that scans, once, and not at all by a request whose every path is a
// candidate-cache hit (the server's stream path on a repeated shape).
func TestFindAllHitsBuildNoChecker(t *testing.T) {
	g, base := synthIx(t, 7)
	ix := &contextCounter{Reader: base}
	q, err := gen.RandomQuery(rand.New(rand.NewSource(7)), g.NumLabels(), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decompose.Decompose(q, ix, decompose.Options{MaxLen: 2, Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Paths) < 2 {
		t.Fatalf("decomposition has %d paths; want several misses sharing one read of the sets", len(dec.Paths))
	}
	ctx := context.Background()
	cache := NewCache(0)
	if _, st, err := Find(ctx, ix, q, dec, 0.1, 1, cache); err != nil || st.CacheMisses != len(dec.Paths) {
		t.Fatalf("cold Find: misses %d err %v", st.CacheMisses, err)
	}
	if n := ix.calls.Load(); n != 1 {
		t.Fatalf("cold Find read the node-level sets %d times, want 1", n)
	}
	hit := testing.AllocsPerRun(50, func() {
		if _, st, err := Find(ctx, ix, q, dec, 0.1, 1, cache); err != nil || st.CacheHits != len(dec.Paths) {
			t.Fatalf("warm Find: hits %d err %v", st.CacheHits, err)
		}
	})
	if n := ix.calls.Load(); n != 1 {
		t.Errorf("all-hit Finds read the node-level sets %d more times", n-1)
	}
	// What an all-hit Find allocates is its result slots, the query's
	// fingerprint and two allocations per path for the key: 16 + 2·paths
	// today. Reading the node-level sets is more than one per query node
	// (the per-node label counts, the memo keys, the AND of the factors),
	// so the allowance has no room for it.
	sets := testing.AllocsPerRun(50, func() { newNodeTest(base, q, 0.1) })
	if allowance := float64(16 + 2*len(dec.Paths)); hit > allowance {
		t.Errorf("all-hit Find makes %v allocations, allowance %v (reading the node-level sets is %v)", hit, allowance, sets)
	}
}
