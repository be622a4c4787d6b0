package live

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/pathindex"
	"repro/internal/prob"
	"repro/internal/refgraph"
)

const (
	testMaxLen = 2
	testBeta   = 0.05
	testGamma  = 0.1
)

func testOptions() Options {
	return Options{
		Index:        pathindex.Options{MaxLen: testMaxLen, Beta: testBeta, Gamma: testGamma},
		CompactEvery: -1, CompactDirtyFrac: -1, // manual compaction only
	}
}

func basePGD(t testing.TB, seed int64) *refgraph.PGD {
	t.Helper()
	d, err := gen.Synthetic(gen.SynthOptions{
		Refs: 24, EdgeFactor: 2, Labels: 4, UncertainFrac: 0.4,
		Groups: 2, GroupSize: 3, PairsPerGroup: 2, Seed: seed,
	})
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	return d
}

func createDB(t testing.TB, d *refgraph.PGD, opt Options) *DB {
	t.Helper()
	db, err := Create(context.Background(), t.TempDir(), d, opt)
	if err != nil {
		t.Fatalf("live.Create: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// randomMutation draws one mutation against the current PGD state.
func randomMutation(rng *rand.Rand, d *refgraph.PGD) Mutation {
	alpha := d.Alphabet()
	switch rng.Intn(5) {
	case 0: // add-ref
		l1 := alpha.Name(prob.LabelID(rng.Intn(alpha.Len())))
		l2 := alpha.Name(prob.LabelID(rng.Intn(alpha.Len())))
		if l1 == l2 {
			return Mutation{Op: OpAddRef, Labels: []LabelP{{Label: l1, P: 1}}}
		}
		p := 0.25 + 0.5*rng.Float64()
		return Mutation{Op: OpAddRef, Labels: []LabelP{{Label: l1, P: p}, {Label: l2, P: 1 - p}}}
	case 1, 2: // add-edge (new or overwriting)
		a := refgraph.RefID(rng.Intn(d.NumRefs()))
		b := refgraph.RefID(rng.Intn(d.NumRefs()))
		for b == a {
			b = refgraph.RefID(rng.Intn(d.NumRefs()))
		}
		return Mutation{Op: OpAddEdge, A: a, B: b, P: 0.3 + 0.7*rng.Float64()}
	case 3: // set-linkage update on an existing set when possible
		if d.NumSets() > 0 {
			s := d.Set(refgraph.SetID(rng.Intn(d.NumSets())))
			return Mutation{Op: OpSetLinkage, Members: s.Members, P: rng.Float64()}
		}
		fallthrough
	default: // set-linkage on a fresh pair (nearby ids keep components small)
		a := rng.Intn(d.NumRefs() - 1)
		b := a + 1 + rng.Intn(3)
		if b >= d.NumRefs() {
			b = d.NumRefs() - 1
		}
		if a == b {
			a--
		}
		return Mutation{Op: OpSetLinkage,
			Members: []refgraph.RefID{refgraph.RefID(a), refgraph.RefID(b)},
			P:       0.2 + 0.6*rng.Float64()}
	}
}

// rebuildIndex builds a fresh index over the mutated PGD, the oracle the
// live view must match exactly, under the given entity build options
// (default when omitted).
func rebuildIndex(t testing.TB, d *refgraph.PGD, build ...entity.BuildOptions) *pathindex.Index {
	t.Helper()
	g, err := entity.Build(d, append(build, entity.BuildOptions{})[0])
	if err != nil {
		t.Fatalf("rebuild entity.Build: %v", err)
	}
	ix, err := pathindex.Build(context.Background(), g, pathindex.Options{
		MaxLen: testMaxLen, Beta: testBeta, Gamma: testGamma, Dir: filepath.Join(t.TempDir(), "ix"),
	})
	if err != nil {
		t.Fatalf("rebuild pathindex.Build: %v", err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// matchKey canonicalizes a match by the reference sets of its mapped
// entities: entity ids differ between the live graph (append-order) and a
// from-scratch rebuild (singletons-then-sets order), reference sets do not.
func matchKey(g *entity.Graph, m join.Match) string {
	var sb strings.Builder
	for _, v := range m.Mapping {
		fmt.Fprintf(&sb, "%v;", g.Refs(v))
	}
	return sb.String()
}

func sameMatchSets(t *testing.T, label string, gGot *entity.Graph, got []join.Match, gWant *entity.Graph, want []join.Match) {
	t.Helper()
	wantBy := make(map[string]join.Match, len(want))
	for _, m := range want {
		wantBy[matchKey(gWant, m)] = m
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d matches, want %d", label, len(got), len(want))
		return
	}
	for _, m := range got {
		k := matchKey(gGot, m)
		w, ok := wantBy[k]
		if !ok {
			t.Errorf("%s: unexpected match %s", label, k)
			continue
		}
		if diff := m.Pr() - w.Pr(); diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: match %s Pr=%v want %v", label, k, m.Pr(), w.Pr())
		}
	}
}

// TestOverlayEquivalence is the live view's correctness property: for
// random mutation sequences, query results through the live view (immutable
// base ∖ dirty ⊕ paths walked from the dirty set) must exactly equal
// results from a from-scratch rebuild on the mutated PGD — across both
// decomposition strategies and for thresholds on both sides of β.
func TestOverlayEquivalence(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			d := basePGD(t, seed)
			db := createDB(t, d, testOptions())
			rng := rand.New(rand.NewSource(seed * 7))
			totalMatches, dirtyMatches := 0, 0

			for batch := 0; batch < 3; batch++ {
				var ms []Mutation
				for len(ms) < 6 {
					ms = append(ms, randomMutation(rng, db.PGDSnapshot()))
				}
				if _, err := db.Apply(ms); err != nil {
					// A batch can legitimately be rejected (e.g. linkage
					// chain exceeding the component budget); the database
					// must be untouched, so just move on.
					t.Logf("batch %d rejected: %v", batch, err)
					continue
				}
				oracle := rebuildIndex(t, db.PGDSnapshot())
				view := db.View()
				qrng := rand.New(rand.NewSource(seed*31 + int64(batch)))
				for qi := 0; qi < 3; qi++ {
					q, err := gen.RandomQuery(qrng, view.Graph().NumLabels(), 2+qrng.Intn(2), 3)
					if err != nil {
						t.Fatalf("RandomQuery: %v", err)
					}
					for _, alpha := range []float64{0.02, 0.15} {
						for _, strat := range []core.Strategy{core.StrategyOptimized, core.StrategyRandomDecomp} {
							opt := core.Options{Alpha: alpha, Strategy: strat,
								Seed: seed ^ int64(qi)}
							gotRes, err := core.Match(context.Background(), view, q, opt)
							if err != nil {
								t.Fatalf("live Match: %v", err)
							}
							wantRes, err := core.Match(context.Background(), oracle, q, opt)
							if err != nil {
								t.Fatalf("oracle Match: %v", err)
							}
							sameMatchSets(t,
								fmt.Sprintf("batch %d q%d α=%v %v", batch, qi, alpha, strat),
								view.Graph(), gotRes.Matches, oracle.Graph(), wantRes.Matches)
							totalMatches += len(gotRes.Matches)
							for _, m := range gotRes.Matches {
								for _, v := range m.Mapping {
									if view.dirty != nil && view.dirty[v] {
										dirtyMatches++
										break
									}
								}
							}
						}
					}
				}
			}
			if totalMatches == 0 {
				t.Error("property ran on empty match sets only — workload too sparse to prove anything")
			}
			if dirtyMatches == 0 {
				t.Error("no compared match touched a dirty entity — the walk from the dirty set went unexercised")
			}
			t.Logf("compared %d matches (%d through dirty entities)", totalMatches, dirtyMatches)
		})
	}
}

// TestApplyRollback exercises the mid-apply undo path: an asymmetric CPT
// passes the upfront validation (which only checks length) but fails inside
// AddEdge after earlier mutations of the batch already landed in the PGD —
// the whole batch must roll back without a trace.
func TestApplyRollback(t *testing.T) {
	d := basePGD(t, 8)
	db := createDB(t, d, testOptions())
	before := db.PGDSnapshot()
	badCPT := make([]float64, 16) // 4 labels; [0][1] ≠ [1][0]
	badCPT[1] = 0.9
	_, err := db.Apply([]Mutation{
		{Op: OpAddRef, Labels: []LabelP{{Label: "l0", P: 1}}},
		{Op: OpAddEdge, A: 0, B: 1, P: 0.9},
		{Op: OpSetLinkage, Members: []refgraph.RefID{0, 1}, P: 0.5},
		{Op: OpAddEdge, A: 2, B: 3, P: 0.5, CPT: badCPT},
	})
	if err == nil {
		t.Fatal("asymmetric-CPT batch was accepted")
	}
	after := db.PGDSnapshot()
	if after.NumRefs() != before.NumRefs() || after.NumEdges() != before.NumEdges() || after.NumSets() != before.NumSets() {
		t.Fatalf("rolled-back batch left traces: %d/%d/%d vs %d/%d/%d",
			after.NumRefs(), after.NumEdges(), after.NumSets(),
			before.NumRefs(), before.NumEdges(), before.NumSets())
	}
	if got := db.Status().Mutations; got != 0 {
		t.Fatalf("rolled-back batch counted %d mutations", got)
	}
	// The database keeps working after a rollback.
	if _, err := db.Apply([]Mutation{{Op: OpAddEdge, A: 0, B: 1, P: 0.9}}); err != nil {
		t.Fatalf("Apply after rollback: %v", err)
	}
	oracle := rebuildIndex(t, db.PGDSnapshot())
	view := db.View()
	q, err := gen.RandomQuery(rand.New(rand.NewSource(6)), view.Graph().NumLabels(), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Match(context.Background(), view, q, core.Options{Alpha: 0.1})
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	want, err := core.Match(context.Background(), oracle, q, core.Options{Alpha: 0.1})
	if err != nil {
		t.Fatalf("oracle Match: %v", err)
	}
	sameMatchSets(t, "post-rollback", view.Graph(), got.Matches, oracle.Graph(), want.Matches)
}

// TestValidateRejectsNaN: a NaN edge or linkage probability is out of range,
// though it passes a check written p < 0 || p > 1.
func TestValidateRejectsNaN(t *testing.T) {
	d := basePGD(t, 8)
	for _, m := range []Mutation{
		{Op: OpAddEdge, A: 0, B: 1, P: math.NaN()},
		{Op: OpSetLinkage, Members: []refgraph.RefID{0, 1}, P: math.NaN()},
	} {
		if err := m.validate(d, 0); err == nil {
			t.Errorf("%s with probability NaN validated", m.Op)
		}
	}
}

// TestWALRecovery closes a mutated database and reopens it: the replayed
// WAL must reproduce the same logical state.
func TestWALRecovery(t *testing.T) {
	d := basePGD(t, 5)
	dir := t.TempDir()
	db, err := Create(context.Background(), dir, d, testOptions())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	rng := rand.New(rand.NewSource(99))
	var applied int
	for i := 0; i < 8; i++ {
		if _, err := db.Apply([]Mutation{randomMutation(rng, db.PGDSnapshot())}); err == nil {
			applied++
		}
	}
	if applied == 0 {
		t.Fatal("no mutation applied")
	}
	snap := db.PGDSnapshot()
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2, err := Open(dir, testOptions())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db2.Close()
	if got := db2.Status().Mutations; got != uint64(applied) {
		t.Fatalf("recovered %d mutations, want %d", got, applied)
	}
	oracle := rebuildIndex(t, snap)
	view := db2.View()
	qrng := rand.New(rand.NewSource(3))
	q, err := gen.RandomQuery(qrng, view.Graph().NumLabels(), 3, 3)
	if err != nil {
		t.Fatalf("RandomQuery: %v", err)
	}
	got, err := core.Match(context.Background(), view, q, core.Options{Alpha: 0.1})
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	want, err := core.Match(context.Background(), oracle, q, core.Options{Alpha: 0.1})
	if err != nil {
		t.Fatalf("oracle Match: %v", err)
	}
	sameMatchSets(t, "recovered", view.Graph(), got.Matches, oracle.Graph(), want.Matches)
}

// TestWALTornTail corrupts the WAL tail; Open must recover everything up to
// the corruption and drop the torn record.
func TestWALTornTail(t *testing.T) {
	d := basePGD(t, 6)
	dir := t.TempDir()
	db, err := Create(context.Background(), dir, d, testOptions())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := db.Apply([]Mutation{{Op: OpAddEdge, A: 0, B: 1, P: 0.9}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	walPath := db.walPath(1)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Append garbage simulating a torn write.
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2, err := Open(dir, testOptions())
	if err != nil {
		t.Fatalf("Open after torn tail: %v", err)
	}
	defer db2.Close()
	if got := db2.Status().Mutations; got != 1 {
		t.Fatalf("recovered %d mutations, want 1", got)
	}
}

// TestDirectoryLock: a second process (simulated by a second Open in this
// one) must not attach to a live database — interleaved WAL appends would
// corrupt it past CRC recovery.
func TestDirectoryLock(t *testing.T) {
	d := basePGD(t, 9)
	dir := t.TempDir()
	db, err := Create(context.Background(), dir, d, testOptions())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := Open(dir, testOptions()); err == nil || !strings.Contains(err.Error(), "another process") {
		t.Fatalf("second Open while locked: err = %v, want lock refusal", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db2, err := Open(dir, testOptions())
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	db2.Close()
}

// TestOpenInheritsIndexParams: reopening with different index flags must
// not silently change the parameters future compactions build with.
func TestOpenInheritsIndexParams(t *testing.T) {
	d := basePGD(t, 10)
	dir := t.TempDir()
	db, err := Create(context.Background(), dir, d, testOptions())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	db.Close()
	opt := testOptions()
	opt.Index = pathindex.Options{MaxLen: 1, Beta: 0.5, Gamma: 0.5} // drifted flags
	db2, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db2.Close()
	if err := db2.Compact(context.Background()); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	v := db2.View()
	if v.MaxLen() != testMaxLen || v.Beta() != testBeta {
		t.Fatalf("compacted generation built with drifted params: L=%d β=%v", v.MaxLen(), v.Beta())
	}
}

// TestViewStatsBytesIsIndexFile holds a view's Bytes to the size of its
// generation's packed.idx, not of the whole generation directory (which also
// holds the PGD snapshot), before and after a compaction.
func TestViewStatsBytesIsIndexFile(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(context.Background(), dir, basePGD(t, 3), testOptions())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer db.Close()
	check := func(gen string) {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, gen, "packed.idx"))
		if err != nil {
			t.Fatal(err)
		}
		if got := db.View().Stats().Bytes; got != fi.Size() {
			t.Errorf("%s: View().Stats().Bytes = %d, packed.idx is %d bytes", gen, got, fi.Size())
		}
	}
	check("gen-000001")
	if err := db.Compact(context.Background()); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	check("gen-000002")
}

// TestCompaction folds the mutations into a new generation and checks the
// published view still answers exactly like a rebuild, that the directory
// rotated, and that post-compaction mutations keep working.
func TestCompaction(t *testing.T) {
	d := basePGD(t, 7)
	dir := t.TempDir()
	db, err := Create(context.Background(), dir, d, testOptions())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 6; i++ {
		db.Apply([]Mutation{randomMutation(rng, db.PGDSnapshot())})
	}
	if db.Status().Mutations == 0 {
		t.Fatal("no mutation applied before compaction")
	}
	if err := db.Compact(context.Background()); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := db.Status()
	if st.Generation != 2 || st.Mutations != 0 || st.Compactions != 1 {
		t.Fatalf("status after compaction: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "gen-000001")); !os.IsNotExist(err) {
		t.Errorf("old generation dir not removed (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gen-000002")); err != nil {
		t.Errorf("new generation dir missing: %v", err)
	}

	// Post-compaction mutations land on the new base.
	for i := 0; i < 3; i++ {
		db.Apply([]Mutation{randomMutation(rng, db.PGDSnapshot())})
	}
	oracle := rebuildIndex(t, db.PGDSnapshot())
	view := db.View()
	qrng := rand.New(rand.NewSource(4))
	q, err := gen.RandomQuery(qrng, view.Graph().NumLabels(), 3, 3)
	if err != nil {
		t.Fatalf("RandomQuery: %v", err)
	}
	got, err := core.Match(context.Background(), view, q, core.Options{Alpha: 0.1})
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	want, err := core.Match(context.Background(), oracle, q, core.Options{Alpha: 0.1})
	if err != nil {
		t.Fatalf("oracle Match: %v", err)
	}
	sameMatchSets(t, "post-compaction", view.Graph(), got.Matches, oracle.Graph(), want.Matches)
}

// TestConcurrentIngestAndMatch is the -race stress: readers query
// continuously while a writer applies mutation batches and automatic
// compactions publish new generations — half stream in emit order, half
// collect their top 5 by probability through the retained store. Every
// query must succeed — the point of the generation-swap design is zero read
// downtime.
func TestConcurrentIngestAndMatch(t *testing.T) {
	d := basePGD(t, 11)
	opt := testOptions()
	opt.CompactEvery = 6 // force compactions mid-stress
	db := createDB(t, d, opt)

	q, err := gen.RandomQuery(rand.New(rand.NewSource(2)), 4, 3, 3)
	if err != nil {
		t.Fatalf("RandomQuery: %v", err)
	}
	var (
		stop    atomic.Bool
		queries atomic.Int64
		wg      sync.WaitGroup
	)
	readers := 4
	if testing.Short() {
		readers = 2
	}
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				var err error
				if r%2 == 0 {
					_, err = core.MatchStream(context.Background(), db.View(), q,
						core.Options{Alpha: 0.1}, func(join.Match) bool { return true })
				} else {
					_, err = core.Match(context.Background(), db.View(), q,
						core.Options{Alpha: 0.1, Order: core.OrderByProb, Limit: 5})
				}
				if err != nil {
					errs <- err
					return
				}
				queries.Add(1)
			}
		}()
	}

	rng := rand.New(rand.NewSource(23))
	writes := 40
	if testing.Short() {
		writes = 15
	}
	for i := 0; i < writes; i++ {
		db.Apply([]Mutation{randomMutation(rng, db.PGDSnapshot())})
	}
	// Keep the readers hammering until a background compaction has actually
	// published — that swap is exactly the moment the test is about.
	for deadline := time.Now().Add(30 * time.Second); db.Status().Compactions == 0 || db.Status().Compacting; {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("query failed during ingest: %v", err)
	default:
	}
	if queries.Load() == 0 {
		t.Fatal("no query completed during the stress run")
	}
	if db.Status().Compactions == 0 {
		t.Error("no compaction triggered by the mutation volume")
	}
	t.Logf("served %d queries across %d writes and %d compactions",
		queries.Load(), writes, db.Status().Compactions)
}

// BenchmarkServeDuringIngest measures query latency while a writer applies
// mutations and compactions publish fresh generations in the background —
// the no-downtime acceptance benchmark: every iteration is a full query
// served successfully regardless of concurrent writes.
func BenchmarkServeDuringIngest(b *testing.B) {
	d := basePGD(b, 13)
	db := createDB(b, d, testOptions())
	q, err := gen.RandomQuery(rand.New(rand.NewSource(2)), 4, 3, 3)
	if err != nil {
		b.Fatalf("RandomQuery: %v", err)
	}

	// Seed a dirty set so every measured query exercises the merged
	// base ∖ dirty ⊕ walk path, then keep mutating concurrently.
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 10; i++ {
		db.Apply([]Mutation{randomMutation(rng, db.PGDSnapshot())})
	}
	var stop atomic.Bool
	var writerDone sync.WaitGroup
	var writes atomic.Int64
	writerDone.Add(1)
	go func() {
		defer writerDone.Done()
		for n := 1; !stop.Load(); n++ {
			db.Apply([]Mutation{randomMutation(rng, db.PGDSnapshot())})
			writes.Add(1)
			if n%16 == 0 {
				// Fold the mutations into a fresh on-disk generation while
				// queries are being timed: the swap must cost readers
				// nothing.
				db.Compact(context.Background())
			}
		}
	}()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MatchStream(context.Background(), db.View(), q,
			core.Options{Alpha: 0.1}, func(join.Match) bool { return true }); err != nil {
			b.Fatalf("query failed during ingest: %v", err)
		}
	}
	b.StopTimer()
	stop.Store(true)
	writerDone.Wait()
	st := db.Status()
	b.ReportMetric(float64(st.Compactions), "compactions")
	b.ReportMetric(float64(writes.Load()), "writes")
}
