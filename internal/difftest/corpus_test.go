// Package difftest is the differential harness: one generator of cases —
// corpus arm × seed × reader × random query × α — and one check that holds
// every way of answering a case to internal/naive over the reader's own
// graph, bit for bit. The package is made of tests only.
package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/entity"
	"repro/internal/fixtures"
	"repro/internal/gen"
	"repro/internal/live"
	"repro/internal/pathindex"
	"repro/internal/query"
	"repro/internal/refgraph"
)

// The readers a case can run over, all answering over one seeded PGD.
const (
	packed    = "packed"    // a packed index built offline
	clean     = "clean"     // a live view with no overlay
	zero      = "zero"      // a live view dirtied by probability-0 edges: the packed index's answers
	dirty     = "dirty"     // a live view whose overlay changes the answers
	compacted = "compacted" // dirty's database after Compact
)

var allReaders = []string{packed, clean, zero, dirty, compacted}

// An arm is one corpus recipe and the axes its cases range over.
type arm struct {
	name    string
	pgd     func(seed int64) (*refgraph.PGD, error)
	seeds   []int64
	index   pathindex.Options // MaxLen, Beta and Gamma of every reader
	readers []string
	queries func(rng *rand.Rand, g *entity.Graph) ([]*query.Query, error)
	alphas  []float64 // fixed thresholds; TestBoundaryAnswers derives its own
	k       int       // the Limit K next to 0 and 1

	minLinked  float64 // least share of entities in multi-member components
	minMatches int     // least oracle matches of one case
}

func synth(opt gen.SynthOptions) func(int64) (*refgraph.PGD, error) {
	return func(seed int64) (*refgraph.PGD, error) {
		o := opt // seeds build in parallel
		o.Seed = seed
		return gen.Synthetic(o)
	}
}

// shapes draws one gen.RandomQuery of each (nodes, edges) shape.
func shapes(ss ...[2]int) func(*rand.Rand, *entity.Graph) ([]*query.Query, error) {
	return func(rng *rand.Rand, g *entity.Graph) ([]*query.Query, error) {
		var qs []*query.Query
		for _, s := range ss {
			q, err := gen.RandomQuery(rng, g.NumLabels(), s[0], s[1])
			if err != nil {
				return nil, err
			}
			qs = append(qs, q)
		}
		return qs, nil
	}
}

var (
	// defaultLinkage is gen's usual handful of linked references. Its
	// 5-node trees and one-cycle graphs join later paths at their last
	// position only, where a key walk grows the head and hands its rows
	// over out of id order. β = 0.2 lies between the two α.
	defaultLinkage = arm{
		name:    "default-linkage",
		pgd:     synth(gen.SynthOptions{Refs: 120, EdgeFactor: 3, Labels: 3, UncertainFrac: 0.4, Groups: 4, GroupSize: 3, PairsPerGroup: 2}),
		seeds:   []int64{1},
		index:   pathindex.Options{MaxLen: 2, Beta: 0.2, Gamma: 0.1},
		readers: allReaders,
		queries: shapes([2]int{5, 4}, [2]int{5, 5}, [2]int{5, 4}),
		alphas:  []float64{0.1, 0.3},
		k:       7,
	}
	// denseLinkage puts at least 15 % of the entities in multi-member
	// identity components, so both ways to a match's Prn are taken.
	denseLinkage = arm{
		name:      "dense-linkage",
		pgd:       synth(gen.SynthOptions{Refs: 40, EdgeFactor: 4, Labels: 2, UncertainFrac: 0.5, Groups: 8, GroupSize: 4, PairsPerGroup: 3}),
		seeds:     []int64{1},
		index:     pathindex.Options{MaxLen: 2, Beta: 0.2, Gamma: 0.1},
		readers:   allReaders,
		queries:   shapes([2]int{2, 1}, [2]int{3, 2}, [2]int{3, 3}, [2]int{4, 3}),
		alphas:    []float64{0.05, 0.3},
		k:         7,
		minLinked: 0.15,
	}
	// rich answers a 4-node query with thousands of matches, so a collect
	// fills many store chunks and a top-K keeps few of many.
	rich = arm{
		name:       "rich",
		pgd:        synth(gen.SynthOptions{Refs: 300, Labels: 3}),
		seeds:      []int64{5},
		index:      pathindex.Options{MaxLen: 2, Beta: 0.05, Gamma: 0.1},
		readers:    []string{packed},
		queries:    shapes([2]int{4, 3}),
		alphas:     []float64{0.05},
		k:          300,
		minMatches: 5000,
	}
	// correlated has label-conditioned edge probabilities (Section 5.3's
	// CPTs) and an index of paths up to 3 edges.
	correlated = arm{
		name: "correlated",
		pgd: func(seed int64) (*refgraph.PGD, error) {
			return gen.DBLP(gen.DBLPOptions{Authors: 60, Seed: seed})
		},
		seeds:   []int64{4},
		index:   pathindex.Options{MaxLen: 3, Beta: 0.05, Gamma: 0.1},
		readers: allReaders,
		queries: shapes([2]int{2, 1}, [2]int{3, 3}, [2]int{4, 3}),
		alphas:  []float64{0.1, 0.4},
		k:       5,
	}
	// motivating is the paper's Figure 1 with its (r, a, i) path query,
	// over an index of single edges.
	motivating = arm{
		name:    "motivating",
		pgd:     func(int64) (*refgraph.PGD, error) { return fixtures.MotivatingPGD(), nil },
		seeds:   []int64{1},
		index:   pathindex.Options{MaxLen: 1, Beta: 0.01, Gamma: 0.1},
		readers: []string{packed, clean},
		queries: func(rng *rand.Rand, g *entity.Graph) ([]*query.Query, error) {
			a := g.Alphabet()
			q := query.New()
			r, ac, i := q.AddNode(a.ID("r")), q.AddNode(a.ID("a")), q.AddNode(a.ID("i"))
			if err := q.AddEdge(r, ac); err != nil {
				return nil, err
			}
			if err := q.AddEdge(ac, i); err != nil {
				return nil, err
			}
			more, err := shapes([2]int{2, 1}, [2]int{3, 2})(rng, g)
			return append([]*query.Query{q}, more...), err
		},
		alphas: []float64{0.01, 0.05},
		k:      2,
	}
	// boundaryArm is TestBoundaryAnswers' corpus: many uncertain labels and
	// merged pairs, and a fine bucket grid.
	boundaryArm = arm{
		name:    "boundary",
		pgd:     synth(gen.SynthOptions{Refs: 60, EdgeFactor: 2, Labels: 3, UncertainFrac: 0.5, Groups: 4, GroupSize: 3, PairsPerGroup: 3}),
		index:   pathindex.Options{MaxLen: 2, Beta: 0.05, Gamma: 0.05},
		readers: []string{packed, zero},
		queries: shapes([2]int{2, 1}, [2]int{3, 3}, [2]int{3, 3}, [2]int{4, 4}),
		k:       3,
	}
)

// A corpus is one arm at one seed: its readers, over the seed's PGD, and its
// queries.
type corpus struct {
	arm     *arm
	seed    int64
	readers map[string]pathindex.Reader
	queries []*query.Query
	answers sync.Map // the oracle's, by reader, query and α
}

// root holds every corpus's files; TestMain removes it.
var (
	root    string
	closers []func() error
	closeMu sync.Mutex
	corpora sync.Map // "arm/seed" → *corpusOnce
)

type corpusOnce struct {
	once sync.Once
	co   *corpus
	err  error
}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "difftest")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	root = dir
	code := m.Run()
	for _, c := range closers {
		c()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// corpusOf returns the corpus of a at seed, built on first use and shared by
// every test after: readers are immutable snapshots.
func corpusOf(t testing.TB, a *arm, seed int64) *corpus {
	t.Helper()
	v, _ := corpora.LoadOrStore(fmt.Sprintf("%s/%d", a.name, seed), &corpusOnce{})
	e := v.(*corpusOnce)
	e.once.Do(func() { e.co, e.err = buildCorpus(a, seed) })
	if e.err != nil {
		t.Fatalf("%s seed %d: %v", a.name, seed, e.err)
	}
	return e.co
}

func buildCorpus(a *arm, seed int64) (*corpus, error) {
	d, err := a.pgd(seed)
	if err != nil {
		return nil, err
	}
	co := &corpus{arm: a, seed: seed, readers: map[string]pathindex.Reader{}}
	dir := filepath.Join(root, a.name, fmt.Sprint(seed))
	for _, kind := range a.readers {
		r, err := newReader(filepath.Join(dir, kind), kind, d, a.index, seed)
		if err != nil {
			return nil, fmt.Errorf("%s reader: %w", kind, err)
		}
		co.readers[kind] = r
	}
	g := co.readers[a.readers[0]].Graph()
	if a.minLinked > 0 {
		if share := linkedShare(g); share < a.minLinked {
			return nil, fmt.Errorf("%.0f%% of entities sit in multi-member components, want ≥ %.0f%%", 100*share, 100*a.minLinked)
		}
	}
	co.queries, err = a.queries(rand.New(rand.NewSource(seed*131)), g)
	return co, err
}

func addCloser(c func() error) {
	closeMu.Lock()
	closers = append(closers, c)
	closeMu.Unlock()
}

// newReader builds one reader of the given kind over d in dir.
func newReader(dir, kind string, d *refgraph.PGD, opt pathindex.Options, seed int64) (pathindex.Reader, error) {
	ctx := context.Background()
	if kind == packed {
		g, err := entity.Build(d, entity.BuildOptions{})
		if err != nil {
			return nil, err
		}
		opt.Dir = dir
		ix, err := pathindex.Build(ctx, g, opt)
		if err != nil {
			return nil, err
		}
		addCloser(ix.Close)
		return ix, nil
	}
	db, err := live.Create(ctx, dir, d.Clone(), live.Options{Index: opt, CompactEvery: -1, CompactDirtyFrac: -1})
	if err != nil {
		return nil, err
	}
	addCloser(db.Close)
	var ms []live.Mutation
	switch kind {
	case zero:
		ms = zeroEdges(d, seed)
	case dirty, compacted:
		ms = answerChanging(d, seed)
	}
	if len(ms) > 0 {
		if _, err := db.Apply(ms); err != nil {
			return nil, err
		}
		if db.View().DirtyEntities() == 0 {
			return nil, fmt.Errorf("the view carries no overlay")
		}
	}
	if kind == compacted {
		if err := db.Compact(ctx); err != nil {
			return nil, err
		}
		if v := db.View(); v.DirtyEntities() != 0 || v.Generation() < 2 {
			return nil, fmt.Errorf("compacted view at generation %d with %d dirty entities", v.Generation(), v.DirtyEntities())
		}
	}
	return db.View(), nil
}

// zeroEdges are twelve edges of probability 0 between references outside
// every reference set: they change no path's probability, so the view's
// answers are the packed index's, but the paths through their entities are
// served from the overlay.
func zeroEdges(d *refgraph.PGD, seed int64) []live.Mutation {
	inSet := map[refgraph.RefID]bool{}
	for i := 0; i < d.NumSets(); i++ {
		for _, r := range d.Set(refgraph.SetID(i)).Members {
			inSet[r] = true
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var ms []live.Mutation
	for len(ms) < 12 {
		a, b := refgraph.RefID(rng.Intn(d.NumRefs())), refgraph.RefID(rng.Intn(d.NumRefs()))
		if _, ok := d.Edge(a, b); a != b && !ok && !inSet[a] && !inSet[b] {
			ms = append(ms, live.Mutation{Op: live.OpAddEdge, A: a, B: b, P: 0})
		}
	}
	return ms
}

// answerChanging are six mutations that move the answers: new edges, and
// every third a new linkage of two neighbouring references.
func answerChanging(d *refgraph.PGD, seed int64) []live.Mutation {
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
	return ms
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
