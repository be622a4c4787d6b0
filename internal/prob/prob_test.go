package prob

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestAlphabetBasics(t *testing.T) {
	a, err := NewAlphabet("a", "r", "i")
	if err != nil {
		t.Fatalf("NewAlphabet: %v", err)
	}
	if a.Len() != 3 {
		t.Fatalf("Len = %d, want 3", a.Len())
	}
	if id := a.ID("r"); id != 1 {
		t.Errorf("ID(r) = %d, want 1", id)
	}
	if id := a.ID("missing"); id != NoLabel {
		t.Errorf("ID(missing) = %d, want NoLabel", id)
	}
	if n := a.Name(2); n != "i" {
		t.Errorf("Name(2) = %q, want i", n)
	}
	names := a.Names()
	if len(names) != 3 || names[0] != "a" {
		t.Errorf("Names = %v", names)
	}
	// Names must be a copy.
	names[0] = "mutated"
	if a.Name(0) != "a" {
		t.Error("Names() aliases internal storage")
	}
}

func TestAlphabetErrors(t *testing.T) {
	if _, err := NewAlphabet("a", "a"); err == nil {
		t.Error("duplicate label accepted")
	}
	if _, err := NewAlphabet(""); err == nil {
		t.Error("empty label accepted")
	}
}

func TestDistBasics(t *testing.T) {
	d, err := NewDist(LabelProb{0, 0.25}, LabelProb{2, 0.75})
	if err != nil {
		t.Fatalf("NewDist: %v", err)
	}
	if p := d.P(0); math.Abs(p-0.25) > Eps {
		t.Errorf("P(0) = %v", p)
	}
	if p := d.P(1); p != 0 {
		t.Errorf("P(1) = %v, want 0", p)
	}
	if p := d.P(2); math.Abs(p-0.75) > Eps {
		t.Errorf("P(2) = %v", p)
	}
	sup := d.Support()
	if len(sup) != 2 || sup[0] != 0 || sup[1] != 2 {
		t.Errorf("Support = %v", sup)
	}
	if m := d.MaxP(); math.Abs(m-0.75) > Eps {
		t.Errorf("MaxP = %v", m)
	}
}

func TestDistDropsZeroEntries(t *testing.T) {
	d := MustDist(LabelProb{0, 1}, LabelProb{1, 0})
	if len(d.Support()) != 1 {
		t.Errorf("zero entry kept: %v", d.Support())
	}
}

func TestDistErrors(t *testing.T) {
	if _, err := NewDist(LabelProb{0, 0.5}); err == nil {
		t.Error("non-normalized distribution accepted")
	}
	if _, err := NewDist(LabelProb{0, 0.5}, LabelProb{0, 0.5}); err == nil {
		t.Error("duplicate label accepted")
	}
	if _, err := NewDist(LabelProb{0, -0.1}, LabelProb{1, 1.1}); err == nil {
		t.Error("out-of-range probability accepted")
	}
}

func TestPoint(t *testing.T) {
	d := Point(3)
	if p := d.P(3); p != 1 {
		t.Errorf("P(3) = %v, want 1", p)
	}
	if d.IsZero() {
		t.Error("Point dist reported zero")
	}
	if !(Dist{}).IsZero() {
		t.Error("zero dist not reported zero")
	}
}

// TestDistPLinearScan holds the linear P to the binary search it replaced,
// kept here as the reference, for labels present, absent between entries,
// below the first entry and above the last, and on the empty Dist.
func TestDistPLinearScan(t *testing.T) {
	bySearch := func(d Dist, label LabelID) float64 {
		i := sort.Search(len(d.entries), func(i int) bool { return d.entries[i].Label >= label })
		if i < len(d.entries) && d.entries[i].Label == label {
			return d.entries[i].P
		}
		return 0
	}
	for _, tc := range []struct {
		name   string
		d      Dist
		labels []LabelID
	}{
		{"empty", Dist{}, []LabelID{0, 1, 7}},
		{"point", Point(3), []LabelID{3, 0, 2, 4, 9}},
		{"sparse", MustDist(LabelProb{2, 0.25}, LabelProb{5, 0.5}, LabelProb{9, 0.25}),
			[]LabelID{2, 5, 9 /* present */, 3, 4, 6, 8 /* between */, 0, 1 /* below */, 10, 1 << 20 /* above */}},
		{"dense", MustDist(LabelProb{0, 0.125}, LabelProb{1, 0.125}, LabelProb{2, 0.25}, LabelProb{3, 0.5}),
			[]LabelID{0, 1, 2, 3, 4}},
	} {
		for _, l := range tc.labels {
			if got, want := tc.d.P(l), bySearch(tc.d, l); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: P(%d) = %v, binary search %v", tc.name, l, got, want)
			}
		}
	}
}

func TestDistEqual(t *testing.T) {
	a := MustDist(LabelProb{0, 0.5}, LabelProb{1, 0.5})
	b := MustDist(LabelProb{1, 0.5}, LabelProb{0, 0.5})
	if !a.Equal(b) {
		t.Error("order-insensitive equality failed")
	}
	c := MustDist(LabelProb{0, 0.4}, LabelProb{1, 0.6})
	if a.Equal(c) {
		t.Error("unequal dists reported equal")
	}
}

func TestDistStrings(t *testing.T) {
	a := MustAlphabet("x", "y")
	d := MustDist(LabelProb{0, 0.25}, LabelProb{1, 0.75})
	if s := d.String(); s == "" {
		t.Error("empty String()")
	}
	if s := d.Format(a); s != "{x:0.25, y:0.75}" {
		t.Errorf("Format = %q", s)
	}
}

func TestAverageLabels(t *testing.T) {
	// The motivating example: r(0.5), i(0.5) = average of r(1) and i(1).
	r, i := LabelID(0), LabelID(1)
	got := AverageLabels([]Dist{Point(r), Point(i)})
	want := MustDist(LabelProb{r, 0.5}, LabelProb{i, 0.5})
	if !got.Equal(want) {
		t.Errorf("AverageLabels = %v, want %v", got, want)
	}
}

func TestAverageLabelsSingleAndEmpty(t *testing.T) {
	d := Point(0)
	if got := AverageLabels([]Dist{d}); !got.Equal(d) {
		t.Errorf("single input changed: %v", got)
	}
	if got := AverageLabels(nil); !got.IsZero() {
		t.Errorf("empty input not zero: %v", got)
	}
}

func TestAverageEdges(t *testing.T) {
	// The motivating example: merged edge = avg(1, 0.5) = 0.75.
	if got := AverageEdges([]float64{1, 0.5}); math.Abs(got-0.75) > Eps {
		t.Errorf("AverageEdges = %v, want 0.75", got)
	}
	if got := AverageEdges(nil); got != 0 {
		t.Errorf("AverageEdges(nil) = %v", got)
	}
}

func TestDisjunctEdges(t *testing.T) {
	got := DisjunctEdges([]float64{0.5, 0.5})
	if math.Abs(got-0.75) > Eps {
		t.Errorf("DisjunctEdges = %v, want 0.75", got)
	}
	if got := DisjunctEdges(nil); got != 0 {
		t.Errorf("DisjunctEdges(nil) = %v", got)
	}
	if got := DisjunctEdges([]float64{1, 0.2}); math.Abs(got-1) > Eps {
		t.Errorf("DisjunctEdges with certain edge = %v, want 1", got)
	}
}

func TestMaxEdges(t *testing.T) {
	if got := MaxEdges([]float64{0.2, 0.9, 0.5}); got != 0.9 {
		t.Errorf("MaxEdges = %v", got)
	}
}

func TestNamedEdgeMerge(t *testing.T) {
	for _, name := range []string{"average", "avg", "", "disjunct", "noisy-or", "max"} {
		if _, err := NamedEdgeMerge(name); err != nil {
			t.Errorf("NamedEdgeMerge(%q): %v", name, err)
		}
	}
	if _, err := NamedEdgeMerge("bogus"); err == nil {
		t.Error("bogus merge name accepted")
	}
}

func TestDefaultMerge(t *testing.T) {
	m := DefaultMerge()
	if m.Labels == nil || m.Edges == nil {
		t.Fatal("DefaultMerge returned nil functions")
	}
}

// Property: AverageLabels of valid distributions is a valid distribution
// (sums to 1, entries in [0,1]).
func TestAverageLabelsNormalizedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := int(n%5) + 1
		dists := make([]Dist, k)
		for i := range dists {
			dists[i] = ZipfDist(r, 6)
		}
		m := AverageLabels(dists)
		sum := 0.0
		for _, e := range m.Entries() {
			if e.P < 0 || e.P > 1+Eps {
				return false
			}
			sum += e.P
		}
		return math.Abs(sum-1) < 1e-6
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: DisjunctEdges is monotone in each argument and bounded by [0,1].
func TestDisjunctEdgesProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ps := make([]float64, r.Intn(6)+1)
		for i := range ps {
			ps[i] = r.Float64()
		}
		d := DisjunctEdges(ps)
		if d < 0 || d > 1 {
			return false
		}
		// Raising any probability must not lower the disjunction.
		i := r.Intn(len(ps))
		old := ps[i]
		ps[i] = old + (1-old)*r.Float64()
		return DisjunctEdges(ps) >= d-Eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: ZipfDist always yields a normalized distribution over the
// requested alphabet size.
func TestZipfDistProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := int(n%10) + 1
		d := ZipfDist(r, k)
		sum := 0.0
		for _, e := range d.Entries() {
			if e.Label < 0 || int(e.Label) >= k {
				return false
			}
			sum += e.P
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestZipfDistEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if d := ZipfDist(rng, 0); !d.IsZero() {
		t.Errorf("ZipfDist(0) = %v", d)
	}
	d := ZipfDist(rng, 1)
	if p := d.P(0); math.Abs(p-1) > Eps {
		t.Errorf("ZipfDist(1) P(0) = %v", p)
	}
}

func TestZipfProbRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		p := ZipfProb(rng, 10)
		if p <= 0 || p > 1 {
			t.Fatalf("ZipfProb out of range: %v", p)
		}
	}
}

func TestZipfDistSkew(t *testing.T) {
	// With the Zipf weighting, earlier ranks get more mass on average; after
	// random permutation the *distribution of max probabilities* should be
	// clearly skewed: the mean max probability over many draws exceeds the
	// uniform value 1/k.
	rng := rand.New(rand.NewSource(11))
	const k = 8
	sum := 0.0
	const trials = 500
	for i := 0; i < trials; i++ {
		sum += ZipfDist(rng, k).MaxP()
	}
	if mean := sum / trials; mean < 1.5/k {
		t.Errorf("mean max probability %v suggests no skew", mean)
	}
}
