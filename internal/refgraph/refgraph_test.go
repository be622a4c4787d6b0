package refgraph

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/prob"
)

func tinyPGD(t *testing.T) *PGD {
	t.Helper()
	alpha := prob.MustAlphabet("a", "b")
	d := New(alpha)
	r0 := d.AddReference(prob.Point(0))
	r1 := d.AddReference(prob.MustDist(prob.LabelProb{Label: 0, P: 0.3}, prob.LabelProb{Label: 1, P: 0.7}))
	r2 := d.AddReference(prob.Point(1))
	if err := d.AddEdge(r0, r1, EdgeDist{P: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(r1, r2, EdgeDist{P: 0.9, CPT: []float64{0.9, 0.5, 0.5, 0.1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddReferenceSet([]RefID{r0, r2}, 0.4); err != nil {
		t.Fatal(err)
	}
	if err := d.SetSingletonPrior(r1, 0.6); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPGDBasics(t *testing.T) {
	d := tinyPGD(t)
	if d.NumRefs() != 3 || d.NumEdges() != 2 || d.NumSets() != 1 {
		t.Fatalf("counts: %d refs, %d edges, %d sets", d.NumRefs(), d.NumEdges(), d.NumSets())
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if _, ok := d.Edge(1, 0); !ok {
		t.Error("edge (1,0) not found via canonical key")
	}
	if _, ok := d.Edge(0, 2); ok {
		t.Error("phantom edge found")
	}
	s := d.Set(0)
	if len(s.Members) != 2 || s.P != 0.4 {
		t.Errorf("set = %+v", s)
	}
	if p := d.SingletonPrior(1); p != 0.6 {
		t.Errorf("SingletonPrior(1) = %v", p)
	}
	if p := d.SingletonPrior(0); p != 1 {
		t.Errorf("SingletonPrior(0) = %v, want default 1", p)
	}
}

func TestPGDErrors(t *testing.T) {
	alpha := prob.MustAlphabet("a")
	d := New(alpha)
	r0 := d.AddReference(prob.Point(0))
	if err := d.AddEdge(r0, r0, EdgeDist{P: 0.5}); err == nil {
		t.Error("self edge accepted")
	}
	if err := d.AddEdge(r0, 99, EdgeDist{P: 0.5}); err == nil {
		t.Error("unknown reference accepted")
	}
	if err := d.AddEdge(r0, r0+1, EdgeDist{P: 1.5}); err == nil {
		t.Error("out-of-range probability accepted")
	}
	if _, err := d.AddReferenceSet([]RefID{r0}, 0.5); err == nil {
		t.Error("singleton reference set accepted")
	}
	if _, err := d.AddReferenceSet([]RefID{r0, r0}, 0.5); err == nil {
		t.Error("duplicate-member set accepted")
	}
	if err := d.SetSingletonPrior(r0, 2); err == nil {
		t.Error("out-of-range prior accepted")
	}
	if err := d.SetSingletonPrior(42, 0.5); err == nil {
		t.Error("unknown reference prior accepted")
	}
}

func TestEdgeDistCPTValidation(t *testing.T) {
	alpha := prob.MustAlphabet("a", "b")
	d := New(alpha)
	r0 := d.AddReference(prob.Point(0))
	r1 := d.AddReference(prob.Point(1))
	// Wrong size.
	if err := d.AddEdge(r0, r1, EdgeDist{P: 0.5, CPT: []float64{0.1}}); err == nil {
		t.Error("wrong-size CPT accepted")
	}
	// Asymmetric.
	if err := d.AddEdge(r0, r1, EdgeDist{P: 0.5, CPT: []float64{0.1, 0.2, 0.3, 0.4}}); err == nil {
		t.Error("asymmetric CPT accepted")
	}
	// Out of range.
	if err := d.AddEdge(r0, r1, EdgeDist{P: 0.5, CPT: []float64{0.1, 2, 2, 0.4}}); err == nil {
		t.Error("out-of-range CPT accepted")
	}
}

func TestEdgeDistProb(t *testing.T) {
	e := EdgeDist{P: 0.5}
	if p := e.Prob(0, 1, 2); p != 0.5 {
		t.Errorf("unconditional Prob = %v", p)
	}
	if m := e.Max(); m != 0.5 {
		t.Errorf("unconditional Max = %v", m)
	}
	c := EdgeDist{P: 0.5, CPT: []float64{0.9, 0.2, 0.2, 0.7}}
	if p := c.Prob(0, 1, 2); p != 0.2 {
		t.Errorf("CPT Prob(0,1) = %v", p)
	}
	if m := c.Max(); m != 0.9 {
		t.Errorf("CPT Max = %v", m)
	}
}

func TestMakeEdgeKey(t *testing.T) {
	if k := MakeEdgeKey(5, 2); k.A != 2 || k.B != 5 {
		t.Errorf("MakeEdgeKey(5,2) = %+v", k)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := tinyPGD(t)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.NumRefs() != d.NumRefs() || got.NumEdges() != d.NumEdges() || got.NumSets() != d.NumSets() {
		t.Fatalf("round-trip counts differ")
	}
	if !got.RefLabel(1).Equal(d.RefLabel(1)) {
		t.Errorf("reference 1 label dist differs: %v vs %v", got.RefLabel(1), d.RefLabel(1))
	}
	e, ok := got.Edge(1, 2)
	if !ok || e.CPT == nil {
		t.Fatalf("CPT edge lost: %+v ok=%v", e, ok)
	}
	if math.Abs(e.CPT[1]-0.5) > 1e-12 {
		t.Errorf("CPT cell differs: %v", e.CPT)
	}
	if p := got.SingletonPrior(1); p != 0.6 {
		t.Errorf("singleton prior lost: %v", p)
	}
	if got.Alphabet().Name(1) != "b" {
		t.Errorf("alphabet lost: %v", got.Alphabet().Names())
	}
}

func TestLoadCorrupt(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("garbage data here"))); err == nil {
		t.Error("garbage accepted")
	}
	// Truncated valid prefix.
	d := tinyPGD(t)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, n := range []int{0, 1, 5, 10, len(raw) / 2, len(raw) - 1} {
		if _, err := Load(bytes.NewReader(raw[:n])); err == nil {
			t.Errorf("truncated snapshot (%d bytes) accepted", n)
		}
	}
}

func TestSaveLoadRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alpha := prob.MustAlphabet("a", "b", "c")
	for trial := 0; trial < 20; trial++ {
		d := New(alpha)
		n := rng.Intn(20) + 2
		for i := 0; i < n; i++ {
			d.AddReference(prob.ZipfDist(rng, 3))
		}
		for i := 0; i < n; i++ {
			a, b := RefID(rng.Intn(n)), RefID(rng.Intn(n))
			if a != b {
				if err := d.AddEdge(a, b, EdgeDist{P: rng.Float64()}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n >= 4 {
			if _, err := d.AddReferenceSet([]RefID{0, 1}, rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if got.NumRefs() != d.NumRefs() || got.NumEdges() != d.NumEdges() {
			t.Fatalf("trial %d: counts differ", trial)
		}
		d.Edges(func(k EdgeKey, e EdgeDist) bool {
			ge, ok := got.Edge(k.A, k.B)
			if !ok || math.Abs(ge.P-e.P) > 1e-12 {
				t.Errorf("trial %d: edge %v differs", trial, k)
				return false
			}
			return true
		})
	}
}

// TestNaNProbabilityRejected feeds NaN to every way a probability enters a
// PGD: the mutators, Validate, and each probability of a saved snapshot. A
// range check written p < 0 || p > 1 lets NaN through.
func TestNaNProbabilityRejected(t *testing.T) {
	nan := math.NaN()
	// Each probability below is a distinct value, so its bytes mark its one
	// place in the snapshot.
	alpha := prob.MustAlphabet("a", "b")
	d := New(alpha)
	r0 := d.AddReference(prob.MustDist(prob.LabelProb{Label: 0, P: 0.3}, prob.LabelProb{Label: 1, P: 0.7}))
	r1 := d.AddReference(prob.Point(1))
	r2 := d.AddReference(prob.Point(0))
	if err := d.AddEdge(r0, r1, EdgeDist{P: 0.25}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(r1, r2, EdgeDist{P: 0.5, CPT: []float64{0.125, 0.875, 0.875, 0.0625}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddReferenceSet([]RefID{r0, r2}, 0.375); err != nil {
		t.Fatal(err)
	}
	if err := d.SetSingletonPrior(r1, 0.625); err != nil {
		t.Fatal(err)
	}

	for name, add := range map[string]func(*PGD) error{
		"AddEdge P":         func(g *PGD) error { return g.AddEdge(r0, r2, EdgeDist{P: nan}) },
		"AddEdge CPT":       func(g *PGD) error { return g.AddEdge(r0, r2, EdgeDist{P: 0.5, CPT: []float64{0.5, nan, nan, 0.5}}) },
		"AddReferenceSet":   func(g *PGD) error { _, err := g.AddReferenceSet([]RefID{r0, r1}, nan); return err },
		"SetSetProb":        func(g *PGD) error { return g.SetSetProb(0, nan) },
		"SetSingletonPrior": func(g *PGD) error { return g.SetSingletonPrior(r0, nan) },
		"NewDist": func(*PGD) error {
			_, err := prob.NewDist(prob.LabelProb{Label: 0, P: 1}, prob.LabelProb{Label: 1, P: nan})
			return err
		},
		"Validate": func(g *PGD) error { g.sets[0].P = nan; return g.Validate() },
	} {
		if err := add(d.Clone()); err == nil {
			t.Errorf("%s accepted NaN", name)
		}
	}

	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.3, 0.25, 0.125, 0.0625, 0.375, 0.625} {
		raw := bytes.Clone(buf.Bytes())
		var want, poison [8]byte
		binary.LittleEndian.PutUint64(want[:], math.Float64bits(p))
		binary.LittleEndian.PutUint64(poison[:], math.Float64bits(nan))
		at := bytes.Index(raw, want[:])
		if at < 0 || bytes.Index(raw[at+1:], want[:]) >= 0 {
			t.Fatalf("probability %v is not in the snapshot exactly once", p)
		}
		copy(raw[at:], poison[:])
		if _, err := Load(bytes.NewReader(raw)); err == nil {
			t.Errorf("snapshot with probability %v replaced by NaN loaded", p)
		}
	}
}
