package entity_test

import (
	"math"
	"testing"

	"repro/internal/entity"
	"repro/internal/fixtures"
	"repro/internal/prob"
	"repro/internal/refgraph"
)

const eps = 1e-9

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

func buildMotivating(t *testing.T) *entity.Graph {
	t.Helper()
	g, err := fixtures.MotivatingGraph()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestMotivatingExampleStructure(t *testing.T) {
	g := buildMotivating(t)
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
	alpha := g.Alphabet()
	r, i, a := alpha.ID("r"), alpha.ID("i"), alpha.ID("a")

	// Merged entity label distribution r(0.5), i(0.5) — Section 2.
	if p := g.PrLabel(fixtures.S34, r); !approx(p, 0.5) {
		t.Errorf("Pr(s34.l = r) = %v, want 0.5", p)
	}
	if p := g.PrLabel(fixtures.S34, i); !approx(p, 0.5) {
		t.Errorf("Pr(s34.l = i) = %v, want 0.5", p)
	}
	if p := g.PrLabel(fixtures.S2, a); !approx(p, 1) {
		t.Errorf("Pr(s2.l = a) = %v, want 1", p)
	}

	// Merged edge s34–s2 = average(1, 0.5) = 0.75 — Section 2.
	ep, ok := g.EdgeBetween(fixtures.S34, fixtures.S2)
	if !ok {
		t.Fatal("edge s34–s2 missing")
	}
	if p := g.PrEdge(ep, r, a); !approx(p, 0.75) {
		t.Errorf("Pr(s34–s2) = %v, want 0.75", p)
	}

	// s3–s34 share reference r3: never an edge, never coexist.
	if _, ok := g.EdgeBetween(fixtures.S3, fixtures.S34); ok {
		t.Error("edge between entities sharing a reference")
	}
	if !g.RefsOverlap(fixtures.S3, fixtures.S34) {
		t.Error("RefsOverlap(s3, s34) = false")
	}
	if g.RefsOverlap(fixtures.S1, fixtures.S2) {
		t.Error("RefsOverlap(s1, s2) = true")
	}
}

func TestMotivatingExampleExistence(t *testing.T) {
	g := buildMotivating(t)
	// Pr(merged) = 0.8, Pr(unmerged) = 0.2 (Figure 1(b)/(c)).
	if p := g.Exist(fixtures.S34); !approx(p, 0.8) {
		t.Errorf("Pr(s34 exists) = %v, want 0.8", p)
	}
	if p := g.Exist(fixtures.S3); !approx(p, 0.2) {
		t.Errorf("Pr(s3 exists) = %v, want 0.2", p)
	}
	if p := g.Exist(fixtures.S4); !approx(p, 0.2) {
		t.Errorf("Pr(s4 exists) = %v, want 0.2", p)
	}
	if p := g.Exist(fixtures.S1); !approx(p, 1) {
		t.Errorf("Pr(s1 exists) = %v, want 1", p)
	}

	// Joint marginals: Prn is NOT a per-node product within a component.
	if p := g.Prn([]entity.ID{fixtures.S3, fixtures.S4}); !approx(p, 0.2) {
		t.Errorf("Prn(s3, s4) = %v, want 0.2 (component-joint, not 0.04)", p)
	}
	if p := g.Prn([]entity.ID{fixtures.S3, fixtures.S34}); p != 0 {
		t.Errorf("Prn(s3, s34) = %v, want 0 (share r3)", p)
	}
	if p := g.Prn([]entity.ID{fixtures.S1, fixtures.S34}); !approx(p, 0.8) {
		t.Errorf("Prn(s1, s34) = %v, want 0.8", p)
	}
}

func TestMotivatingExampleMatchProbabilities(t *testing.T) {
	g := buildMotivating(t)
	alpha := g.Alphabet()
	r, a, i := alpha.ID("r"), alpha.ID("a"), alpha.ID("i")
	pathEdges := [][2]int{{0, 1}, {1, 2}}

	for _, m := range fixtures.MotivatingMatches() {
		asn := entity.Assignment{
			Nodes:  []entity.ID{m.Nodes[0], m.Nodes[1], m.Nodes[2]},
			Labels: []prob.LabelID{r, a, i},
			Edges:  pathEdges,
		}
		if got := g.PrMatch(asn); !approx(got, m.Pr) {
			t.Errorf("Pr(%v) = %v, want %v", m.Nodes, got, m.Pr)
		}
	}
}

func TestPrleMissingEdge(t *testing.T) {
	g := buildMotivating(t)
	alpha := g.Alphabet()
	r, i := alpha.ID("r"), alpha.ID("i")
	// s1–s3 has no GU edge.
	asn := entity.Assignment{
		Nodes:  []entity.ID{fixtures.S1, fixtures.S3},
		Labels: []prob.LabelID{i, r},
		Edges:  [][2]int{{0, 1}},
	}
	if p := g.Prle(asn); p != 0 {
		t.Errorf("Prle with missing edge = %v, want 0", p)
	}
}

func TestComponents(t *testing.T) {
	g := buildMotivating(t)
	if g.NumComponents() != 3 {
		t.Fatalf("NumComponents = %d, want 3 ({s1}, {s2}, {s3,s4,s34})", g.NumComponents())
	}
	c := g.ComponentOf(fixtures.S3)
	if len(c.Members) != 3 {
		t.Fatalf("identity component members = %v", c.Members)
	}
	if len(c.Configs) != 2 {
		t.Fatalf("legal configs = %d, want 2", len(c.Configs))
	}
	sum := 0.0
	for _, cfg := range c.Configs {
		sum += cfg.P
	}
	if !approx(sum, 1) {
		t.Errorf("config probabilities sum to %v", sum)
	}
	if p := c.MarginalAll(0); p != 1 {
		t.Errorf("MarginalAll(0) = %v, want 1", p)
	}
}

func TestSemanticsFactor(t *testing.T) {
	// Under the literal Definition 2 factors with singleton priors 1, the
	// {r3,r4} component weighs unmerged = 1·1 and merged = 0.8·0.8, giving
	// Pr(unmerged) = 1/1.64, Pr(merged) = 0.64/1.64.
	d := fixtures.MotivatingPGD()
	g, err := entity.Build(d, entity.BuildOptions{Semantics: entity.SemanticsFactor})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	wantMerged := 0.64 / 1.64
	if p := g.Exist(fixtures.S34); math.Abs(p-wantMerged) > eps {
		t.Errorf("factor semantics Pr(s34) = %v, want %v", p, wantMerged)
	}
	if p := g.Exist(fixtures.S3); math.Abs(p-1/1.64) > eps {
		t.Errorf("factor semantics Pr(s3) = %v, want %v", p, 1/1.64)
	}
}

func TestSemanticsFactorSingletonPrior(t *testing.T) {
	d := fixtures.MotivatingPGD()
	// Priors 0.4 on both singletons: unmerged = 0.16, merged = 0.64,
	// normalized: 0.2 / 0.8 — the factor semantics can match the example
	// only with tuned priors.
	if err := d.SetSingletonPrior(2, 0.4); err != nil {
		t.Fatal(err)
	}
	if err := d.SetSingletonPrior(3, 0.4); err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{Semantics: entity.SemanticsFactor})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if p := g.Exist(fixtures.S34); math.Abs(p-0.8) > eps {
		t.Errorf("Pr(s34) = %v, want 0.8", p)
	}
}

func TestOverlappingSets(t *testing.T) {
	// Sets {r0,r1} (p=0.6) and {r1,r2} (p=0.5) share r1: legal configs are
	// all-singletons (0.4·0.5), merge01 (0.6·0.5), merge12 (0.4·0.5);
	// both-merged is illegal. Z = 0.7.
	alpha := prob.MustAlphabet("x")
	d := refgraph.New(alpha)
	for k := 0; k < 3; k++ {
		d.AddReference(prob.Point(0))
	}
	if _, err := d.AddReferenceSet([]refgraph.RefID{0, 1}, 0.6); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddReferenceSet([]refgraph.RefID{1, 2}, 0.5); err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Entities: 0,1,2 singletons; 3 = {r0,r1}; 4 = {r1,r2}.
	if g.NumComponents() != 1 {
		t.Fatalf("NumComponents = %d, want 1", g.NumComponents())
	}
	z := 0.7
	if p := g.Exist(3); math.Abs(p-0.3/z) > eps {
		t.Errorf("Pr(e3) = %v, want %v", p, 0.3/z)
	}
	if p := g.Exist(4); math.Abs(p-0.2/z) > eps {
		t.Errorf("Pr(e4) = %v, want %v", p, 0.2/z)
	}
	if p := g.Exist(1); math.Abs(p-0.2/z) > eps {
		t.Errorf("Pr(e1 singleton) = %v, want %v", p, 0.2/z)
	}
	if p := g.Prn([]entity.ID{3, 4}); p != 0 {
		t.Errorf("Prn(e3,e4) = %v, want 0 (share r1)", p)
	}
}

func TestMergedEdgeWithCPT(t *testing.T) {
	// Two references merged; edges to a third reference where one carries a
	// CPT. The merged edge must be conditional, averaging the CPT cell with
	// the unconditional base.
	alpha := prob.MustAlphabet("x", "y")
	d := refgraph.New(alpha)
	r0 := d.AddReference(prob.Point(0))
	r1 := d.AddReference(prob.Point(0))
	r2 := d.AddReference(prob.Point(1))
	cpt := []float64{
		0.8, 0.4,
		0.4, 0.2,
	}
	if err := d.AddEdge(r0, r2, refgraph.EdgeDist{P: 0.8, CPT: cpt}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(r1, r2, refgraph.EdgeDist{P: 0.6}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddReferenceSet([]refgraph.RefID{r0, r1}, 0.5); err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	merged := entity.ID(3)
	ep, ok := g.EdgeBetween(merged, entity.ID(r2))
	if !ok {
		t.Fatal("merged edge missing")
	}
	if !ep.Conditional() {
		t.Fatal("merged edge lost its CPT")
	}
	// Cell (x,y): average(cpt[0][1]=0.4, base 0.6) = 0.5.
	if p := g.PrEdge(ep, 0, 1); !approx(p, 0.5) {
		t.Errorf("merged CPT cell (x,y) = %v, want 0.5", p)
	}
	// Symmetry.
	if p := g.PrEdge(ep, 1, 0); !approx(p, 0.5) {
		t.Errorf("merged CPT cell (y,x) = %v, want 0.5", p)
	}
	// The largest cell: (x,x) = avg(0.8, 0.6).
	if p := g.PrEdge(ep, 0, 0); !approx(p, 0.7) {
		t.Errorf("merged CPT cell (x,x) = %v, want 0.7", p)
	}
}

func TestZeroProbEdgeExcluded(t *testing.T) {
	alpha := prob.MustAlphabet("x")
	d := refgraph.New(alpha)
	r0 := d.AddReference(prob.Point(0))
	r1 := d.AddReference(prob.Point(0))
	if err := d.AddEdge(r0, r1, refgraph.EdgeDist{P: 0}); err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Errorf("zero-probability edge present in GU")
	}
}

func TestGraphAccessors(t *testing.T) {
	g := buildMotivating(t)
	if g.NumEdges() != 4 {
		// s1–s2 (0.9), s2–s3 (1), s2–s4 (0.5), s2–s34 (0.75)
		t.Errorf("NumEdges = %d, want 4", g.NumEdges())
	}
	if d := g.Degree(fixtures.S2); d != 4 {
		t.Errorf("Degree(s2) = %d, want 4", d)
	}
	labels := g.Labels(fixtures.S34)
	if len(labels) != 2 {
		t.Errorf("Labels(s34) = %v", labels)
	}
	if !g.HasLabel(fixtures.S34, g.Alphabet().ID("r")) {
		t.Error("HasLabel(s34, r) = false")
	}
	if g.HasLabel(fixtures.S2, g.Alphabet().ID("r")) {
		t.Error("HasLabel(s2, r) = true")
	}
	if len(g.Refs(fixtures.S34)) != 2 {
		t.Errorf("Refs(s34) = %v", g.Refs(fixtures.S34))
	}
	if g.Semantics() != entity.SemanticsExample {
		t.Errorf("Semantics = %v", g.Semantics())
	}
}

func TestPrnEmptyAndSingle(t *testing.T) {
	g := buildMotivating(t)
	if p := g.Prn(nil); p != 1 {
		t.Errorf("Prn(nil) = %v, want 1", p)
	}
	if p := g.Prn([]entity.ID{fixtures.S34}); !approx(p, 0.8) {
		t.Errorf("Prn([s34]) = %v, want 0.8", p)
	}
	// Duplicates are harmless.
	if p := g.Prn([]entity.ID{fixtures.S34, fixtures.S34}); !approx(p, 0.8) {
		t.Errorf("Prn([s34,s34]) = %v, want 0.8", p)
	}
}

func TestBuildValidates(t *testing.T) {
	alpha := prob.MustAlphabet("x")
	d := refgraph.New(alpha)
	d.AddReference(prob.Dist{}) // missing label distribution
	if _, err := entity.Build(d, entity.BuildOptions{}); err == nil {
		t.Error("invalid PGD accepted")
	}
}
