package query

import (
	"strings"
	"testing"

	"repro/internal/prob"
)

func alpha3() *prob.Alphabet { return prob.MustAlphabet("a", "b", "c") }

func TestBuildAndAccessors(t *testing.T) {
	q := New()
	a := q.AddNode(0)
	b := q.AddNode(1)
	c := q.AddNode(0)
	if err := q.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := q.AddEdge(b, c); err != nil {
		t.Fatal(err)
	}
	if q.NumNodes() != 3 || q.NumEdges() != 2 {
		t.Fatalf("counts %d/%d", q.NumNodes(), q.NumEdges())
	}
	if !q.HasEdge(b, a) || q.HasEdge(a, c) {
		t.Error("HasEdge wrong")
	}
	if q.Degree(b) != 2 || q.Degree(a) != 1 {
		t.Error("Degree wrong")
	}
	if q.Label(c) != 0 {
		t.Error("Label wrong")
	}
	edges := q.Edges()
	if len(edges) != 2 || edges[0] != [2]NodeID{a, b} {
		t.Errorf("Edges = %v", edges)
	}
	labels := q.Labels([]NodeID{a, b, c})
	if len(labels) != 3 || labels[1] != 1 {
		t.Errorf("Labels = %v", labels)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	q := New()
	a := q.AddNode(0)
	b := q.AddNode(1)
	if err := q.AddEdge(a, a); err == nil {
		t.Error("self loop accepted")
	}
	if err := q.AddEdge(a, 9); err == nil {
		t.Error("unknown node accepted")
	}
	if err := q.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := q.AddEdge(b, a); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestValidate(t *testing.T) {
	a := alpha3()
	q := New()
	if err := q.Validate(a); err == nil {
		t.Error("empty query validated")
	}
	q.AddNode(7)
	if err := q.Validate(a); err == nil {
		t.Error("out-of-alphabet label validated")
	}
}

func TestNeighborLabelCounts(t *testing.T) {
	q := New()
	ctr := q.AddNode(0)
	n1 := q.AddNode(1)
	n2 := q.AddNode(1)
	n3 := q.AddNode(2)
	for _, m := range []NodeID{n1, n2, n3} {
		if err := q.AddEdge(ctr, m); err != nil {
			t.Fatal(err)
		}
	}
	counts := q.NeighborLabelCounts(ctr, 3)
	if counts[1] != 2 || counts[2] != 1 || counts[0] != 0 {
		t.Errorf("counts = %v", counts)
	}
}

// The Figure 4 example: path (1,2,3,4) with chord 1-3, node 5 adjacent to
// nodes 3 and 4, node 6 adjacent to node 4. The paper states: path degree 5,
// density 4/6, Γ(P) = {5,6}, rv(P,5) = {3,4}, and one path cycle via the
// edge between nodes 1 and 3.
func TestPathStatsFigure4(t *testing.T) {
	q := New()
	var n [7]NodeID
	for i := 1; i <= 6; i++ {
		n[i] = q.AddNode(0)
	}
	for _, e := range [][2]int{{1, 2}, {2, 3}, {3, 4}, {1, 3}, {3, 5}, {4, 5}, {4, 6}} {
		if err := q.AddEdge(n[e[0]], n[e[1]]); err != nil {
			t.Fatal(err)
		}
	}
	info, err := q.PathStats([]NodeID{n[1], n[2], n[3], n[4]})
	if err != nil {
		t.Fatal(err)
	}
	if info.Degree != 5 {
		t.Errorf("path degree = %d, want 5", info.Degree)
	}
	if want := 4.0 / 6.0; info.Density != want {
		t.Errorf("density = %v, want %v", info.Density, want)
	}
	// Γ(P) = {5, 6}; rv(P,5) = positions of nodes 3 and 4; rv(P,6) = node 4.
	if len(info.Neighbors) != 2 || info.Neighbors[0] != n[5] || info.Neighbors[1] != n[6] || len(info.Reverse) != 2 {
		t.Fatalf("Γ(P) = %v with %d reverse lists", info.Neighbors, len(info.Reverse))
	}
	if rv := info.Reverse[0]; len(rv) != 2 || rv[0] != 2 || rv[1] != 3 {
		t.Errorf("rv(P,5) = %v, want [2 3]", rv)
	}
	if rv := info.Reverse[1]; len(rv) != 1 || rv[0] != 3 {
		t.Errorf("rv(P,6) = %v, want [3]", rv)
	}
	// One chord: 1-3 → positions (0,2).
	if len(info.Cycles) != 1 || info.Cycles[0] != [2]int{0, 2} {
		t.Errorf("cycles = %v", info.Cycles)
	}
}

func TestPathStatsErrors(t *testing.T) {
	q := New()
	a := q.AddNode(0)
	b := q.AddNode(1)
	c := q.AddNode(2)
	if err := q.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := q.PathStats([]NodeID{a, c}); err == nil {
		t.Error("non-adjacent path accepted")
	}
	if err := q.AddEdge(b, c); err != nil {
		t.Fatal(err)
	}
	if err := q.AddEdge(a, c); err != nil {
		t.Fatal(err)
	}
	if _, err := q.PathStats([]NodeID{a, b, a}); err == nil {
		t.Error("repeating path accepted")
	}
}

func TestReverseNeighborsMultiplePositions(t *testing.T) {
	// m adjacent to both endpoints of a 2-edge path.
	q := New()
	a := q.AddNode(0)
	b := q.AddNode(1)
	c := q.AddNode(2)
	m := q.AddNode(1)
	for _, e := range [][2]NodeID{{a, b}, {b, c}, {m, a}, {m, c}} {
		if err := q.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	info, err := q.PathStats([]NodeID{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Neighbors) != 1 || info.Neighbors[0] != m || len(info.Reverse) != 1 {
		t.Fatalf("Γ(P) = %v with %d reverse lists, want [%d] with 1", info.Neighbors, len(info.Reverse), m)
	}
	if rv := info.Reverse[0]; len(rv) != 2 || rv[0] != 0 || rv[1] != 2 {
		t.Errorf("rv(P,m) = %v, want [0 2]", rv)
	}
}

func TestParse(t *testing.T) {
	a := alpha3()
	src := `
# a triangle
node X a
node Y b
node Z c
edge X Y
edge Y Z
edge Z X
`
	q, err := ParseString(src, a)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.NumNodes() != 3 || q.NumEdges() != 3 {
		t.Fatalf("parsed %d nodes %d edges", q.NumNodes(), q.NumEdges())
	}
	// Round trip through Format.
	q2, err := ParseString(q.Format(a), a)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if q2.NumNodes() != 3 || q2.NumEdges() != 3 {
		t.Error("format/parse round trip lost structure")
	}
}

func TestParseErrors(t *testing.T) {
	a := alpha3()
	cases := []string{
		"node X nope",
		"node X a\nnode X b",
		"edge X Y",
		"node X a\nedge X Y",
		"frobnicate",
		"node X",
		"edge X",
		"",
		"node X a\nnode Y b\nedge X Y\nedge X Y",
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src), a); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

// TestFingerprint: the cache identity is the canonical text's identity in
// both directions — texts differing only in node names, whitespace,
// comments or edge order share a fingerprint, and a changed label or edge
// set changes it, exactly when Format's output changes.
func TestFingerprint(t *testing.T) {
	a := alpha3()
	base := "node A a\nnode B b\nnode C c\nedge A B\nedge B C\n"
	same := []string{
		"node x a\nnode y b\nnode z c\nedge x y\nedge y z\n",
		"# a comment\n\n  node A   a\n\tnode B b\nnode C c\n\nedge A B\n  edge B C  \n",
		"node A a\nnode B b\nnode C c\nedge C B\nedge B A\n",
	}
	differ := []string{
		"node A a\nnode B b\nnode C a\nedge A B\nedge B C\n",           // label
		"node A a\nnode B b\nnode C c\nedge A B\nedge A C\n",           // edge set
		"node A a\nnode B b\nnode C c\nedge A B\nedge B C\nedge A C\n", // one more edge
		"node A a\nnode B b\nnode C c\nedge A B\n",                     // one less edge
		"node A a\nnode B b\nedge A B\n",                               // one less node
	}
	parse := func(src string) *Query {
		t.Helper()
		q, err := ParseString(src, a)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		return q
	}
	want := Fingerprint(parse(base))
	for _, src := range same {
		if Fingerprint(parse(src)) != want {
			t.Errorf("%q: fingerprint differs from %q", src, base)
		}
	}
	for _, src := range differ {
		if Fingerprint(parse(src)) == want {
			t.Errorf("%q: fingerprint equals that of %q", src, base)
		}
	}
	all := append(append([]string{base}, same...), differ...)
	for _, x := range all {
		for _, y := range all {
			qx, qy := parse(x), parse(y)
			if (Fingerprint(qx) == Fingerprint(qy)) != (qx.Format(a) == qy.Format(a)) {
				t.Errorf("fingerprint and Format disagree on %q vs %q", x, y)
			}
		}
	}
}
