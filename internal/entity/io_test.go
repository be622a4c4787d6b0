package entity_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/entity"
	"repro/internal/fixtures"
	"repro/internal/prob"
)

func TestSaveLoadMotivating(t *testing.T) {
	g := buildMotivating(t)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := entity.Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() || got.NumComponents() != g.NumComponents() {
		t.Fatalf("counts differ: %d/%d/%d vs %d/%d/%d",
			got.NumNodes(), got.NumEdges(), got.NumComponents(),
			g.NumNodes(), g.NumEdges(), g.NumComponents())
	}
	// Probabilities survive exactly.
	alpha := g.Alphabet()
	r, a, i := alpha.ID("r"), alpha.ID("a"), alpha.ID("i")
	asn := entity.Assignment{
		Nodes:  []entity.ID{fixtures.S34, fixtures.S2, fixtures.S1},
		Labels: []prob.LabelID{r, a, i},
		Edges:  [][2]int{{0, 1}, {1, 2}},
	}
	if p := got.PrMatch(asn); math.Abs(p-0.2025) > 1e-12 {
		t.Errorf("PrMatch after reload = %v, want 0.2025", p)
	}
	if p := got.Exist(fixtures.S34); math.Abs(p-0.8) > 1e-12 {
		t.Errorf("Exist(s34) after reload = %v", p)
	}
	if got.Semantics() != g.Semantics() {
		t.Error("semantics lost")
	}
	if got.Alphabet().Name(2) != "i" {
		t.Errorf("alphabet lost: %v", got.Alphabet().Names())
	}
	// Adjacency intact (sorted, with edge probabilities).
	ep, ok := got.EdgeBetween(fixtures.S34, fixtures.S2)
	if !ok || math.Abs(got.PrEdge(ep, r, a)-0.75) > 1e-12 {
		t.Errorf("merged edge after reload: %v %v", ep, ok)
	}
}

func TestLoadCorrupt(t *testing.T) {
	g := buildMotivating(t)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := entity.Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage accepted")
	}
	for _, n := range []int{0, 4, 10, len(raw) / 2, len(raw) - 1} {
		if _, err := entity.Load(bytes.NewReader(raw[:n])); err == nil {
			t.Errorf("truncated snapshot (%d bytes) accepted", n)
		}
	}
}

func saveBytes(t testing.TB, g *entity.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// snapshotLayout walks a valid snapshot and records where its fields start.
type snapshotLayout struct {
	labels, nodes, comps, edges int // the four counts
	node                        []nodeLayout
	comp                        []compLayout
	edge                        []int // a, then b at +4, base at +8, CPT flag at +16
}

type nodeLayout struct{ nRefs, ref, entry, comp, pos, exist int } // entry: first (label u32, p f64)
type compLayout struct{ nMembers, member, config int }            // config: first (mask u64, p f64)

func layoutOf(raw []byte) snapshotLayout {
	u32 := func(at int) int { return int(binary.LittleEndian.Uint32(raw[at:])) }
	at := 4 + u32(0) + 2 // magic, version, semantics
	lay := snapshotLayout{labels: at}
	nl := u32(at)
	at += 4
	for i := 0; i < nl; i++ {
		at += 4 + u32(at)
	}
	lay.nodes = at
	lay.node = make([]nodeLayout, u32(at))
	at += 4
	for v := range lay.node {
		n := nodeLayout{nRefs: at, ref: at + 4}
		at += 4 + 4*u32(at)
		n.entry = at + 4
		at += 4 + 12*u32(at)
		n.comp, n.pos, n.exist = at, at+4, at+5
		at += 13
		lay.node[v] = n
	}
	lay.comps = at
	lay.comp = make([]compLayout, u32(at))
	at += 4
	for c := range lay.comp {
		l := compLayout{nMembers: at, member: at + 4}
		at += 4 + 4*u32(at)
		l.config = at + 4
		at += 4 + 16*u32(at)
		lay.comp[c] = l
	}
	lay.edges = at
	lay.edge = make([]int, u32(at))
	at += 4
	for e := range lay.edge {
		lay.edge[e] = at
		at += 17
		if raw[at-1] == 1 {
			at += 8 * nl * nl
		}
	}
	return lay
}

// TestLoadRejects corrupts one field of a valid snapshot at a time: Load
// must answer each with ErrCorrupt, having indexed nothing with the bad
// value.
func TestLoadRejects(t *testing.T) {
	// The motivating example: three labels; s1, s2, s3, s4 over one reference
	// each and s34 over two; s3, s4 and s34 in one three-member component;
	// four unconditional edges.
	raw := saveBytes(t, buildMotivating(t))
	lay := layoutOf(raw)
	if len(lay.node) != 5 || len(lay.comp) != 3 || len(lay.edge) != 4 {
		t.Fatalf("layout walk found %d nodes, %d components, %d edges", len(lay.node), len(lay.comp), len(lay.edge))
	}
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	f64 := func(v float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }
	n0, s3, s34 := lay.node[0], lay.node[fixtures.S3], lay.node[fixtures.S34]
	c0, c2, e0 := lay.comp[0], lay.comp[2], lay.edge[0]

	type patch struct {
		at int
		to []byte
	}
	rejected := func(name string, patches ...patch) {
		t.Helper()
		bad := bytes.Clone(raw)
		for _, p := range patches {
			copy(bad[p.at:], p.to)
		}
		if _, err := entity.Load(bytes.NewReader(bad)); !errors.Is(err, entity.ErrCorrupt) {
			t.Errorf("%s: Load returned %v, want ErrCorrupt", name, err)
		}
	}
	for name, p := range map[string]patch{
		"reference id beyond the entity count": {n0.ref, u32(5)},
		"references out of order":              {s34.ref + 4, u32(2)},
		"entity without references":            {n0.nRefs, u32(0)},
		"label id outside the alphabet":        {n0.entry, u32(3)},
		"label repeated":                       {n0.entry + 12, raw[n0.entry : n0.entry+4]},
		"label probability above one":          {n0.entry + 4, f64(1.5)},
		"label probability NaN":                {n0.entry + 4, f64(math.NaN())},
		"label distribution short of one":      {n0.entry + 4, f64(0.125)},
		"component index beyond the table":     {n0.comp, u32(7)},
		"component position beyond its size":   {n0.pos, []byte{1}},
		"existence probability negative":       {n0.exist, f64(-0.25)},
		"existence disagreeing with configs":   {s3.exist, f64(0.5)},
		"two nodes claiming one position":      {s34.pos, []byte{0}},
		"member id beyond the entity count":    {c0.member, u32(9)},
		"member of another component":          {c0.member, u32(1)},
		"component without members":            {c0.nMembers, u32(0)},
		"configuration bit beyond the members": {c0.config, []byte{3}},
		"configurations out of order":          {c2.config + 16, make([]byte, 8)},
		"configuration probability NaN":        {c0.config + 8, f64(math.NaN())},
		"configurations short of one":          {c2.config + 8, f64(0.1)},
		"neighbour id beyond the entity count": {e0 + 4, u32(5)},
		"self loop":                            {e0 + 4, raw[e0 : e0+4]},
		"adjacency out of order":               {lay.edge[1] + 4, raw[e0+4 : e0+8]},
		"edge probability above one":           {e0 + 8, f64(1.0000001)},
		"unknown CPT flag":                     {e0 + 16, []byte{2}},
		"more components than entities":        {lay.comps, u32(6)},
		"more labels than the format allows":   {lay.labels, u32(1 << 20)},
	} {
		rejected(name, p)
	}
	// Query stages decide reference overlap by a zero Prn alone. s34 = {r2, r3}
	// moved onto {r0, r3} shares r0 with s1, which another component holds;
	// and the configuration {s34} widened to {s3, s34} — with the existence
	// probabilities its marginals then give — lets two holders of r2 coexist.
	rejected("shared reference across components", patch{s34.ref, u32(0)})
	p3, p34 := 0.0+0.19999999999999996+0.8, 0.8
	rejected("shared reference inside a configuration",
		patch{c2.config + 16, []byte{5}}, patch{s3.exist, f64(p3)}, patch{s34.exist, f64(p34)})
	if _, err := entity.Load(bytes.NewReader(raw)); err != nil {
		t.Fatalf("unpatched snapshot: %v", err)
	}
}

// FuzzLoadGraph: Load never panics or over-allocates on arbitrary bytes, and
// whatever it accepts is a graph Save can write back and Load reads again to
// the same bytes.
func FuzzLoadGraph(f *testing.F) {
	motivating, err := fixtures.MotivatingGraph()
	if err != nil {
		f.Fatal(err)
	}
	dense, err := entity.Build(entity.DenseLinkagePGD(f, 40), entity.BuildOptions{})
	if err != nil {
		f.Fatal(err)
	}
	for _, g := range []*entity.Graph{motivating, dense} {
		raw := saveBytes(f, g)
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := entity.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := saveBytes(t, g)
		g2, err := entity.Load(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("reload of an accepted snapshot: %v", err)
		}
		if !bytes.Equal(saveBytes(t, g2), first) {
			t.Fatal("Save∘Load is not idempotent on an accepted snapshot")
		}
		// Touch every column the way a query does.
		for v := entity.ID(0); int(v) < g.NumNodes(); v++ {
			p := g.Exist(v)
			for _, nb := range g.Neighbors(v) {
				p *= g.PrEdge(nb, 0, 0) * g.PrLabel(nb.To, 0)
				p *= g.Prn([]entity.ID{v, nb.To})
			}
			if math.IsNaN(p) || !slices.Contains(g.ComponentOf(v).Members, v) {
				t.Fatalf("entity %d: probability %v, component %v, references %v", v, p, g.ComponentOf(v).Members, g.Refs(v))
			}
			// Prn is the query stages' only reference-overlap test.
			for u := entity.ID(0); u < v; u++ {
				if g.RefsOverlap(u, v) && (g.Comp(u) != g.Comp(v) || g.Prn([]entity.ID{u, v}) != 0) {
					t.Fatalf("entities %d and %d share a reference: components %d and %d, Prn %v", u, v, g.Comp(u), g.Comp(v), g.Prn([]entity.ID{u, v}))
				}
			}
		}
	})
}
