package gen

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/entity"
	"repro/internal/query"
	"repro/internal/refgraph"
)

func TestSyntheticBasics(t *testing.T) {
	d, err := Synthetic(SynthOptions{Refs: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRefs() != 500 {
		t.Fatalf("refs = %d", d.NumRefs())
	}
	// Roughly EdgeFactor×refs edges (preferential attachment with dedup).
	if d.NumEdges() < 1500 || d.NumEdges() > 2600 {
		t.Errorf("edges = %d, want ≈ 2500", d.NumEdges())
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Must be buildable into a PEG (no contradictory reference sets).
	if _, err := entity.Build(d, entity.BuildOptions{}); err != nil {
		t.Fatalf("Build: %v", err)
	}
}

func TestSyntheticUncertainFraction(t *testing.T) {
	for _, frac := range []float64{0.2, 0.8} {
		d, err := Synthetic(SynthOptions{Refs: 1000, UncertainFrac: frac, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		uncertain := 0
		for i := 0; i < d.NumRefs(); i++ {
			if len(d.RefLabel(refgraph.RefID(i)).Support()) > 1 {
				uncertain++
			}
		}
		got := float64(uncertain) / float64(d.NumRefs())
		// ZipfDist can collapse to a single label, so the observed fraction
		// sits at or slightly below the target.
		if got > frac+0.05 || got < frac-0.15 {
			t.Errorf("frac=%v: uncertain ref fraction = %v", frac, got)
		}
	}
}

func TestSyntheticErrors(t *testing.T) {
	if _, err := Synthetic(SynthOptions{Refs: 1}); err == nil {
		t.Error("1-ref graph accepted")
	}
	if _, err := Synthetic(SynthOptions{Refs: 100, UncertainFrac: 1.5}); err == nil {
		t.Error("bad uncertain fraction accepted")
	}
	// Fewer references than the default GroupSize of 4: the group draw
	// could never find four distinct references.
	if _, err := Synthetic(SynthOptions{Refs: 3}); err == nil {
		t.Error("3-ref graph with GroupSize 4 accepted")
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a, err := Synthetic(SynthOptions{Refs: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthetic(SynthOptions{Refs: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() || a.NumSets() != b.NumSets() {
		t.Error("same seed produced different graphs")
	}
	c, err := Synthetic(SynthOptions{Refs: 200, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() == c.NumEdges() && a.NumSets() == c.NumSets() {
		t.Log("different seeds produced identical counts (possible but unlikely)")
	}
}

func TestSyntheticDegreeSkew(t *testing.T) {
	// Preferential attachment should produce a heavy-tailed degree
	// distribution: the max degree far exceeds the average.
	d, err := Synthetic(SynthOptions{Refs: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	deg := make(map[int]int)
	d.Edges(func(k refgraph.EdgeKey, e refgraph.EdgeDist) bool {
		deg[int(k.A)]++
		deg[int(k.B)]++
		return true
	})
	maxDeg, sum := 0, 0
	for _, v := range deg {
		sum += v
		if v > maxDeg {
			maxDeg = v
		}
	}
	avg := float64(sum) / float64(len(deg))
	if float64(maxDeg) < 3*avg {
		t.Errorf("max degree %d vs avg %.1f: no preferential attachment skew", maxDeg, avg)
	}
}

func TestRandomQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, spec := range []struct{ n, m int }{{3, 3}, {5, 10}, {15, 60}, {5, 100}, {2, 0}} {
		q, err := RandomQuery(rng, 4, spec.n, spec.m)
		if err != nil {
			t.Fatalf("q(%d,%d): %v", spec.n, spec.m, err)
		}
		if q.NumNodes() != spec.n {
			t.Errorf("q(%d,%d): nodes = %d", spec.n, spec.m, q.NumNodes())
		}
		maxE := spec.n * (spec.n - 1) / 2
		wantM := spec.m
		if wantM > maxE {
			wantM = maxE
		}
		if wantM < spec.n-1 {
			wantM = spec.n - 1
		}
		if q.NumEdges() != wantM {
			t.Errorf("q(%d,%d): edges = %d, want %d", spec.n, spec.m, q.NumEdges(), wantM)
		}
		if !connected(q) {
			t.Errorf("q(%d,%d) disconnected", spec.n, spec.m)
		}
	}
	if _, err := RandomQuery(rng, 4, 0, 0); err == nil {
		t.Error("0-node query accepted")
	}
}

func TestCycleQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q, err := CycleQuery(rng, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumNodes() != 5 || q.NumEdges() != 5 {
		t.Errorf("cycle = %d nodes %d edges", q.NumNodes(), q.NumEdges())
	}
	for n := query.NodeID(0); int(n) < 5; n++ {
		if q.Degree(n) != 2 {
			t.Errorf("node %d degree %d", n, q.Degree(n))
		}
	}
	if _, err := CycleQuery(rng, 3, 2); err == nil {
		t.Error("2-cycle accepted")
	}
}

func TestPatternQueries(t *testing.T) {
	wantSizes := map[Pattern][2]int{
		BF1: {5, 6}, BF2: {6, 7}, GR: {5, 7}, ST: {5, 4}, TR: {7, 6},
	}
	rng := rand.New(rand.NewSource(3))
	for _, p := range Patterns() {
		n, e, err := PatternSize(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := wantSizes[p]; n != want[0] || e != want[1] {
			t.Errorf("%s: size (%d,%d), want %v", p, n, e, want)
		}
		q, err := PatternQueryRandomLabels(p, rng, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		if q.NumNodes() != n || q.NumEdges() != e {
			t.Errorf("%s: query (%d,%d)", p, q.NumNodes(), q.NumEdges())
		}
		if !connected(q) {
			t.Errorf("%s disconnected", p)
		}
		// Uniform labels.
		l0 := q.Label(0)
		for i := 1; i < q.NumNodes(); i++ {
			if q.Label(query.NodeID(i)) != l0 {
				t.Errorf("%s: non-uniform labels with uniform=true", p)
			}
		}
	}
	if _, err := PatternQuery("NOPE", nil); err == nil {
		t.Error("unknown pattern accepted")
	}
	if _, err := PatternQuery(BF1, nil); err == nil {
		t.Error("wrong label count accepted")
	}
}

func TestDBLP(t *testing.T) {
	d, err := DBLP(DBLPOptions{Authors: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Alphabet().Len() != 3 {
		t.Errorf("DBLP alphabet = %v", d.Alphabet().Names())
	}
	// Edges must carry CPTs (correlated model).
	cptSeen := false
	d.Edges(func(k refgraph.EdgeKey, e refgraph.EdgeDist) bool {
		if e.CPT != nil {
			cptSeen = true
			// Same-label cell must exceed the cross-label cell (p vs 0.8p).
			if e.CPT[0] <= e.CPT[1] {
				t.Errorf("CPT not correlated: same=%v cross=%v", e.CPT[0], e.CPT[1])
			}
			return false
		}
		return true
	})
	if !cptSeen {
		t.Error("no CPT edges in DBLP graph")
	}
	if _, err := entity.Build(d, entity.BuildOptions{}); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := DBLP(DBLPOptions{Authors: 3}); err == nil {
		t.Error("tiny DBLP accepted")
	}
}

func TestIMDB(t *testing.T) {
	d, err := IMDB(IMDBOptions{Actors: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Alphabet().Len() != 4 {
		t.Errorf("IMDB alphabet = %v", d.Alphabet().Names())
	}
	// Edges are independent (no CPT).
	d.Edges(func(k refgraph.EdgeKey, e refgraph.EdgeDist) bool {
		if e.CPT != nil {
			t.Error("IMDB edge has a CPT")
			return false
		}
		return true
	})
	if _, err := entity.Build(d, entity.BuildOptions{}); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := IMDB(IMDBOptions{Actors: 3}); err == nil {
		t.Error("tiny IMDB accepted")
	}
}

// connected reports whether q's nodes are all reachable from node 0.
func connected(q *query.Query) bool {
	seen := make([]bool, q.NumNodes())
	stack := []query.NodeID{0}
	seen[0] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range q.Neighbors(v) {
			if !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	return !slices.Contains(seen, false)
}
