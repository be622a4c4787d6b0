package decompose

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/prob"
	"repro/internal/query"
)

// fixedEst returns a constant cardinality for every sequence.
type fixedEst float64

func (f fixedEst) Cardinality(X []prob.LabelID, alpha float64) float64 { return float64(f) }

// mapEst returns per-length cardinalities.
type mapEst map[int]float64

func (m mapEst) Cardinality(X []prob.LabelID, alpha float64) float64 { return m[len(X)] }

func triangle(t *testing.T) *query.Query {
	t.Helper()
	q := query.New()
	a := q.AddNode(0)
	b := q.AddNode(1)
	c := q.AddNode(2)
	for _, e := range [][2]query.NodeID{{a, b}, {b, c}, {a, c}} {
		if err := q.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return q
}

func coversAllEdges(t *testing.T, q *query.Query, d *Decomposition) {
	t.Helper()
	covered := make(map[[2]query.NodeID]bool)
	for i := range d.Paths {
		p := &d.Paths[i]
		for j := 0; j+1 < len(p.Nodes); j++ {
			a, b := p.Nodes[j], p.Nodes[j+1]
			if a > b {
				a, b = b, a
			}
			covered[[2]query.NodeID{a, b}] = true
		}
	}
	for _, e := range q.Edges() {
		if !covered[e] {
			t.Errorf("edge %v not covered", e)
		}
	}
}

func TestDecomposeTriangle(t *testing.T) {
	q := triangle(t)
	for _, L := range []int{1, 2, 3} {
		d, err := Decompose(q, fixedEst(10), Options{MaxLen: L, Alpha: 0.5})
		if err != nil {
			t.Fatalf("L=%d: %v", L, err)
		}
		coversAllEdges(t, q, d)
		for i := range d.Paths {
			if got := len(d.Paths[i].Nodes) - 1; got > L {
				t.Errorf("L=%d: path of length %d", L, got)
			}
			if d.Paths[i].ID != i {
				t.Errorf("path ID %d at position %d", d.Paths[i].ID, i)
			}
		}
	}
}

func TestDecomposePrefersLongPathsWhenCheap(t *testing.T) {
	// 5-node path query; length-3 paths much cheaper per edge than single
	// edges → the cover should use fewer, longer paths.
	q := query.New()
	var ns []query.NodeID
	for i := 0; i < 5; i++ {
		ns = append(ns, q.AddNode(prob.LabelID(i%2)))
	}
	for i := 0; i+1 < 5; i++ {
		if err := q.AddEdge(ns[i], ns[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	est := mapEst{2: 1000, 3: 100, 4: 10}
	d, err := Decompose(q, est, Options{MaxLen: 3, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	coversAllEdges(t, q, d)
	if len(d.Paths) > 2 {
		t.Errorf("expected ≤2 covering paths, got %d", len(d.Paths))
	}
}

func TestDecomposeSingleNode(t *testing.T) {
	q := query.New()
	q.AddNode(1)
	d, err := Decompose(q, fixedEst(5), Options{MaxLen: 2, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Paths) != 1 || len(d.Paths[0].Nodes) != 1 {
		t.Fatalf("single-node decomposition = %+v", d.Paths)
	}
}

func TestDecomposeErrors(t *testing.T) {
	q := triangle(t)
	if _, err := Decompose(q, fixedEst(1), Options{MaxLen: 0, Alpha: 0.5}); err == nil {
		t.Error("MaxLen 0 accepted")
	}
	if _, err := Decompose(query.New(), fixedEst(1), Options{MaxLen: 2, Alpha: 0.5}); err == nil {
		t.Error("empty query accepted")
	}
	multi := query.New()
	multi.AddNode(0)
	multi.AddNode(1)
	if _, err := Decompose(multi, fixedEst(1), Options{MaxLen: 2, Alpha: 0.5}); err == nil {
		t.Error("edgeless multi-node query accepted")
	}
}

func TestJoinPredicates(t *testing.T) {
	q := triangle(t)
	d, err := Decompose(q, fixedEst(10), Options{MaxLen: 1, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Paths) != 3 {
		t.Fatalf("L=1 triangle should give 3 single-edge paths, got %d", len(d.Paths))
	}
	// Every pair of edges in a triangle shares a node → 3 join pairs.
	if len(d.Joins) != 3 {
		t.Fatalf("joins = %d, want 3", len(d.Joins))
	}
	for pair, preds := range d.Joins {
		if len(preds) != 1 {
			t.Errorf("pair %v has %d preds, want 1", pair, len(preds))
		}
		// Predicates must reference matching query nodes.
		a, b := pair[0], pair[1]
		for _, pr := range preds {
			if d.Paths[a].Nodes[pr.PosA] != d.Paths[b].Nodes[pr.PosB] {
				t.Errorf("pred mismatch for pair %v", pair)
			}
		}
	}
	// Joined and Preds orientation.
	j0 := d.Joined(0)
	if len(j0) != 2 {
		t.Errorf("Joined(0) = %v", j0)
	}
	p01 := d.Preds(0, 1)
	p10 := d.Preds(1, 0)
	if len(p01) != len(p10) {
		t.Fatal("asymmetric preds")
	}
	for i := range p01 {
		if p01[i].PosA != p10[i].PosB || p01[i].PosB != p10[i].PosA {
			t.Error("Preds orientation broken")
		}
	}
}

func TestCoverAssignments(t *testing.T) {
	q := triangle(t)
	d, err := Decompose(q, fixedEst(10), Options{MaxLen: 2, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Every query node and edge must be covered by exactly one partition.
	for n := query.NodeID(0); int(n) < q.NumNodes(); n++ {
		p, ok := d.CoverNode[n]
		if !ok || p < 0 || p >= len(d.Paths) {
			t.Errorf("node %d cover = %d (%v)", n, p, ok)
		}
	}
	for _, e := range q.Edges() {
		p, ok := d.CoverEdge[e]
		if !ok || p < 0 || p >= len(d.Paths) {
			t.Errorf("edge %v cover = %d (%v)", e, p, ok)
		}
	}
}

func TestRandomModeCovers(t *testing.T) {
	q := triangle(t)
	for seed := int64(0); seed < 10; seed++ {
		d, err := Decompose(q, fixedEst(10), Options{
			MaxLen: 2, Alpha: 0.5, Mode: ModeRandom, Seed: seed,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if seed != 0 && d.Seed != seed {
			t.Fatalf("seed %d recorded as %d", seed, d.Seed)
		}
		coversAllEdges(t, q, d)
	}
}

func TestCostUsesDegreeAndDensity(t *testing.T) {
	// Star query: center with 3 leaves. The 2-edge paths through the center
	// have higher degree than single edges, lowering their cost.
	q := query.New()
	c := q.AddNode(0)
	for i := 0; i < 3; i++ {
		leaf := q.AddNode(1)
		if err := q.AddEdge(c, leaf); err != nil {
			t.Fatal(err)
		}
	}
	est := mapEst{2: 100, 3: 10}
	d, err := Decompose(q, est, Options{MaxLen: 2, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	coversAllEdges(t, q, d)
	// 2-edge paths are 10× more selective here, so the greedy cover should
	// use 2 of them rather than 3 single edges.
	if len(d.Paths) != 2 {
		t.Errorf("star decomposition uses %d paths, want 2", len(d.Paths))
	}
	for i := range d.Paths {
		if len(d.Paths[i].Nodes) != 3 {
			t.Errorf("path %d has %d nodes, want 3", i, len(d.Paths[i].Nodes))
		}
	}
}

// TestPermutationReplay: the permutation a random cover walks is math/rand's
// Perm for its seed — replayed from the stored swap sequence for the default
// seed, drawn afresh for any other — at every length up to 512, including
// lengths that extend the stored sequence.
func TestPermutationReplay(t *testing.T) {
	for _, seed := range []int64{1, 2, -5, 1 << 40} {
		for n := 0; n <= 512; n++ {
			want := rand.New(rand.NewSource(seed)).Perm(n)
			got := permutation(seed, n)
			if len(got) != n {
				t.Fatalf("seed %d n %d: length %d", seed, n, len(got))
			}
			for i := range want {
				if int(got[i]) != want[i] {
					t.Fatalf("seed %d n %d: permutation differs at %d: %v, want %v", seed, n, i, got, want)
				}
			}
		}
	}
}

// TestPermutationReplayConcurrent reads and extends the stored sequence from
// eight goroutines at once, starting empty; under the race detector this
// checks its publication, and every reader must see math/rand's Perm.
func TestPermutationReplayConcurrent(t *testing.T) {
	defaultSwaps.mu.Lock()
	defaultSwaps.rng, defaultSwaps.seq = nil, nil
	defaultSwaps.mu.Unlock()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := g; n <= 600; n += 8 {
				got := permutation(defaultSeed, n)
				want := rand.New(rand.NewSource(defaultSeed)).Perm(n)
				for i := range want {
					if int(got[i]) != want[i] {
						errs <- fmt.Sprintf("goroutine %d n %d: differs at %d", g, n, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
