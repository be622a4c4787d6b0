package kpartite

import (
	"context"
	"math"
	"testing"
)

const eps = 1e-9

// figure5Graph reconstructs the paper's Figure 5(c) state: three partitions
// P1 = {Pu1 (w1=0.9), Pu2 (0.8)}, P2 = {Pu4 (0.7)}, P3 = {Pu9 (0.6),
// Pu8 (0.8)}, with P2 joining both P1 and P3 and Pu4 linked to everything.
// Identity weights w2 are 1 (the figure considers w1 only).
func figure5Graph(t *testing.T, alpha float64) *Graph {
	t.Helper()
	kg, err := NewExplicit(
		[][]VertexSpec{
			{{W1: 0.9, W2: 1}, {W1: 0.8, W2: 1}}, // P1: Pu1, Pu2
			{{W1: 0.7, W2: 1}},                   // P2: Pu4
			{{W1: 0.6, W2: 1}, {W1: 0.8, W2: 1}}, // P3: Pu9, Pu8
		},
		[][2]int{{0, 1}, {1, 2}},
		[]LinkSpec{
			{PartA: 0, IndexA: 0, PartB: 1, IndexB: 0}, // Pu1–Pu4
			{PartA: 0, IndexA: 1, PartB: 1, IndexB: 0}, // Pu2–Pu4
			{PartA: 1, IndexA: 0, PartB: 2, IndexB: 0}, // Pu4–Pu9
			{PartA: 1, IndexA: 0, PartB: 2, IndexB: 1}, // Pu4–Pu8
		},
		alpha,
	)
	if err != nil {
		t.Fatal(err)
	}
	return kg
}

func TestFigure5MessagePassing(t *testing.T) {
	kg := figure5Graph(t, 0.4)
	st, err := kg.Reduce(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.SSBefore != 2*1*2 {
		t.Errorf("SSBefore = %v", st.SSBefore)
	}
	// Structure removes nothing in (c).
	if st.SSAfterStructure != 4 {
		t.Errorf("SSAfterStructure = %v", st.SSAfterStructure)
	}
	// At α=0.4, exactly the 0.6-weight vertex of P3 dies:
	// its converged bound is 0.9 · 0.7 · 0.6 = 0.378 < 0.4 (the paper's
	// Figure 5(f) walkthrough; the prose says "Pu8" but means the vertex
	// with the 0.6 weight).
	if kg.Alive(2, 0) {
		t.Error("vertex (P3, 0.6) should be pruned")
	}
	if !kg.Alive(2, 1) || !kg.Alive(0, 0) || !kg.Alive(0, 1) || !kg.Alive(1, 0) {
		t.Error("wrong vertex pruned")
	}
	if st.SSAfterUpperbound != 2*1*1 {
		t.Errorf("SSAfterUpperbound = %v", st.SSAfterUpperbound)
	}

	// Converged perception vectors match Figure 5(f).
	wantVecs := map[[2]int][]float64{
		{0, 0}: {0.9, 0.7, 0.8}, // Pu1
		{0, 1}: {0.8, 0.7, 0.8}, // Pu2
		{1, 0}: {0.9, 0.7, 0.8}, // Pu4
		{2, 1}: {0.9, 0.7, 0.8}, // Pu8
	}
	for key, want := range wantVecs {
		got := kg.Vector(key[0], key[1])
		if got == nil {
			t.Fatalf("vertex %v has no vector", key)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > eps {
				t.Errorf("vertex %v vector = %v, want %v", key, got, want)
				break
			}
		}
	}
}

func TestFigure5NoPruneAtLowAlpha(t *testing.T) {
	kg := figure5Graph(t, 0.3)
	st, err := kg.Reduce(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// 0.378 ≥ 0.3: everything survives.
	if st.SSAfterUpperbound != 4 {
		t.Errorf("SSAfterUpperbound = %v, want 4", st.SSAfterUpperbound)
	}
}

func TestReductionByStructure(t *testing.T) {
	// P1 joins P2; one P1 vertex has no links at all → removed; its removal
	// does not orphan the linked pair.
	kg, err := NewExplicit(
		[][]VertexSpec{
			{{W1: 1, W2: 1}, {W1: 1, W2: 1}},
			{{W1: 1, W2: 1}},
		},
		[][2]int{{0, 1}},
		[]LinkSpec{{PartA: 0, IndexA: 0, PartB: 1, IndexB: 0}},
		0.1,
	)
	if err != nil {
		t.Fatal(err)
	}
	// Upper bounds kill nothing at W1 = W2 = 1, α = 0.1: every death is
	// structural.
	st, err := kg.Reduce(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.SSBefore != 2 || st.SSAfterStructure != 1 || st.SSAfterUpperbound != 1 {
		t.Errorf("ST: %v → %v, want 2 → 1", st.SSBefore, st.SSAfterStructure)
	}
	if kg.Alive(0, 1) {
		t.Error("unlinked vertex survived")
	}
	if !kg.Alive(0, 0) || !kg.Alive(1, 0) {
		t.Error("linked vertices died")
	}
}

func TestReductionByStructureCascades(t *testing.T) {
	// Chain P1–P2–P3: killing the only P3 vertex linked to P2's vertex
	// cascades through the chain.
	kg, err := NewExplicit(
		[][]VertexSpec{
			{{W1: 1, W2: 1}},
			{{W1: 1, W2: 1}},
			{{W1: 1, W2: 1}}, // no links at all
		},
		[][2]int{{0, 1}, {1, 2}},
		[]LinkSpec{{PartA: 0, IndexA: 0, PartB: 1, IndexB: 0}},
		0.1,
	)
	if err != nil {
		t.Fatal(err)
	}
	st, err := kg.Reduce(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// P3's vertex has no link to P2 → dies; then P2's vertex loses its only
	// P3 link → dies; then P1's vertex dies.
	if st.SSAfterStructure != 0 {
		t.Errorf("SSAfterStructure = %v, want 0 (full cascade)", st.SSAfterStructure)
	}
}

func TestPruneUsesW2(t *testing.T) {
	// A vertex with low identity probability w2 is pruned even when all w1
	// bounds are high.
	kg, err := NewExplicit(
		[][]VertexSpec{
			{{W1: 1, W2: 0.2}},
			{{W1: 1, W2: 1}},
		},
		[][2]int{{0, 1}},
		[]LinkSpec{{PartA: 0, IndexA: 0, PartB: 1, IndexB: 0}},
		0.5,
	)
	if err != nil {
		t.Fatal(err)
	}
	st, err := kg.Reduce(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.SSAfterUpperbound != 0 {
		t.Errorf("low-w2 vertex survived: %v", st.SSAfterUpperbound)
	}
}

func TestNewExplicitValidation(t *testing.T) {
	if _, err := NewExplicit(nil, [][2]int{{0, 5}}, nil, 0.5); err == nil {
		t.Error("bad joined pair accepted")
	}
	if _, err := NewExplicit(
		[][]VertexSpec{{{W1: 1, W2: 1}}, {{W1: 1, W2: 1}}},
		nil,
		[]LinkSpec{{PartA: 0, IndexA: 0, PartB: 1, IndexB: 0}},
		0.5,
	); err == nil {
		t.Error("link between non-joined partitions accepted")
	}
}

func TestAccessors(t *testing.T) {
	kg := figure5Graph(t, 0.4)
	if kg.NumPartitions() != 3 {
		t.Errorf("NumPartitions = %d", kg.NumPartitions())
	}
	if kg.AliveCount(0) != 2 {
		t.Errorf("AliveCount(0) = %d", kg.AliveCount(0))
	}
	links := kg.Links(1, 0, 2)
	if len(links) != 2 {
		t.Errorf("Links(1,0,2) = %v", links)
	}
}
