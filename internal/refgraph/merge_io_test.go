package refgraph

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/prob"
)

// TestSnapshotRecordsNamedMerge: a named non-default merge survives the
// Save/Load round trip — both the recorded identifier and the actual
// function behavior.
func TestSnapshotRecordsNamedMerge(t *testing.T) {
	a := prob.MustAlphabet("x", "y")
	g := New(a)
	r1 := g.AddReference(prob.Point(0))
	r2 := g.AddReference(prob.Point(1))
	if err := g.AddEdge(r1, r2, EdgeDist{P: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetNamedMerge("", "disjunct"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	labels, edges := g2.mergeLabelName, g2.mergeEdgeName
	if labels != "average" || edges != "disjunct" {
		t.Fatalf("merge names (%q, %q), want (average, disjunct)", labels, edges)
	}
	// Noisy-or of {0.5, 0.5} is 0.75 where the silently-restored default
	// (average) would give 0.5 — the exact bug the identifier prevents.
	if got := g2.Merge().Edges([]float64{0.5, 0.5}); got != 0.75 {
		t.Fatalf("loaded edge merge(0.5,0.5) = %v, want 0.75 (disjunct)", got)
	}
}

// TestSnapshotRejectsCustomMerge: Save records prob.MergeCustom for raw
// function values, and Load fails loudly instead of restoring defaults.
func TestSnapshotRejectsCustomMerge(t *testing.T) {
	a := prob.MustAlphabet("x")
	g := New(a)
	g.AddReference(prob.Point(0))
	g.SetMerge(prob.MergeFuncs{Edges: func(ps []float64) float64 { return 1 }})
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "custom merge") {
		t.Fatalf("Load of custom-merge snapshot: err = %v, want loud custom-merge failure", err)
	}
}
