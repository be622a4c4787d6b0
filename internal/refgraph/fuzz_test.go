package refgraph

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/prob"
	"repro/internal/storage/binio"
)

// seedSnapshot serializes a small but fully featured PGD (CPT edge, set,
// singleton prior, named merge) as fuzz corpus.
func seedSnapshot(t *testing.T, edges string) []byte {
	t.Helper()
	a := prob.MustAlphabet("x", "y")
	g := New(a)
	r1 := g.AddReference(prob.MustDist(prob.LabelProb{Label: 0, P: 0.5}, prob.LabelProb{Label: 1, P: 0.5}))
	r2 := g.AddReference(prob.Point(1))
	r3 := g.AddReference(prob.Point(0))
	if err := g.AddEdge(r1, r2, EdgeDist{P: 0.5, CPT: []float64{0.1, 0.2, 0.2, 0.9}}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(r2, r3, EdgeDist{P: 0.75}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddReferenceSet([]RefID{r1, r3}, 0.8); err != nil {
		t.Fatal(err)
	}
	if err := g.SetSingletonPrior(r2, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := g.SetNamedMerge("average", edges); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// countBombs are snapshots whose header promises a list far longer than the
// bytes that follow: an alphabet of 2^31-1 labels, a reference with 2^31-1
// label entries (48 bytes in all), and a set of 2^31-1 members.
func countBombs() map[string][]byte {
	const huge = 0x7fffffff
	bomb := func(body func(w *binio.Writer)) []byte {
		var buf bytes.Buffer
		w := binio.NewWriter(&buf)
		w.Str(magic)
		w.U8(version)
		w.Str("average")
		w.Str("average")
		body(w)
		if err := w.Flush(); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	return map[string][]byte{
		"labels": bomb(func(w *binio.Writer) { w.U32(huge) }),
		"entries": bomb(func(w *binio.Writer) {
			w.U32(1)
			w.Str("a")
			w.U32(1) // references
			w.U32(huge)
		}),
		"members": bomb(func(w *binio.Writer) {
			w.U32(1)
			w.Str("a")
			w.U32(0) // references
			w.U32(0) // edges
			w.U32(1) // sets
			w.U32(huge)
		}),
	}
}

// TestLoadRejectsUnbackedCounts: Load sizes nothing from a count the input
// has not backed, so each bomb is an error after a few bytes of allocation
// rather than a multi-gigabyte request.
func TestLoadRejectsUnbackedCounts(t *testing.T) {
	bombs := countBombs()
	if n := len(bombs["entries"]); n != 48 {
		t.Fatalf("the entries bomb is %d bytes, want 48", n)
	}
	for name, data := range bombs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: Load accepted a %d-byte bomb", name, len(data))
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: Load allocated %d bytes for a %d-byte input", name, d, len(data))
		}
	}
}

// FuzzLoadPGD feeds arbitrary bytes to the snapshot loader: it must never
// panic, and everything it accepts must round-trip — Save of the loaded PGD
// must load again to an equivalent snapshot (same bytes on the second
// Save, since Load canonicalizes).
func FuzzLoadPGD(f *testing.F) {
	f.Add([]byte("PGD1"))
	f.Add([]byte{})
	seedT := &testing.T{}
	f.Add(seedSnapshot(seedT, "average"))
	f.Add(seedSnapshot(seedT, "disjunct"))
	f.Add(countBombs()["entries"])

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejected input: fine, as long as it did not panic
		}
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			t.Fatalf("Save of loaded PGD failed: %v", err)
		}
		g2, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round-trip Load failed: %v", err)
		}
		var buf2 bytes.Buffer
		if err := g2.Save(&buf2); err != nil {
			t.Fatalf("second Save failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("snapshot not a fixed point: %d vs %d bytes", buf.Len(), buf2.Len())
		}
		if g.NumRefs() != g2.NumRefs() || g.NumEdges() != g2.NumEdges() || g.NumSets() != g2.NumSets() {
			t.Fatalf("round-trip changed shape: %d/%d/%d vs %d/%d/%d",
				g.NumRefs(), g.NumEdges(), g.NumSets(), g2.NumRefs(), g2.NumEdges(), g2.NumSets())
		}
	})
}
