package pathindex

import (
	"testing"

	"repro/internal/prob"
)

// TestIndexMetrics covers the read-path counters the index exports.
func TestIndexMetrics(t *testing.T) {
	g := motivating(t)
	ix := buildIndex(t, g, Options{MaxLen: 2, Beta: 0.02, Gamma: 0.1})
	var observed int
	ix.SetPostingObserver(func(micros float64) {
		if micros < 0 {
			t.Errorf("negative decode time %v", micros)
		}
		observed++
	})
	alpha := g.Alphabet()
	if _, err := ix.Lookup([]prob.LabelID{alpha.ID("r"), alpha.ID("a")}, 0.1); err != nil {
		t.Fatal(err)
	}
	m := ix.IndexMetrics()
	if m.Probes != 1 {
		t.Fatalf("probes %d", m.Probes)
	}
	if m.MappedBytes == 0 {
		t.Fatal("mapped bytes 0")
	}
	if observed != 1 {
		t.Fatalf("observer fired %d times", observed)
	}
	ix.SetPostingObserver(nil)
	if _, err := ix.Lookup([]prob.LabelID{alpha.ID("r"), alpha.ID("a")}, 0.1); err != nil {
		t.Fatal(err)
	}
	if observed != 1 {
		t.Fatal("observer fired after uninstall")
	}
}
