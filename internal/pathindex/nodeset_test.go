package pathindex

import (
	"reflect"
	"testing"

	"repro/internal/gen"
)

// TestNodeSetsMemo: an index starts with an empty memo of factor sets, one
// per index and so per generation; a query node with two neighbour labels
// memoises two factor sets, and reading it again adds none and returns the
// same set. An index opened again over the same files starts empty.
func TestNodeSetsMemo(t *testing.T) {
	g := synthGraph(t, gen.SynthOptions{Refs: 300, Labels: 3, UncertainFrac: 0.5, Seed: 6})
	dir := t.TempDir()
	ix := buildIndex(t, g, Options{MaxLen: 2, Beta: 0.5, Gamma: 0.1, Dir: dir})
	if n := ix.sets.Len(); n != 0 {
		t.Fatalf("a built index holds %d factor sets", n)
	}
	counts := []int{0, 1, 2}
	first := ix.NodeSet(0, counts, 0.05)
	if n := ix.sets.Len(); n != 2 {
		t.Fatalf("one query node with two neighbour labels memoised %d factor sets, want 2", n)
	}
	if again := ix.NodeSet(0, counts, 0.05); !reflect.DeepEqual(again, first) || ix.sets.Len() != 2 {
		t.Fatalf("a second read differs or memoised more: %d factor sets", ix.sets.Len())
	}
	reopened, err := Open(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if n := reopened.sets.Len(); n != 0 {
		t.Fatalf("an index opened again holds %d factor sets", n)
	}
}
