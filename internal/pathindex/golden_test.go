package pathindex

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/prob"
	"repro/internal/storage/packedix"
)

var update = flag.Bool("update", false, "rewrite the golden packed.idx under testdata from a fresh build")

// goldenDir holds packed.idx built from the motivating example at
// goldenOptions. Any change to the bytes a build writes fails here; rerun
// with -update only when the format change is intended.
const goldenDir = "testdata/motivating"

var goldenOptions = Options{MaxLen: 2, Beta: 0.02, Gamma: 0.1}

func TestGoldenPackedFixture(t *testing.T) {
	g := motivating(t)
	golden := filepath.Join(goldenDir, packedix.FileName)
	for _, workers := range []int{1, 7} {
		opt := goldenOptions
		opt.Workers, opt.Dir = workers, t.TempDir()
		buildIndex(t, g, opt).Close()
		got, err := os.ReadFile(filepath.Join(opt.Dir, packedix.FileName))
		if err != nil {
			t.Fatal(err)
		}
		if *update && workers == 1 {
			if err := os.MkdirAll(goldenDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Workers %d: fresh build (%d bytes) differs from %s (%d bytes); rerun with -update if the format change is intended",
				workers, len(got), golden, len(want))
		}
	}

	// The frozen file still answers: one probe per path length, against the
	// brute-force DFS.
	ix, err := Open(goldenDir, g)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	a := g.Alphabet()
	r, ai, i := a.ID("r"), a.ID("a"), a.ID("i")
	for _, X := range [][]prob.LabelID{{ai}, {r, ai}, {r, ai, i}} {
		got, err := ix.Lookup(X, goldenOptions.Beta)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(ix, X, goldenOptions.Beta)
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("X=%v: fixture %d paths, brute force %d", X, len(got), len(want))
		}
		sortMatches(got)
		sortMatches(want)
		for k := range got {
			if pathKey(got[k].Nodes) != pathKey(want[k].Nodes) || math.Abs(got[k].Pr()-want[k].Pr()) > 1e-12 {
				t.Fatalf("X=%v: fixture %+v, brute force %+v", X, got[k], want[k])
			}
		}
	}
}
