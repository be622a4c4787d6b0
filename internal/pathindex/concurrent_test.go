package pathindex

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/prob"
)

// TestConcurrentLookups hammers one shared index from many goroutines with
// mixed Lookup (indexed and on-demand α) and Cardinality calls, asserting
// every concurrent result equals the sequential baseline. Run under -race
// this proves the lock-free read path — key-table searches, posting decodes
// into per-call scratch, histogram reads off the mapping — is actually safe.
func TestConcurrentLookups(t *testing.T) {
	d, err := gen.Synthetic(gen.SynthOptions{Refs: 80, EdgeFactor: 2, Labels: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	built, err := Build(context.Background(), g, Options{
		MaxLen: 2, Beta: 0.05, Gamma: 0.1, Dir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}

	// Serve from a freshly opened index, as pegserve does.
	ix, err := Open(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	seqs := ix.Sequences()
	if len(seqs) == 0 {
		t.Fatal("index has no sequences")
	}

	// Sequential baselines per (sequence, alpha).
	alphas := []float64{0.06, 0.2, 0.5, 0.01 /* below β: on-demand path */}
	type baseKey struct {
		seq   int
		alpha float64
	}
	want := make(map[baseKey][]PathMatch)
	wantCard := make(map[baseKey]float64)
	for si, X := range seqs {
		for _, a := range alphas {
			ms, err := ix.Lookup(X, a)
			if err != nil {
				t.Fatalf("baseline Lookup(%v, %v): %v", X, a, err)
			}
			sortMatches(ms)
			want[baseKey{si, a}] = ms
			wantCard[baseKey{si, a}] = ix.Cardinality(X, a)
		}
	}

	const goroutines = 16
	const iters = 150
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				si := rng.Intn(len(seqs))
				a := alphas[rng.Intn(len(alphas))]
				X := seqs[si]
				if i%3 == 0 {
					if got := ix.Cardinality(X, a); got != wantCard[baseKey{si, a}] {
						t.Errorf("goroutine %d: Cardinality(%v, %v) = %v, want %v",
							w, X, a, got, wantCard[baseKey{si, a}])
						return
					}
					continue
				}
				ms, err := ix.Lookup(X, a)
				if err != nil {
					errCh <- err
					return
				}
				sortMatches(ms)
				if !pathMatchesEqual(ms, want[baseKey{si, a}]) {
					t.Errorf("goroutine %d: Lookup(%v, %v) diverged from sequential baseline", w, X, a)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent Lookup: %v", err)
	}
}

func pathMatchesEqual(a, b []PathMatch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if pathKey(a[i].Nodes) != pathKey(b[i].Nodes) || a[i].Prle != b[i].Prle || a[i].Prn != b[i].Prn {
			return false
		}
	}
	return true
}

// TestConcurrentLookupDuringOnDemand specifically overlaps indexed scans
// with the recursive on-demand enumeration (α < β), which walks the graph
// instead of the postings — both must coexist without data races.
func TestConcurrentLookupDuringOnDemand(t *testing.T) {
	g := motivating(t)
	ix := buildIndex(t, g, Options{MaxLen: 2, Beta: 0.1, Gamma: 0.1})
	alpha := g.Alphabet()
	X := []prob.LabelID{alpha.ID("r"), alpha.ID("a"), alpha.ID("i")}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := 0.2
				if w%2 == 0 {
					a = 0.02 // below β → on-demand DFS
				}
				if _, err := ix.Lookup(X, a); err != nil {
					t.Errorf("Lookup: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
