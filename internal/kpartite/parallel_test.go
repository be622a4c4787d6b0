package kpartite

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/candidates"
	"repro/internal/decompose"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/pathindex"
)

// graphsIdentical compares the built k-partite graphs arena by arena: the
// row-major candidate node arrays, the float bits of w1/w2, and every CSR
// link set's offs and pool. Byte-identical arenas are the determinism
// contract of the parallel pair fan-out.
func graphsIdentical(t *testing.T, label string, want, got *Graph) {
	t.Helper()
	if len(want.parts) != len(got.parts) {
		t.Fatalf("%s: %d partitions, want %d", label, len(got.parts), len(want.parts))
	}
	for p := range want.parts {
		wp, gp := want.parts[p], got.parts[p]
		if wp.n != gp.n || wp.plen != gp.plen {
			t.Fatalf("%s: partition %d shape (%d,%d), want (%d,%d)", label, p, gp.n, gp.plen, wp.n, wp.plen)
		}
		for i := range wp.nodes {
			if wp.nodes[i] != gp.nodes[i] {
				t.Fatalf("%s: partition %d nodes[%d] = %d, want %d", label, p, i, gp.nodes[i], wp.nodes[i])
			}
		}
		for i := range wp.w1 {
			if math.Float64bits(wp.w1[i]) != math.Float64bits(gp.w1[i]) ||
				math.Float64bits(wp.w2[i]) != math.Float64bits(gp.w2[i]) {
				t.Fatalf("%s: partition %d weights[%d] differ", label, p, i)
			}
		}
	}
	for a := range want.links {
		for b := range want.links[a] {
			wl, gl := &want.links[a][b], &got.links[a][b]
			if len(wl.offs) != len(gl.offs) || len(wl.pool) != len(gl.pool) {
				t.Fatalf("%s: links[%d][%d] shape (%d,%d), want (%d,%d)",
					label, a, b, len(gl.offs), len(gl.pool), len(wl.offs), len(wl.pool))
			}
			for i := range wl.offs {
				if wl.offs[i] != gl.offs[i] {
					t.Fatalf("%s: links[%d][%d].offs[%d] = %d, want %d", label, a, b, i, gl.offs[i], wl.offs[i])
				}
			}
			for i := range wl.pool {
				if wl.pool[i] != gl.pool[i] {
					t.Fatalf("%s: links[%d][%d].pool[%d] = %d, want %d", label, a, b, i, gl.pool[i], wl.pool[i])
				}
			}
		}
	}
}

// linkPairBeforeCounting is linkPair as it stood before the counting layout,
// kept here only as the reference the new construction is held to: a
// string-keyed map over b's join-position tuples, the surviving (i, j) pairs
// collected in a slice, and one sort per CSR direction.
func linkPairBeforeCounting(kg *Graph, be *buildEval, a, b int) (ab, ba linkSet) {
	preds := kg.dec.Preds(a, b)
	pa, pb := kg.parts[a], kg.parts[b]
	be.setPair(pa.set.Path, pb.set.Path)
	key := func(row []entity.ID, sideA bool) string {
		var buf []byte
		for _, pr := range preds {
			pos := pr.PosB
			if sideA {
				pos = pr.PosA
			}
			id := row[pos]
			buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		return string(buf)
	}
	table := make(map[string][]int32)
	for j := 0; j < pb.n; j++ {
		k := key(pb.nodes[j*pb.plen:(j+1)*pb.plen], false)
		table[k] = append(table[k], int32(j))
	}
	var pairs [][2]int32
	for i := 0; i < pa.n; i++ {
		rowA := pa.nodes[i*pa.plen : (i+1)*pa.plen]
		for _, j := range table[key(rowA, true)] {
			if be.joinable(pa.set.Path, pb.set.Path, rowA, pb.nodes[int(j)*pb.plen:(int(j)+1)*pb.plen]) {
				pairs = append(pairs, [2]int32{int32(i), j})
			}
		}
	}
	csr := func(n, from, to int) linkSet {
		sort.Slice(pairs, func(x, y int) bool {
			if pairs[x][from] != pairs[y][from] {
				return pairs[x][from] < pairs[y][from]
			}
			return pairs[x][to] < pairs[y][to]
		})
		ls := linkSet{offs: make([]int32, n+1), pool: make([]int32, len(pairs))}
		for x, pr := range pairs {
			ls.offs[pr[from]+1]++
			ls.pool[x] = pr[to]
		}
		for i := 0; i < n; i++ {
			ls.offs[i+1] += ls.offs[i]
		}
		return ls
	}
	return csr(pa.n, 0, 1), csr(pb.n, 1, 0)
}

// TestBuildParallelEquivalence: the k-partite arenas built at workers 2, 4,
// and 8 are byte-identical to the single-threaded build, across both
// decomposition strategies and α on both sides of β on seeded synthetic
// graphs — and the single-threaded build's link sets are byte-identical to
// the pre-change map-and-sort construction.
func TestBuildParallelEquivalence(t *testing.T) {
	links := 0
	defer func() {
		if links == 0 {
			t.Error("no query produced a link; the comparison was vacuous")
		}
	}()
	for _, seed := range []int64{1, 2, 3} {
		d, err := gen.Synthetic(gen.SynthOptions{
			Refs: 30, EdgeFactor: 2, Labels: 4, UncertainFrac: 0.4,
			Groups: 2, GroupSize: 3, PairsPerGroup: 2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		g, err := entity.Build(d, entity.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := pathindex.Build(context.Background(), g, pathindex.Options{
			MaxLen: 2, Beta: 0.05, Gamma: 0.1, Dir: filepath.Join(t.TempDir(), "ix"),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })

		rng := rand.New(rand.NewSource(seed * 977))
		for qi := 0; qi < 3; qi++ {
			q, err := gen.RandomQuery(rng, g.NumLabels(), 2+rng.Intn(2), 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []decompose.Mode{decompose.ModeOptimized, decompose.ModeRandom} {
				for _, alpha := range []float64{0.02, 0.1} { // β = 0.05 lies between
					dec, err := decompose.Decompose(q, ix, decompose.Options{
						MaxLen: 2, Alpha: alpha, Mode: mode, Seed: seed,
					})
					if err != nil {
						t.Fatal(err)
					}
					sets, _, err := candidates.Find(context.Background(), ix, q, dec, alpha, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					seq, err := Build(context.Background(), g, q, dec, sets, alpha, 1)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("seed %d q%d mode %d α=%v", seed, qi, mode, alpha)
					be := newBuildEval(g, q, dec, alpha)
					for pair := range dec.Joins {
						a, b := pair[0], pair[1]
						ab, ba := linkPairBeforeCounting(seq, be, a, b)
						if !slices.Equal(ab.offs, seq.links[a][b].offs) || !slices.Equal(ab.pool, seq.links[a][b].pool) ||
							!slices.Equal(ba.offs, seq.links[b][a].offs) || !slices.Equal(ba.pool, seq.links[b][a].pool) {
							t.Fatalf("%s: links of pair (%d,%d) differ from the map-and-sort construction", label, a, b)
						}
						links += len(ab.pool)
					}
					for _, workers := range []int{2, 4, 8} {
						got, err := Build(context.Background(), g, q, dec, sets, alpha, workers)
						if err != nil {
							t.Fatalf("workers=%d: %v", workers, err)
						}
						graphsIdentical(t, fmt.Sprintf("%s w=%d", label, workers), seq, got)
					}
				}
			}
		}
	}
}
